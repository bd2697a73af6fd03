"""Graded differential forms over the derivations of M(n|m).

A p-form is a graded-alternating p-linear map from derivations to the
algebra: antisymmetric under swapping two arguments unless both are odd,
where the swap is symmetric.  Forms are stored through their coefficients
on the canonical frame monomials

    omega = sum_I  omega_I ^ theta^(I_1) ^ ... ^ theta^(I_p),

with I running over the canonical index tuples of ``indexset`` and
omega_I a matrix.  The frame 1-forms theta^A are the center-valued duals
of the basis derivations; a monomial takes the value

    (theta^(I_1) ^ ... ^ theta^(I_p))(bd_(I_1), ..., bd_(I_p))
        = (-1)^(p''(p''-1)/2) * prod_l N_l!

on its own index tuple (p'' odd entries, multiplicities N_l), which is
what ties evaluation and coefficient extraction together.

Everything here is exact; the two independent routes to the exterior
derivative (the alternating-sum formula and the frame-generator route)
are cross-checked in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .constants import StructureConstants
from .indexset import (
    canonicalize,
    enumerate_multi_indices,
    extraction_prefactor,
    index_parity,
    self_evaluation_factor,
    tuple_parity,
)
from .matrices import GradedMatrix, graded_commutator
from .scalars import ONE, ZERO, Scalar

IndexTuple = Tuple[int, ...]


# ======================================================================
# Derivation vectors
# ======================================================================


@dataclass(frozen=True)
class DerivationVector:
    """A derivation in basis coordinates: sum_A coords[A] * bd_A."""

    n_even: int
    m_odd: int
    coords: Tuple[Scalar, ...]

    @staticmethod
    def basis(sc: StructureConstants, a: int) -> "DerivationVector":
        k = sc.dim
        return DerivationVector(
            sc.even_dim, sc.odd_dim,
            tuple(ONE if i == a else ZERO for i in range(k)),
        )

    @staticmethod
    def from_coords(sc: StructureConstants, coords: Sequence) -> "DerivationVector":
        co = tuple(Scalar.of(x) for x in coords)
        if len(co) != sc.dim:
            raise ValueError("coordinate vector has wrong length")
        return DerivationVector(sc.even_dim, sc.odd_dim, co)

    def support(self) -> List[int]:
        return [i for i, x in enumerate(self.coords) if x]

    def is_zero(self) -> bool:
        return not any(self.coords)

    def homogeneous_parity(self) -> Optional[int]:
        sup = self.support()
        if all(i < self.n_even for i in sup):
            return 0
        if all(i >= self.n_even for i in sup):
            return 1
        return None

    def parity_parts(self) -> Tuple["DerivationVector", "DerivationVector"]:
        ev = tuple(
            x if i < self.n_even else ZERO for i, x in enumerate(self.coords)
        )
        od = tuple(
            x if i >= self.n_even else ZERO for i, x in enumerate(self.coords)
        )
        return (
            DerivationVector(self.n_even, self.m_odd, ev),
            DerivationVector(self.n_even, self.m_odd, od),
        )

    def __add__(self, other: "DerivationVector") -> "DerivationVector":
        return DerivationVector(
            self.n_even, self.m_odd,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def scale(self, s) -> "DerivationVector":
        s = Scalar.of(s)
        return DerivationVector(
            self.n_even, self.m_odd, tuple(s * x for x in self.coords)
        )


def derivation_bracket(
    sc: StructureConstants, d1: DerivationVector, d2: DerivationVector
) -> DerivationVector:
    """Graded bracket of two derivations, expanded on the basis."""
    out = [ZERO] * sc.dim
    for a in d1.support():
        xa = d1.coords[a]
        for b in d2.support():
            f = xa * d2.coords[b]
            for cc, v in sc.c_row(a, b).items():
                out[cc] = out[cc] + f * v
    return DerivationVector(sc.even_dim, sc.odd_dim, tuple(out))


def apply_derivation(
    sc: StructureConstants, d: DerivationVector, mat: GradedMatrix
) -> GradedMatrix:
    """The derivation acting on an algebra element."""
    out = GradedMatrix.zero(sc.n, sc.m)
    for a in d.support():
        out = out + graded_commutator(sc.basis.elements[a], mat).scale(d.coords[a])
    return out


# ======================================================================
# Graded forms
# ======================================================================


class GradedForm:
    """A graded p-form stored by canonical-monomial coefficients."""

    __slots__ = ("n", "m", "n_even", "m_odd", "degree", "coeffs")

    def __init__(
        self,
        n: int,
        m: int,
        n_even: int,
        m_odd: int,
        degree: int,
        coeffs: Mapping[IndexTuple, GradedMatrix],
    ):
        clean: Dict[IndexTuple, GradedMatrix] = {}
        for key, mat in coeffs.items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError(f"key {key} does not match degree {degree}")
            canon = canonicalize(key, n_even)
            if canon is None or canon[0] != key:
                raise ValueError(f"key {key} is not canonical")
            if not mat.is_zero():
                clean[key] = mat
        self.n = n
        self.m = m
        self.n_even = n_even
        self.m_odd = m_odd
        self.degree = degree
        self.coeffs = clean

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(sc: StructureConstants, degree: int) -> "GradedForm":
        return GradedForm(sc.n, sc.m, sc.even_dim, sc.odd_dim, degree, {})

    @staticmethod
    def of(
        sc: StructureConstants, degree: int, coeffs: Mapping[IndexTuple, GradedMatrix]
    ) -> "GradedForm":
        return GradedForm(sc.n, sc.m, sc.even_dim, sc.odd_dim, degree, coeffs)

    @staticmethod
    def from_matrix(sc: StructureConstants, mat: GradedMatrix) -> "GradedForm":
        """A 0-form: the matrix itself, keyed by the empty tuple."""
        return GradedForm.of(sc, 0, {(): mat})

    # ---- basic structure ----------------------------------------------

    def _require_compatible(self, other: "GradedForm"):
        if (self.n, self.m, self.n_even, self.m_odd) != (
            other.n, other.m, other.n_even, other.m_odd,
        ):
            raise ValueError("forms live over different algebras")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __add__(self, other: "GradedForm") -> "GradedForm":
        self._require_compatible(other)
        out = dict(self.coeffs)
        for key, mat in other.coeffs.items():
            cur = out.get(key)
            out[key] = mat if cur is None else cur + mat
        return GradedForm(self.n, self.m, self.n_even, self.m_odd, self.degree, out)

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self + other.scale(-1)

    def __neg__(self) -> "GradedForm":
        return self.scale(-1)

    def scale(self, s) -> "GradedForm":
        s = Scalar.of(s)
        return GradedForm(
            self.n, self.m, self.n_even, self.m_odd, self.degree,
            {k: mat.scale(s) for k, mat in self.coeffs.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, GradedForm):
            return NotImplemented
        return (
            (self.n, self.m, self.n_even, self.m_odd, self.degree)
            == (other.n, other.m, other.n_even, other.m_odd, other.degree)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("GradedForm is not hashable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key: IndexTuple) -> GradedMatrix:
        return self.coeffs.get(tuple(key), GradedMatrix.zero(self.n, self.m))

    def key_parity(self, key: IndexTuple) -> int:
        return tuple_parity(key, self.n_even)

    def parity_parts(self) -> Tuple["GradedForm", "GradedForm"]:
        """Split into (even, odd) by total parity of coefficient and key."""
        ev: Dict[IndexTuple, GradedMatrix] = {}
        od: Dict[IndexTuple, GradedMatrix] = {}
        for key, mat in self.coeffs.items():
            me, mo = mat.parity_decompose()
            if self.key_parity(key) == 0:
                ev[key], od[key] = me, mo
            else:
                ev[key], od[key] = mo, me
        mk = lambda d: GradedForm(
            self.n, self.m, self.n_even, self.m_odd, self.degree, d
        )
        return mk(ev), mk(od)

    def homogeneous_parity(self) -> Optional[int]:
        ev, od = self.parity_parts()
        if od.is_zero():
            return 0
        if ev.is_zero():
            return 1
        return None

    def __repr__(self):
        return (
            f"GradedForm(degree={self.degree}, keys={sorted(self.coeffs)[:4]}"
            f"{'...' if len(self.coeffs) > 4 else ''})"
        )


# ======================================================================
# Evaluation and coefficient extraction
# ======================================================================


def evaluate_on_basis(form: GradedForm, indices: Sequence[int]) -> GradedMatrix:
    """Value on a tuple of basis derivations (any order, repeats allowed)."""
    if len(indices) != form.degree:
        raise ValueError("argument count does not match degree")
    # canonical order is plain ascending order, and stored keys are
    # canonical, so a sorted lookup finds the coefficient (or its absence)
    # before the sign-tracking sort runs
    mat = form.coeffs.get(tuple(sorted(indices)))
    if mat is None:
        return GradedMatrix.zero(form.n, form.m)
    key, sign = canonicalize(indices, form.n_even)
    return mat.scale(sign * self_evaluation_factor(key, form.n_even))


def evaluate(form: GradedForm, derivations: Sequence[DerivationVector]) -> GradedMatrix:
    """Multilinear evaluation on arbitrary derivation vectors."""
    if len(derivations) != form.degree:
        raise ValueError("argument count does not match degree")
    out = GradedMatrix.zero(form.n, form.m)
    if form.degree == 0:
        return out + form.coefficient(())

    def rec(pos: int, factor: Scalar, picked: List[int]):
        nonlocal out
        if pos == len(derivations):
            val = evaluate_on_basis(form, picked)
            if not val.is_zero():
                out = out + val.scale(factor)
            return
        dv = derivations[pos]
        for a in dv.support():
            picked.append(a)
            rec(pos + 1, factor * dv.coords[a], picked)
            picked.pop()

    rec(0, ONE, [])
    return out


def coefficients_from_values(
    callback: Callable[[IndexTuple], GradedMatrix],
    degree: int,
    sc: StructureConstants,
    spot_check_alternating: bool = False,
) -> GradedForm:
    """Rebuild a form from a graded-alternating value callback.

    ``callback`` receives canonical index tuples and must return the value
    of the form on the corresponding basis derivations.  The coefficient on
    a canonical tuple is the raw value times (-1)^(p''(p''-1)/2) / prod N_l!.
    Alternation is the caller's responsibility; ``spot_check_alternating``
    samples a few transposed tuples and verifies the sign relation.
    """
    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    checked = 0
    for key in enumerate_multi_indices(sc.even_dim, sc.odd_dim, degree):
        raw = callback(key)
        pref = extraction_prefactor(key, sc.even_dim)
        mat = raw.scale(pref)
        if not mat.is_zero():
            coeffs[key] = mat
        if spot_check_alternating and checked < 4 and degree >= 2 and not raw.is_zero():
            swapped = (key[1], key[0]) + key[2:]
            canon = canonicalize(swapped, sc.even_dim)
            expect = (
                GradedMatrix.zero(sc.n, sc.m)
                if canon is None
                else raw.scale(canon[1]) if canon[0] == key else None
            )
            if expect is not None and callback(swapped) != expect:
                raise ValueError(
                    f"callback is not graded-alternating at {swapped}"
                )
            checked += 1
    return GradedForm.of(sc, degree, coeffs)


# ======================================================================
# Wedge product
# ======================================================================


def wedge(w1: GradedForm, w2: GradedForm) -> GradedForm:
    """Graded wedge product on coefficient level.

    Per monomial pair the center-valued frame factors of the first form
    slide past the coefficient of the second, which costs the parity sign
    (-1)^(|theta^I| * |coeff|); the concatenated index tuple is then sorted
    into canonical order with the same swap rule evaluation uses.
    """
    if (w1.n, w1.m, w1.n_even, w1.m_odd) != (w2.n, w2.m, w2.n_even, w2.m_odd):
        raise ValueError("forms live over different algebras")
    degree = w1.degree + w2.degree
    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    twisted = {k2: m2.parity_twist() for k2, m2 in w2.coeffs.items()}
    for k1, m1 in w1.coeffs.items():
        p1 = tuple_parity(k1, w1.n_even)
        for k2, m2 in w2.coeffs.items():
            canon = canonicalize(k1 + k2, w1.n_even)
            if canon is None:
                continue
            key, csign = canon
            mat = (m1 @ (twisted[k2] if p1 else m2)).scale(csign)
            cur = coeffs.get(key)
            coeffs[key] = mat if cur is None else cur + mat
    return GradedForm(w1.n, w1.m, w1.n_even, w1.m_odd, degree, coeffs)


def wedge_matrix_form(mat: GradedMatrix, form: GradedForm) -> GradedForm:
    """Left module action: the 0-form ``mat`` wedged onto ``form``."""
    return GradedForm(
        form.n, form.m, form.n_even, form.m_odd, form.degree,
        {k: mat @ v for k, v in form.coeffs.items()},
    )


def wedge_form_matrix(form: GradedForm, mat: GradedMatrix) -> GradedForm:
    """Right module action, with the frame factors passing the matrix."""
    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    twisted = mat.parity_twist()
    for key, v in form.coeffs.items():
        coeffs[key] = v @ (twisted if tuple_parity(key, form.n_even) else mat)
    return GradedForm(form.n, form.m, form.n_even, form.m_odd, form.degree, coeffs)


# ======================================================================
# Cartan calculus
# ======================================================================


def interior_product(d: DerivationVector, form: GradedForm) -> GradedForm:
    """Contraction with a derivation in the first argument slot."""
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")

    def cb(key: IndexTuple) -> GradedMatrix:
        out = GradedMatrix.zero(form.n, form.m)
        for a in d.support():
            val = evaluate_on_basis(form, (a,) + key)
            if not val.is_zero():
                out = out + val.scale(d.coords[a])
        return out

    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    for key in enumerate_multi_indices(form.n_even, form.m_odd, form.degree - 1):
        raw = cb(key)
        mat = raw.scale(extraction_prefactor(key, form.n_even))
        if not mat.is_zero():
            coeffs[key] = mat
    return GradedForm(
        form.n, form.m, form.n_even, form.m_odd, form.degree - 1, coeffs
    )


def _lie_basis_homogeneous(
    sc: StructureConstants, a: int, form: GradedForm, form_parity: int
) -> GradedForm:
    """Lie derivative along a basis derivation of a parity-homogeneous form."""
    ea = sc.basis.elements[a]
    pa = sc.parity(a)
    p = form.degree

    def cb(key: IndexTuple) -> GradedMatrix:
        val = evaluate_on_basis(form, key)
        out = (
            graded_commutator(ea, val)
            if not val.is_zero()
            else GradedMatrix.zero(form.n, form.m)
        )
        acc = form_parity
        for l in range(p):
            sign = -1 if (pa and acc % 2) else 1
            for cc, v in sc.c_row(a, key[l]).items():
                sub = evaluate_on_basis(form, key[:l] + (cc,) + key[l + 1:])
                if not sub.is_zero():
                    out = out - sub.scale(Scalar.of(sign) * v)
            acc += index_parity(key[l], form.n_even)
        return out

    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    for key in enumerate_multi_indices(form.n_even, form.m_odd, p):
        raw = cb(key)
        mat = raw.scale(extraction_prefactor(key, form.n_even))
        if not mat.is_zero():
            coeffs[key] = mat
    return GradedForm(form.n, form.m, form.n_even, form.m_odd, p, coeffs)


def lie_derivative(
    sc: StructureConstants, d: DerivationVector, form: GradedForm
) -> GradedForm:
    """Lie derivative along an arbitrary derivation.

    The sign-bearing formula applies to homogeneous data, so the derivation
    and the form are split into parity parts first and the results summed.
    """
    out = GradedForm.zero(sc, form.degree)
    for dpart in d.parity_parts():
        if dpart.is_zero():
            continue
        for fpar, fpart in enumerate(form.parity_parts()):
            if fpart.is_zero():
                continue
            for a in dpart.support():
                out = out + _lie_basis_homogeneous(sc, a, fpart, fpar).scale(
                    dpart.coords[a]
                )
    return out


def _exterior_derivative_homogeneous(
    sc: StructureConstants, form: GradedForm, form_parity: int
) -> GradedForm:
    """The alternating-sum exterior derivative of a parity-homogeneous form."""
    p = form.degree
    basis_el = sc.basis.elements

    def cb(key: IndexTuple) -> GradedMatrix:
        out = GradedMatrix.zero(form.n, form.m)
        degs = [index_parity(i, form.n_even) for i in key]
        acc = 0
        for l in range(p + 1):
            sub = evaluate_on_basis(form, key[:l] + key[l + 1:])
            if not sub.is_zero():
                exp = l + degs[l] * (form_parity + acc)
                term = graded_commutator(basis_el[key[l]], sub)
                out = out + term.scale(-1 if exp % 2 else 1)
            acc += degs[l]
        for l in range(p + 1):
            for lp in range(l + 1, p + 1):
                between = sum(degs[t] for t in range(l + 1, lp))
                exp = lp + degs[lp] * between
                sign = Scalar.of(-1 if exp % 2 else 1)
                for cc, v in sc.c_row(key[l], key[lp]).items():
                    args = key[:l] + (cc,) + key[l + 1: lp] + key[lp + 1:]
                    sub = evaluate_on_basis(form, args)
                    if not sub.is_zero():
                        out = out + sub.scale(sign * v)
        return out

    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    for key in enumerate_multi_indices(form.n_even, form.m_odd, p + 1):
        raw = cb(key)
        mat = raw.scale(extraction_prefactor(key, form.n_even))
        if not mat.is_zero():
            coeffs[key] = mat
    return GradedForm(form.n, form.m, form.n_even, form.m_odd, p + 1, coeffs)


def exterior_derivative(sc: StructureConstants, form: GradedForm) -> GradedForm:
    """Exterior derivative via the alternating evaluation formula."""
    out = GradedForm.zero(sc, form.degree + 1)
    for fpar, fpart in enumerate(form.parity_parts()):
        if not fpart.is_zero():
            out = out + _exterior_derivative_homogeneous(sc, fpart, fpar)
    return out


def exterior_derivative_generators(
    sc: StructureConstants, form: GradedForm
) -> GradedForm:
    """Exterior derivative through the frame generator formulas.

    Uses  d(coeff) = -sum c * E ^ theta  after expanding the coefficient in
    the basis, and  d theta^A = (1/2) sum c_BC^A theta^C ^ theta^B  inside
    the monomial, with the Leibniz sign (-1)^position.  Must agree with
    ``exterior_derivative`` identically; the tests enforce it.
    """
    p = form.degree
    ne = form.n_even
    acc: Dict[IndexTuple, GradedMatrix] = {}

    def push(key: IndexTuple, mat: GradedMatrix):
        if mat.is_zero():
            return
        cur = acc.get(key)
        acc[key] = mat if cur is None else cur + mat

    half = Scalar(Fraction(1, 2))
    for key, mat in form.coeffs.items():
        coeffs, _unit = sc.expand(mat)
        # theta^b moved in front of theta^I: the same for every a
        moved = [canonicalize((b,) + key, ne) for b in range(sc.dim)]
        for a, mu in enumerate(coeffs):
            if not mu:
                continue
            for b in range(sc.dim):
                canon = moved[b]
                if canon is None:
                    continue
                newkey, sign = canon
                for cc, v in sc.c_row(a, b).items():
                    push(newkey, sc.basis.elements[cc].scale(-(mu * v) * sign))
        for j in range(p):
            sign_j = -1 if j % 2 else 1
            for (b, cc), row in sc.c.items():
                v = row.get(key[j])
                if v is None:
                    continue
                canon = canonicalize(key[:j] + (cc, b) + key[j + 1:], ne)
                if canon is None:
                    continue
                newkey, sign = canon
                push(newkey, mat.scale(half * v * (sign_j * sign)))
    return GradedForm(form.n, form.m, form.n_even, form.m_odd, p + 1, acc)


# ======================================================================
# The canonical 1-form and the frame
# ======================================================================


def frame_form(sc: StructureConstants, a: int) -> GradedForm:
    """The center-valued frame 1-form dual to the basis derivation a."""
    return GradedForm.of(sc, 1, {(a,): GradedMatrix.identity(sc.n, sc.m)})


def canonical_one_form(sc: StructureConstants) -> GradedForm:
    """The invariant 1-form pairing each basis element with its dual frame."""
    return GradedForm.of(
        sc, 1, {(a,): sc.basis.elements[a] for a in range(sc.dim)}
    )


def differential_of_element(sc: StructureConstants, a: int) -> GradedForm:
    """d of a basis element, straight from the structure constants."""
    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    for b in range(sc.dim):
        mat = GradedMatrix.zero(sc.n, sc.m)
        for cc, v in sc.c_row(a, b).items():
            mat = mat + sc.basis.elements[cc].scale(-v)
        if not mat.is_zero():
            coeffs[(b,)] = mat
    return GradedForm.of(sc, 1, coeffs)


def frame_forms_from_differentials(sc: StructureConstants) -> List[GradedForm]:
    """Reconstruct every frame 1-form from products E E' ^ dE''.

    Implements the inversion of the element differentials through the
    inverse Killing matrix, with the quadratic prefactor 4(n-m)^2.
    """
    k = sc.dim
    pref = Scalar.of(4 * (sc.n - sc.m) ** 2)
    d_els = [differential_of_element(sc, a) for a in range(k)]
    out = []
    for a in range(k):
        total = GradedForm.zero(sc, 1)
        for b in range(k):
            kab = sc.killing_inv[a][b]
            if not kab:
                continue
            for dd in range(k):
                s_bd = -1 if (sc.parity(b) and sc.parity(dd)) else 1
                for cc in range(k):
                    kcd = sc.killing_inv[cc][dd]
                    if not kcd:
                        continue
                    factor = pref * kab * kcd * s_bd
                    prod = sc.basis.elements[cc] @ sc.basis.elements[b]
                    total = total + wedge_matrix_form(
                        prod.scale(factor), d_els[dd]
                    )
        out.append(total)
    return out
