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

Everything here is exact.  The exterior derivative has two routes: the
frame-generator route (``exterior_derivative_generators``) applies the
column kernel that ``formspace.d_matrix`` writes d_p with, and the
alternating evaluation sum (``exterior_derivative``) is kept apart from it
as the independent oracle the tests hold it to.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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

    def parity_parts(self) -> Tuple["GradedForm", "GradedForm"]:
        """Split into (even, odd) by total parity of coefficient and key."""
        ev: Dict[IndexTuple, GradedMatrix] = {}
        od: Dict[IndexTuple, GradedMatrix] = {}
        for key, mat in self.coeffs.items():
            me, mo = mat.parity_decompose()
            if tuple_parity(key, self.n_even) == 0:
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


# ======================================================================
# The generator route: one column kernel for forms and for d_p
# ======================================================================
#
# The paper's frame-generator formulas, for the monomial E_rc theta^I:
#   d(E_rc theta^I) = sum_b -[E_rc, E_b] theta^b ^ theta^I
#                     + sum_j (-1)^j E_rc theta^I_1 .. d theta^I_j .. theta^I_p,
#   d theta^A       = 1/2 sum_(b,cc) c_(b,cc)^A theta^cc ^ theta^b,
# each frame monomial moved into canonical order by ``canonicalize``.


@dataclass(frozen=True)
class _KernelTables:
    """Structure-constant tables read by the column kernel.

    ``comm[b][r * k + c]`` lists (r' * k + c', value) over the nonzero
    entries of -[E_rc, E_b]; ``frame[A]`` lists (cc, b, c_(b,cc)^A / 2),
    the terms of d theta^A; ``coad[a][A]`` lists (D, c_(a,D)^A), the frame
    forms that L_a theta^A reaches.
    """

    comm: List[List[List[Tuple[int, Fraction]]]]
    frame: List[List[Tuple[int, int, Fraction]]]
    coad: List[List[List[Tuple[int, Fraction]]]]


def _real(v: Scalar) -> Fraction:
    if v.im:
        raise AssertionError(f"structure data {v} is not real")
    return v.re


def _kernel_tables(sc: StructureConstants) -> _KernelTables:
    """The kernel tables, built on first use and kept in ``sc.cache``."""
    got = sc.cache.get(("column_kernel",))
    if got is not None:
        return got
    k = sc.n + sc.m
    units = [GradedMatrix.unit(sc.n, sc.m, r, c) for r in range(k) for c in range(k)]
    comm = [
        [[(i * k + j, -_real(x)) for i, j, x in graded_commutator(u, e).nonzeros()]
         for u in units]
        for e in sc.basis.elements
    ]
    frame = [[] for _ in range(sc.dim)]
    coad = [[[] for _ in range(sc.dim)] for _ in range(sc.dim)]
    for (b, cc), row in sc.c.items():
        for A, v in row.items():
            f = _real(v)
            frame[A].append((cc, b, f / 2))
            coad[b][A].append((cc, f))
    got = _KernelTables(comm, frame, coad)
    sc.cache[("column_kernel",)] = got
    return got


def _add(acc: Dict, i, v: Fraction) -> None:
    cur = acc.get(i)
    acc[i] = v if cur is None else cur + v


def _d_tuple(sc: StructureConstants, key: IndexTuple) -> tuple:
    """What d does to the frame monomial theta^I, kept in ``sc.cache``.

    ``moved`` lists (``comm[b]``, canonical tuple of (b,) + I, its sign);
    ``frame`` lists the nonzero (tuple, summed 1/2 c * sign), unit kept.
    """
    ck = ("d_tuple", key)
    got = sc.cache.get(ck)
    if got is not None:
        return got
    t = _kernel_tables(sc)
    ne = sc.even_dim
    moved = []
    for b in range(sc.dim):
        canon = canonicalize((b,) + key, ne)
        if canon is not None:
            moved.append((t.comm[b], canon[0], canon[1]))
    frame: Dict[IndexTuple, Fraction] = {}
    for j, A in enumerate(key):
        sign_j = -1 if j % 2 else 1
        for cc, b, v in t.frame[A]:
            canon = canonicalize(key[:j] + (cc, b) + key[j + 1:], ne)
            if canon is not None:
                _add(frame, canon[0], sign_j * canon[1] * v)
    got = (moved, [(out, v) for out, v in frame.items() if v])
    sc.cache[ck] = got
    return got


def exterior_derivative_generators(
    sc: StructureConstants, form: GradedForm
) -> GradedForm:
    """Exterior derivative through the frame generator formulas.

    The column kernel of ``formspace.d_matrix`` applied to a form, real
    and imaginary parts summed apart (the structure constants are real).
    ``exterior_derivative`` is the independent oracle the tests hold it to.
    """
    k = sc.n + sc.m
    # output tuple -> (real part, imaginary part), each unit -> sum
    parts: Dict[IndexTuple, Tuple[Dict[int, Fraction], Dict[int, Fraction]]] = {}
    for key, mat in form.coeffs.items():
        moved, frame = _d_tuple(sc, key)
        # (unit, 0 for the real part or 1 for the imaginary part, value)
        entries = [(r * k + c, part, y) for r, c, x in mat.nonzeros()
                   for part, y in enumerate((x.re, x.im)) if y]
        for table, out, sign in moved:
            acc = parts.setdefault(out, ({}, {}))
            for u, part, y in entries:
                f = y if sign == 1 else -y
                for i, v in table[u]:
                    _add(acc[part], i, f * v)
        for out, v in frame:
            acc = parts.setdefault(out, ({}, {}))
            for u, part, y in entries:
                _add(acc[part], u, y * v)
    coeffs: Dict[IndexTuple, GradedMatrix] = {}
    for out, (re, im) in parts.items():
        rows = [[ZERO] * k for _ in range(k)]
        for i in re.keys() | im.keys():
            rows[i // k][i % k] = Scalar(re.get(i, 0), im.get(i, 0))
        coeffs[out] = GradedMatrix(form.n, form.m, tuple(map(tuple, rows)))
    return GradedForm(form.n, form.m, form.n_even, form.m_odd, form.degree + 1, coeffs)


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
    """d of a basis element: -sum_b [E_a, E_b] theta^b."""
    element = GradedForm.from_matrix(sc, sc.basis.elements[a])
    return exterior_derivative_generators(sc, element)


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
