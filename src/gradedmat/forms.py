"""Graded differential forms over the derivations of M(n|m).

A p-form is a graded-alternating p-linear map from derivations to the
algebra: antisymmetric under swapping two arguments unless both are odd,
where the swap is symmetric.  Forms are written through their coefficients
on the canonical frame monomials

    omega = sum_I  omega_I ^ theta^(I_1) ^ ... ^ theta^(I_p),

with I running over the canonical index tuples of ``indexset`` and
omega_I a matrix.  The frame 1-forms theta^A are the center-valued duals
of the basis derivations; a monomial takes the value

    (theta^(I_1) ^ ... ^ theta^(I_p))(bd_(I_1), ..., bd_(I_p))
        = (-1)^(p''(p''-1)/2) * prod_l N_l!

on its own index tuple (p'' odd entries, multiplicities N_l), the factor
by which evaluation scales a stored coefficient.

A ``GradedForm`` stores, for each canonical key, the entries of omega_I
as a ``GradedMatrix`` stores them (sorted (unit, part, numerator)
triples), all over one positive denominator in lowest terms.  That storage
is unique, so equality is a dict and int comparison; sums, scalings, the
parity split, the wedges, the contraction and both routes of d sum in
Python ints through the integer kernels of ``matrices``, and build each
result through one normalising constructor (``_form``), which divides out
the common gcd and checks every key.  The coefficient matrices
(``coeffs``) are a view derived on first use, for evaluation, coordinates
and printing.  A ``DerivationVector`` stores its coordinates the same way,
(basis index, part, numerator) over one denominator, so the contraction,
L along a derivation, evaluation and the bracket of derivations sum in
ints too; ``coords`` is a Scalar view.  Every form and derivation records
the algebra basis it is written on and every operation refuses one
written on another.

Everything here is exact.  Each operator has one production route, the
frame-generator kernel: ``exterior_derivative_generators`` applies the
column kernel that ``formspace.d_matrix`` writes d_p with, and
``lie_derivative`` the one that ``formspace.lie_matrix`` writes L_a with,
each reading the same per-tuple terms (``_d_tuple``, ``_lie_tuple``).  The
alternating evaluation sum of d (``exterior_derivative``) is kept apart
from the kernel as the independent oracle the tests hold it to; the
evaluation sum of L_a is a reference in the tests alone.  Production code
(``symplectic``, ``bundles``) never runs the evaluation sum; the verify
suites and the tests do.  The symplectic contraction system is factored
once per form, in ``symplectic``, and each of its solutions is checked on
the whole system.  Each route reads its own tables, built once per
``StructureConstants`` and kept in its ``cache`` by ``constants.derived``:
the kernel's (``_kernel_tables``, ``_d_tuple``) and the oracle's one
(``_oracle_tables``), each holding integer numerators over one table
denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .basis import HomogeneousBasis
from .constants import StructureConstants, derived
from .indexset import (
    canonicalize,
    index_parity,
    is_canonical,
    self_evaluation_factor,
    tuple_parity,
)
from .matrices import (
    GradedMatrix,
    IntEntries,
    Parts,
    add_product,
    add_times,
    combined,
    common_divisor,
    divided,
    entries_of,
    gaussian,
    graded_commutator,
    odd_units,
    parity_split,
    rows_of,
    twisted,
)
from .scalars import Scalar

IndexTuple = Tuple[int, ...]


def _same_basis(a: HomogeneousBasis, b: HomogeneousBasis) -> bool:
    return a is b or (a.n, a.m, a.elements) == (b.n, b.m, b.elements)


def _require_basis(a: HomogeneousBasis, b: HomogeneousBasis) -> None:
    if not _same_basis(a, b):
        raise ValueError("forms and derivations are written on different bases")


# ======================================================================
# Derivation vectors
# ======================================================================


class DerivationVector:
    """A derivation in basis coordinates: sum_A x_A bd_A, with bd_A the
    derivations of the elements of ``sl_basis``.

    ``ints`` are the sorted (A, 0 for the real or 1 for the imaginary part,
    numerator) of the nonzero x_A over ``den`` > 0, put in lowest terms on
    construction, so equality compares them.  ``coords`` is a Scalar view.
    Derivations are immutable.
    """

    __slots__ = ("sl_basis", "ints", "den")

    def __init__(self, sl_basis: HomogeneousBasis, ints: Tuple[Tuple[int, int, int], ...],
                 den: int = 1):
        g = common_divisor(den, (ints,))
        object.__setattr__(self, "sl_basis", sl_basis)
        object.__setattr__(self, "ints", tuple(divided(ints, g)))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("DerivationVector is immutable")

    def __eq__(self, other):
        if type(other) is not DerivationVector:
            return NotImplemented
        return (self.den == other.den and self.ints == other.ints
                and self.sl_basis == other.sl_basis)

    def __hash__(self):
        return hash((self.sl_basis, self.ints, self.den))

    @property
    def coords(self) -> Tuple[Scalar, ...]:
        """x_A for every basis index A, as Scalars (a view)."""
        pairs = [[0, 0] for _ in range(self.sl_basis.dim)]
        for a, part, y in self.ints:
            pairs[a][part] = y
        return tuple(Scalar(Fraction(re, self.den), Fraction(im, self.den))
                     for re, im in pairs)

    @staticmethod
    def basis(sc: StructureConstants, a: int) -> "DerivationVector":
        return DerivationVector(sc.basis, ((a, 0, 1),))

    def support(self) -> List[int]:
        return sorted({a for a, _, _ in self.ints})

    def is_zero(self) -> bool:
        return not self.ints

    def homogeneous_parity(self) -> Optional[int]:
        """0 or 1 for homogeneous derivations (0 for zero), None for mixed."""
        parities = {self.sl_basis.parity(a) for a, _, _ in self.ints}
        return None if len(parities) > 1 else max(parities, default=0)

    def __add__(self, other: "DerivationVector") -> "DerivationVector":
        _require_basis(self.sl_basis, other.sl_basis)
        return DerivationVector(self.sl_basis, *combined(((self, 1, 0), (other, 1, 0))))

    def scale(self, s) -> "DerivationVector":
        """s times the derivation, for s an int, a Fraction or a Scalar."""
        a, b, q = gaussian(s)
        return DerivationVector(self.sl_basis, *combined(((self, a, b),), q))


def _part_weights(part: int, x: int) -> Tuple[int, int]:
    """(a, b) with a + i b the real (part 0) or imaginary (part 1) part x."""
    return (0, x) if part else (x, 0)


def derivation_bracket(
    sc: StructureConstants, d1: DerivationVector, d2: DerivationVector
) -> DerivationVector:
    """Graded bracket of two derivations, sum x_a y_b c_(a,b)^cc over the
    coordinate pairs, in ints."""
    _require_basis(sc.basis, d1.sl_basis)
    _require_basis(sc.basis, d2.sl_basis)
    re, im = sums = ({}, {})
    for a, p, x in d1.ints:
        for b, q, y in d2.ints:
            row = sc.c.get((a, b))
            if row:
                # the parts multiply as i * i = -1
                f, acc = (-x * y, re) if p and q else (x * y, im if p or q else re)
                for cc, v in row.items():
                    acc[cc] = acc.get(cc, 0) + f * v
    return DerivationVector(sc.basis, entries_of(sums), d1.den * d2.den * sc.den)


# ======================================================================
# Graded forms
# ======================================================================


class GradedForm:
    """A graded p-form stored as integer numerators over one denominator.

    ``GradedForm(sl_basis, degree, coeffs)`` takes a coefficient matrix per
    canonical key; ``ints`` maps each key with a nonzero coefficient to its
    ``IntEntries`` over the positive denominator ``den``, with no zero
    numerator and gcd(den, every numerator) = 1.  Operations return new
    forms and never change one.
    """

    __slots__ = ("sl_basis", "n", "m", "n_even", "m_odd", "degree", "ints", "den",
                 "_coeffs")

    def __new__(
        cls,
        sl_basis: HomogeneousBasis,
        degree: int,
        coeffs: Mapping[IndexTuple, GradedMatrix],
    ):
        coeffs = {tuple(key): mat for key, mat in coeffs.items()}
        n, m = sl_basis.n, sl_basis.m
        for mat in coeffs.values():
            if (mat.n, mat.m) != (n, m):
                raise ValueError(f"coefficient of shape ({mat.n}|{mat.m}) "
                                 f"in a form over ({n}|{m})")
        den = lcm(*(mat.den for mat in coeffs.values()))
        form = _form(sl_basis, degree, {
            key: [(u, part, y * (den // mat.den)) for u, part, y in mat.ints]
            for key, mat in coeffs.items()
        }, den)
        form._coeffs = {key: mat for key, mat in coeffs.items() if not mat.is_zero()}
        return form

    # ---- constructors -------------------------------------------------

    @staticmethod
    def zero(sc: StructureConstants, degree: int) -> "GradedForm":
        return _form(sc.basis, degree, {}, 1)

    @staticmethod
    def of(
        sc: StructureConstants, degree: int, coeffs: Mapping[IndexTuple, GradedMatrix]
    ) -> "GradedForm":
        return GradedForm(sc.basis, degree, coeffs)

    @staticmethod
    def from_matrix(sc: StructureConstants, mat: GradedMatrix) -> "GradedForm":
        """A 0-form: the matrix itself, keyed by the empty tuple."""
        return GradedForm.of(sc, 0, {(): mat})

    # ---- the coefficient view -----------------------------------------

    @property
    def coeffs(self) -> Dict[IndexTuple, GradedMatrix]:
        """Key -> nonzero coefficient matrix, derived from ``ints`` on first
        use (read only)."""
        got = self._coeffs
        if got is None:
            n, m, den = self.n, self.m, self.den
            got = self._coeffs = {
                key: GradedMatrix.from_ints(n, m, entries, den)
                for key, entries in self.ints.items()
            }
        return got

    # ---- basic structure ----------------------------------------------

    def _require_compatible(self, other: "GradedForm"):
        _require_basis(self.sl_basis, other.sl_basis)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def _sum(self, other: "GradedForm", sign: int) -> "GradedForm":
        """self + sign * other."""
        self._require_compatible(other)
        if not other.ints:
            return self
        if not self.ints and sign == 1:
            return other
        return _combination(self.sl_basis, self.degree, ((self, 1, 0), (other, sign, 0)))

    def __add__(self, other: "GradedForm") -> "GradedForm":
        return self._sum(other, 1)

    def __sub__(self, other: "GradedForm") -> "GradedForm":
        return self._sum(other, -1)

    def __neg__(self) -> "GradedForm":
        return self.scale(-1)

    def scale(self, s) -> "GradedForm":
        """s times the form, for s an int, a Fraction or a Scalar."""
        a, b, q = gaussian(s)
        if (a, b, q) == (1, 0, 1):
            return self
        return _combination(self.sl_basis, self.degree, ((self, a, b),), q)

    def __eq__(self, other):
        if not isinstance(other, GradedForm):
            return NotImplemented
        return (
            self.degree == other.degree and self.den == other.den
            and self.ints == other.ints
            and _same_basis(self.sl_basis, other.sl_basis)
        )

    def __hash__(self):
        raise TypeError("GradedForm is not hashable")

    def is_zero(self) -> bool:
        return not self.ints

    def is_nonzero_multiple_of(self, ref: "GradedForm") -> bool:
        """Whether this form is c ref for a nonzero scalar c.

        With x and y the numerators of ``ref`` and of this form at the first
        unit of ``ref``, where ``ref`` is sure to be nonzero, the test is
        y != 0 and (x / ref.den) self = (y / self.den) ref, in Gaussian
        integers; a zero ``ref`` has no nonzero multiple.
        """
        for key, entries in ref.ints.items():
            x, y = ([sum(z for v, p, z in got if v == entries[0][0] and p == part)
                     for part in (0, 1)] for got in (entries, self.ints.get(key, ())))
            return any(y) and (
                _combination(self.sl_basis, self.degree, ((self, *x),), ref.den)
                == _combination(ref.sl_basis, ref.degree, ((ref, *y),), self.den))
        return False

    def parity_parts(self) -> Tuple["GradedForm", "GradedForm"]:
        """Split into (even, odd) by total parity of coefficient and key."""
        odd = odd_units(self.n, self.m)
        ev: Dict[IndexTuple, IntEntries] = {}
        od: Dict[IndexTuple, IntEntries] = {}
        for key, entries in self.ints.items():
            ev[key], od[key] = parity_split(entries, odd, tuple_parity(key, self.n_even))
        zero = _form(self.sl_basis, self.degree, {}, 1)
        if not any(od.values()):
            return self, zero
        if not any(ev.values()):
            return zero, self
        return (_form(self.sl_basis, self.degree, ev, self.den),
                _form(self.sl_basis, self.degree, od, self.den))

    def homogeneous_parity(self) -> Optional[int]:
        ev, od = self.parity_parts()
        if od.is_zero():
            return 0
        if ev.is_zero():
            return 1
        return None

    def __repr__(self):
        return (
            f"GradedForm(degree={self.degree}, keys={sorted(self.ints)[:4]}"
            f"{'...' if len(self.ints) > 4 else ''})"
        )


def _form(sl_basis: HomogeneousBasis, degree: int,
          ints: Dict[IndexTuple, IntEntries], den: int) -> GradedForm:
    """The form whose coefficient at each key is the matrix ``ints[key]``
    over ``den`` > 0, each key's entries as stored (sorted, no zero
    numerator), put in lowest terms: checks every key, divides out the gcd
    of ``den`` and every numerator and drops the keys with no entry."""
    ne = sl_basis.even_dim
    for key in ints:
        if len(key) != degree:
            raise ValueError(f"key {key} does not match degree {degree}")
        if not is_canonical(key, ne):
            raise ValueError(f"key {key} is not canonical")
    g = common_divisor(den, ints.values())
    form = object.__new__(GradedForm)
    form.sl_basis = sl_basis
    form.n, form.m = sl_basis.n, sl_basis.m
    form.n_even, form.m_odd = ne, sl_basis.odd_dim
    form.degree = degree
    form.ints = {key: divided(entries, g) for key, entries in ints.items() if entries}
    form.den = den // g
    form._coeffs = None
    return form


def _normal(sl_basis: HomogeneousBasis, degree: int,
            parts: Dict[IndexTuple, Parts], den: int) -> GradedForm:
    """The form whose coefficient at each key is the matrix of the sums
    ``parts[key]`` over ``den`` > 0, in lowest terms (``_form``)."""
    return _form(sl_basis, degree,
                 {key: entries_of(sums) for key, sums in parts.items()}, den)


def _combination(sl_basis: HomogeneousBasis, degree: int,
                 terms: Sequence[Tuple[GradedForm, int, int]], q: int = 1) -> GradedForm:
    """The sum of (a + i b) / q times w over the (w, a, b) of ``terms``,
    forms of ``degree``, in ints over the lcm of their denominators times q."""
    den = lcm(*(w.den for w, _, _ in terms))
    parts: Dict[IndexTuple, Parts] = {}
    for w, a, b in terms:
        if not (a or b):
            continue
        f = den // w.den
        for key, entries in w.ints.items():
            add_times(_sums_at(parts, key), entries, a * f, b * f)
    return _normal(sl_basis, degree, parts, den * q)


def _sums_at(parts: Dict[IndexTuple, Parts], key: IndexTuple) -> Parts:
    """The sums of ``key`` in ``parts``, made empty at its first use."""
    got = parts.get(key)
    if got is None:
        got = parts[key] = ({}, {})
    return got


# ======================================================================
# Evaluation
# ======================================================================


def _value_weight(
    form: GradedForm, indices: Sequence[int]
) -> Tuple[Optional[IndexTuple], int]:
    """The value on basis derivations as (stored key, integer factor).

    The value is ``factor`` times the coefficient at ``key``; a key of None
    means zero.
    """
    # canonical order is plain ascending order, and stored keys are
    # canonical, so a sorted lookup finds the coefficient (or its absence)
    # before the sign-tracking sort runs
    if tuple(sorted(indices)) not in form.ints:
        return None, 0
    key, sign = canonicalize(indices, form.n_even)
    return key, sign * self_evaluation_factor(key, form.n_even)


def evaluate_on_basis(form: GradedForm, indices: Sequence[int]) -> GradedMatrix:
    """Value on a tuple of basis derivations (any order, repeats allowed)."""
    if len(indices) != form.degree:
        raise ValueError("argument count does not match degree")
    key, factor = _value_weight(form, indices)
    if key is None:
        return GradedMatrix.zero(form.n, form.m)
    return form.coeffs[key].scale(factor)


def evaluate(form: GradedForm, derivations: Sequence[DerivationVector]) -> GradedMatrix:
    """Multilinear evaluation on arbitrary derivation vectors: the value on
    each basis tuple weighted by the product a + i b of one coordinate part
    of each derivation, in ints over the product of the denominators."""
    if len(derivations) != form.degree:
        raise ValueError("argument count does not match degree")
    for dv in derivations:
        _require_basis(form.sl_basis, dv.sl_basis)
    sums: Parts = ({}, {})
    value = _ValueWeights(form)  # each basis tuple once, whatever parts reach it

    def rec(pos: int, a: int, b: int, picked: List[int]):
        if pos == len(derivations):
            key, f = value[tuple(picked)]
            if key is not None:
                add_times(sums, form.ints[key], f * a, f * b)
            return
        for i, part, x in derivations[pos].ints:
            picked.append(i)
            # (a + i b) times x, or times i x for an imaginary part
            rec(pos + 1, *((-b * x, a * x) if part else (a * x, b * x)), picked)
            picked.pop()

    rec(0, 1, 0, [])
    den = form.den * prod(dv.den for dv in derivations)
    return GradedMatrix.from_ints(form.n, form.m, entries_of(sums), den)


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
    _require_basis(w1.sl_basis, w2.sl_basis)
    k, ne = w1.n + w1.m, w1.n_even
    odd = odd_units(w1.n, w1.m)
    plain = {k2: rows_of(e2, k) for k2, e2 in w2.ints.items()}
    twist = {k2: rows_of(twisted(e2, odd), k) for k2, e2 in w2.ints.items()}
    parts: Dict[IndexTuple, Parts] = {}
    for k1, e1 in w1.ints.items():
        rows = twist if tuple_parity(k1, ne) else plain
        for k2 in w2.ints:
            canon = canonicalize(k1 + k2, ne)
            if canon is None:
                continue
            key, csign = canon
            add_product(_sums_at(parts, key), e1, rows[k2], k, csign)
    return _normal(w1.sl_basis, w1.degree + w2.degree, parts, w1.den * w2.den)


def wedge_matrix_form(mat: GradedMatrix, form: GradedForm) -> GradedForm:
    """Left module action: the 0-form ``mat`` wedged onto ``form``."""
    return wedge(GradedForm(form.sl_basis, 0, {(): mat}), form)


def wedge_form_matrix(form: GradedForm, mat: GradedMatrix) -> GradedForm:
    """Right module action, with the frame factors passing the matrix."""
    return wedge(form, GradedForm(form.sl_basis, 0, {(): mat}))


# ======================================================================
# Cartan calculus
# ======================================================================


def interior_product(d: DerivationVector, form: GradedForm) -> GradedForm:
    """Contraction with a derivation in the first argument slot.

    The coefficient at K is sum_a x_a w(a, K) over the self-evaluation
    factor of K, summed in ints over the derivation's denominator times the
    lcm of those factors.
    """
    _require_basis(d.sl_basis, form.sl_basis)
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")
    keys = _interior_support(d, form)
    sef = {key: self_evaluation_factor(key, form.n_even) for key in keys}
    div = lcm(*sef.values())
    parts: Dict[IndexTuple, Parts] = {}
    value = _ValueWeights(form)
    for key in keys:
        parts[key] = ({}, {})
        mult = div // sef[key]
        for a, part, x in d.ints:
            got, f = value[(a,) + key]
            if got is not None:
                add_times(parts[key], form.ints[got], *_part_weights(part, f * mult * x))
    return _normal(form.sl_basis, form.degree - 1, parts, form.den * d.den * div)


def _interior_support(d: DerivationVector, form: GradedForm) -> List[IndexTuple]:
    """The canonical (p-1)-tuples the contraction can reach, in sorted
    order: each key K with one entry a of ``d.support()`` removed."""
    sup = set(d.support())
    return sorted({key[:j] + key[j + 1:] for key in form.ints
                   for j, a in enumerate(key) if a in sup})


# ======================================================================
# The evaluation route: the independent oracle
# ======================================================================
#
# Each output tuple takes its value from the alternating evaluation sum,
# term for term.  Every term is an integer weight (canonical sign times
# self-evaluation factor, times a structure-constant numerator) on a
# stored coefficient M_K or on a bracket [E_b, M_K], so the weights are
# summed first and each tuple's entries are summed once in ints.  The
# output is put over the form's denominator times the table denominator
# times the lcm of the output tuples' self-evaluation factors, so each
# tuple's weights are multiplied by that lcm over its own factor.  Only the
# tuples that some stored key can reach are visited.
#
# The sum runs once over the whole form, whatever its parity.  A term's
# sign depends on the parity of the coefficient only where an odd index
# passes it: in d, an odd E_(I_l) bracketed with w.  There, an entry of M_K
# of total parity q (its unit's plus K's) enters with (-1)^q, so the term
# reads the parity-twisted coefficient (-1)^|K| ``twisted(M_K)`` in place
# of M_K.  The structure-constant terms of d carry no parity sign.
#
# The route reads only its own table (``_oracle_tables``), built once per
# constants object from ``sc.c`` and the basis elements: it shares no table
# with the column kernel below, and it brackets by its own entry-wise rule
# (``_unit_brackets``), not by ``graded_commutator``.  The sum
# (``_evaluation_sum``) takes the per-tuple weight formula as an argument:
# ``exterior_derivative`` gives that of d, and the tests' reference Lie
# derivative that of L_a.  Within one call each argument tuple is
# canonicalised once (``_ValueWeights``) and each twisted M_K is made once.
# A bracket term [E_b, M_K] is added straight into its output tuple's sums,
# one table row of ``bracket[b]`` per entry of M_K: its output tuple holds
# K and b, so no bracket term recurs across output tuples.

# (b, K, twist) -> weight of [E_b, M_K] in one tuple's value, an integer
# over the oracle's table denominator; b None for M_K itself, twist 1 for
# the parity-twisted M_K
Weights = Dict[Tuple[Optional[int], IndexTuple, int], int]


def _add(acc: Dict, i, v) -> None:
    cur = acc.get(i)
    acc[i] = v if cur is None else cur + v


def _add_rows(parts: Dict[IndexTuple, Parts], key: IndexTuple,
              table: List[List[Tuple[int, int]]], entries: IntEntries, f: int) -> None:
    """Add f times each entry (u, part, y) of ``entries`` times the (i, v)
    of the row ``table[u]`` into the sums of ``key`` in ``parts``, a bracket
    of the matrix, one table row per entry.  The sums are made at the first
    nonempty row, so a coefficient that no row reaches adds no empty key."""
    sums = None
    for u, part, y in entries:
        row = table[u]
        if row:
            if sums is None:
                sums = _sums_at(parts, key)
            acc = sums[part]
            fy = f * y
            for i, v in row:
                acc[i] = acc.get(i, 0) + fy * v


def _unit_brackets(e: GradedMatrix, n: int) -> List[List[Tuple[int, int]]]:
    """[e, E_u] for each unit matrix E_u, for an integral e: the list at u
    holds (v, x) over the nonzero entries x at unit v.

    Entry by entry as in ``matrices.graded_commutator``: with E_u at
    (i, t), e E_u has e_ri at (r, t), and E_u e has e_tj at (i, j), which
    enters with sign + when E_u and e_tj are both odd, else -.
    """
    k = e.n + e.m
    if e.den != 1 or any(part for _, part, _ in e.ints):
        raise ValueError(f"basis element {e} has an entry that is not an integer")
    erows: Dict[int, List[Tuple[int, int]]] = {}
    ecols: Dict[int, List[Tuple[int, int]]] = {}
    for u, _, x in e.ints:
        r, j = divmod(u, k)
        erows.setdefault(r, []).append((j, x))
        ecols.setdefault(j, []).append((r, x))
    out = []
    for i in range(k):
        for t in range(k):
            acc: Dict[int, int] = {}
            for r, x in ecols.get(i, ()):
                _add(acc, r * k + t, x)
            odd_u = (i < n) != (t < n)
            for j, x in erows.get(t, ()):
                _add(acc, i * k + j, x if odd_u and (t < n) != (j < n) else -x)
            out.append([(v, x) for v, x in acc.items() if x])
    return out


class _OracleTables(NamedTuple):
    """Integer tables read by the evaluation oracle.

    ``c[x][y]`` lists (cc, c_(x,y)^cc * den), the real structure constants
    as integer numerators over the one denominator ``den``;
    ``bracket[b]`` is ``_unit_brackets`` of E_b.  The reach of the d sum:
    ``pairs[cc]`` lists the sorted (x, y) with c_(x,y)^cc != 0.
    """

    den: int
    c: List[List[List[Tuple[int, int]]]]
    bracket: List[List[List[Tuple[int, int]]]]
    pairs: List[List[Tuple[int, int]]]


@derived("oracle_tables")
def _oracle_tables(sc: StructureConstants) -> _OracleTables:
    """The oracle's tables, built on first use."""
    c = [[[] for _ in range(sc.dim)] for _ in range(sc.dim)]
    pairs = [set() for _ in range(sc.dim)]
    for (x, y), row in sc.c.items():
        c[x][y] = list(row.items())
        for cc in row:
            pairs[cc].add((min(x, y), max(x, y)))
    return _OracleTables(
        sc.den, c, [_unit_brackets(e, sc.n) for e in sc.basis.elements],
        [sorted(got) for got in pairs],
    )


class _ValueWeights(dict):
    """``_value_weight`` on one form, memoised for one call of the oracle,
    of ``evaluate`` or of ``interior_product``.

    Keyed by the argument tuple as given, not sorted: the canonical sign
    depends on the order.
    """

    def __init__(self, form: GradedForm):
        super().__init__()
        self.form = form

    def __missing__(self, args: IndexTuple) -> Tuple[Optional[IndexTuple], int]:
        got = self[args] = _value_weight(self.form, args)
        return got


def _d_support(sc: StructureConstants, form: GradedForm) -> List[IndexTuple]:
    """The canonical (p+1)-tuples the d sum can reach, in sorted order.

    A bracket term drops one index of the tuple and a structure-constant
    term merges a pair (x, y) into one cc; so every reached tuple is a key
    K with one index b added, or K with one entry cc split into such a pair.
    """
    pairs = _oracle_tables(sc).pairs
    out = set()
    for key in form.ints:
        for b in range(sc.dim):
            out.add(tuple(sorted(key + (b,))))
        for j, cc in enumerate(key):
            rest = key[:j] + key[j + 1:]
            for xy in pairs[cc]:
                out.add(tuple(sorted(rest + xy)))
    return sorted(t for t in out if is_canonical(t, sc.even_dim))


def _evaluation_sum(
    sc: StructureConstants, form: GradedForm, degree: int, keys: List[IndexTuple],
    weights_of: Callable[[IndexTuple, _ValueWeights], Weights],
) -> GradedForm:
    """The form of ``degree`` whose coefficient at each of ``keys`` sums the
    terms of ``form`` weighted by ``weights_of(key, value)`` (``value`` the
    call's ``_ValueWeights``), over the form's denominator times the table
    one times the lcm of the keys' self-evaluation factors."""
    t = _oracle_tables(sc)
    value = _ValueWeights(form)
    odd = odd_units(form.n, form.m)
    twists: Dict[IndexTuple, IntEntries] = {}  # K -> (-1)^|K| twisted(M_K)
    sef = [self_evaluation_factor(key, form.n_even) for key in keys]
    div = lcm(*sef)
    out: Dict[IndexTuple, Parts] = {}
    for key, f in zip(keys, sef):
        parts = out[key] = ({}, {})
        mult = div // f
        for (b, got, twist), w in weights_of(key, value).items():
            if not w:
                continue
            entries = form.ints[got]
            if twist:
                if got not in twists:
                    entries = twisted(entries, odd)
                    if tuple_parity(got, form.n_even):
                        entries = [(u, part, -y) for u, part, y in entries]
                    twists[got] = entries
                entries = twists[got]
            if b is None:
                add_times(parts, entries, w * mult)
            else:
                _add_rows(out, key, t.bracket[b], entries, w * mult)
    return _normal(form.sl_basis, degree, out, form.den * t.den * div)


def exterior_derivative(sc: StructureConstants, form: GradedForm) -> GradedForm:
    """Exterior derivative via the alternating evaluation formula, one sum
    over the whole form whatever its parity.

    (dw)(I) = sum_l sign_l [E_(I_l), w(I without I_l)]
              + sum_(l<l') sign_(l,l') sum_cc c_(I_l,I_l')^cc w(.., cc, ..).
    """
    _require_basis(sc.basis, form.sl_basis)
    ne = form.n_even
    t = _oracle_tables(sc)
    c, den = t.c, t.den

    def weights_of(key: IndexTuple, value: _ValueWeights) -> Weights:
        weights: Weights = {}
        degs = [index_parity(i, ne) for i in key]
        acc = 0
        for l, deg in enumerate(degs):
            got, f = value[key[:l] + key[l + 1:]]
            if got is not None:
                # an odd E_(I_l) also passes the coefficient: the twisted M_K
                exp = l + deg * acc
                _add(weights, (key[l], got, deg), -f * den if exp % 2 else f * den)
            acc += deg
        for l, x in enumerate(key):
            between = 0  # odd entries strictly between l and l'
            for lp in range(l + 1, len(key)):
                sign = -1 if (lp + degs[lp] * between) % 2 else 1
                for cc, v in c[x][key[lp]]:
                    args = key[:l] + (cc,) + key[l + 1: lp] + key[lp + 1:]
                    got, f = value[args]
                    if got is not None:
                        _add(weights, (None, got, 0), sign * f * v)
                between += degs[lp]
        return weights

    return _evaluation_sum(sc, form, form.degree + 1, _d_support(sc, form), weights_of)


# ======================================================================
# The generator route: one column kernel for forms and for d_p and L_a
# ======================================================================
#
# The paper's frame-generator formulas, for the monomial E_rc theta^I:
#   d(E_rc theta^I) = sum_b -[E_rc, E_b] theta^b ^ theta^I
#                     + sum_j (-1)^j E_rc theta^I_1 .. d theta^I_j .. theta^I_p,
#   d theta^A       = 1/2 sum_(b,cc) c_(b,cc)^A theta^cc ^ theta^b,
# and, by the graded Leibniz rule with
# L_a theta^A = -(-1)^(|a||A|) sum_D c_(a,D)^A theta^D,
#   L_a(E_rc theta^I) = (-1)^(|a||rc|) ( -[E_rc, E_a] theta^I
#       + sum_j (-1)^(|a|(|I_1|+..+|I_j|))
#               E_rc theta^I_1 .. L_a theta^I_j .. theta^I_p ),
# each frame monomial moved into canonical order by ``canonicalize``.  What
# d and L_a do to the frame monomial theta^I alone is written once each
# (``_d_tuple``, ``_lie_tuple``), and read both by the matrices of
# ``formspace`` and by the routes on forms below.


class _KernelTables(NamedTuple):
    """Structure-constant tables read by the column kernel.

    Every value is an integer numerator over the one table denominator
    ``den``.  ``comm[b][r * k + c]`` lists (r' * k + c', value) over the
    nonzero entries of -[E_rc, E_b]; ``frame[A]`` lists (cc, b,
    c_(b,cc)^A / 2), the terms of d theta^A; ``coad[a][A]`` lists (D,
    c_(a,D)^A), the frame forms that L_a theta^A reaches.
    """

    den: int
    comm: List[List[List[Tuple[int, int]]]]
    frame: List[List[Tuple[int, int, int]]]
    coad: List[List[List[Tuple[int, int]]]]


@derived("column_kernel")
def _kernel_tables(sc: StructureConstants) -> _KernelTables:
    """The kernel tables, built on first use.

    The table denominator is the lcm of the reduced denominators of the
    values, the entries of the brackets and c / 2 (that of c divides it).
    """
    k = sc.n + sc.m
    units = [GradedMatrix.unit(sc.n, sc.m, r, c) for r in range(k) for c in range(k)]
    brackets = [[graded_commutator(u, e) for u in units] for e in sc.basis.elements]
    if any(part for tab in brackets for mat in tab for _, part, _ in mat.ints):
        raise ValueError("a bracket of a matrix unit and a basis element is not real")
    half = 2 * sc.den  # c / 2 is over 2 den
    den = lcm(*(mat.den // gcd(y, mat.den) for tab in brackets for mat in tab
                for _, _, y in mat.ints),
              *(half // gcd(v, half) for row in sc.c.values() for v in row.values()))
    frame = [[] for _ in range(sc.dim)]
    coad = [[[] for _ in range(sc.dim)] for _ in range(sc.dim)]
    for (b, cc), row in sc.c.items():
        for A, v in row.items():
            frame[A].append((cc, b, v * den // half))
            coad[b][A].append((cc, v * den // sc.den))
    return _KernelTables(
        den,
        [[[(u, -y * den // mat.den) for u, _, y in mat.ints] for mat in tab]
         for tab in brackets],
        frame, coad,
    )


@derived("d_tuple")
def _d_tuple(sc: StructureConstants, key: IndexTuple) -> tuple:
    """What d does to the frame monomial theta^I, built on first use.

    ``moved`` lists (``comm[b]``, canonical tuple of (b,) + I, its sign);
    ``frame`` lists the nonzero (tuple, summed 1/2 c * sign), unit kept,
    with values over the table denominator as in ``_KernelTables``.
    """
    t = _kernel_tables(sc)
    ne = sc.even_dim
    moved = []
    for b in range(sc.dim):
        canon = canonicalize((b,) + key, ne)
        if canon is not None:
            moved.append((t.comm[b], canon[0], canon[1]))
    frame: Dict[IndexTuple, int] = {}
    for j, A in enumerate(key):
        sign_j = -1 if j % 2 else 1
        for cc, b, v in t.frame[A]:
            canon = canonicalize(key[:j] + (cc, b) + key[j + 1:], ne)
            if canon is not None:
                _add(frame, canon[0], sign_j * canon[1] * v)
    return moved, [(out, v) for out, v in frame.items() if v]


def exterior_derivative_generators(
    sc: StructureConstants, form: GradedForm
) -> GradedForm:
    """Exterior derivative through the frame generator formulas.

    The column kernel of ``formspace.d_matrix`` applied to a form, real
    and imaginary parts summed apart (the structure constants are real),
    in ints over the form's denominator times the table one.
    ``exterior_derivative`` is the independent oracle the tests hold it to.
    """
    _require_basis(sc.basis, form.sl_basis)
    den = _kernel_tables(sc).den
    parts: Dict[IndexTuple, Parts] = {}  # output tuple -> its sums
    for key, entries in form.ints.items():
        moved, frame = _d_tuple(sc, key)
        for table, out, sign in moved:
            _add_rows(parts, out, table, entries, sign)
        for out, v in frame:
            add_times(_sums_at(parts, out), entries, v)
    return _normal(form.sl_basis, form.degree + 1, parts, form.den * den)


def _lie_tuple(sc: StructureConstants, a: int,
               key: IndexTuple) -> List[Tuple[IndexTuple, int]]:
    """The frame terms of L_a on the frame monomial theta^I: the nonzero
    (canonical tuple, summed sign_j c_(a,D)^A * canonical sign), unit kept
    and the odd-unit sign (-1)^(|a||rc|) left out, with values over the
    table denominator as in ``_KernelTables``."""
    t = _kernel_tables(sc)
    ne, pa = sc.even_dim, sc.parity(a)
    frame: Dict[IndexTuple, int] = {}
    passed = 0
    for j, A in enumerate(key):
        passed += A >= ne
        sign_j = 1 if (pa and passed % 2) else -1
        for D, v in t.coad[a][A]:
            canon = canonicalize(key[:j] + (D,) + key[j + 1:], ne)
            if canon is not None:
                _add(frame, canon[0], sign_j * canon[1] * v)
    return [(out, v) for out, v in frame.items() if v]


def lie_derivative(
    sc: StructureConstants, d: DerivationVector, form: GradedForm
) -> GradedForm:
    """Lie derivative along an arbitrary derivation, through the column
    kernel of ``formspace.lie_matrix``.

    Each coordinate (a, part, x) of ``d`` weights L_a of every monomial
    E_u theta^K, the bracket term -[E_u, E_a] theta^K and the frame terms
    of ``_lie_tuple``, by x or i x; summed in ints over the form's, the
    table's and the derivation's denominators.
    """
    _require_basis(sc.basis, d.sl_basis)
    _require_basis(sc.basis, form.sl_basis)
    t = _kernel_tables(sc)
    odd = odd_units(form.n, form.m)
    parts: Dict[IndexTuple, Parts] = {}  # output tuple -> its sums
    for a, part, x in d.ints:
        flip = sc.parity(a)
        for key, entries in form.ints.items():
            # x or i x times the entries, the odd units negated for an odd a
            weighted = [(u, p ^ part, -x * y if (flip & odd[u]) ^ (part & p) else x * y)
                        for u, p, y in entries]
            _add_rows(parts, key, t.comm[a], weighted, 1)
            for out, v in _lie_tuple(sc, a, key):
                add_times(_sums_at(parts, out), weighted, v)
    return _normal(form.sl_basis, form.degree, parts, form.den * t.den * d.den)


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
    # the inverse Killing matrix is g_inv / (n-m)^2, so the prefactor
    # 4 (n-m)^2 times two of its entries is 4 h_ab h_cd / ((n-m)^2 h_den^2)
    # for g_inv = h / h_den; the wedge is linear in the matrix, so the
    # products are summed in ints per dE_dd before one wedge each
    h, h_den = sc.g_inv, sc.g_inv_den
    den = (sc.n - sc.m) ** 2 * h_den * h_den
    elements = sc.basis.elements
    d_els = [differential_of_element(sc, a) for a in range(k)]
    out = []
    for a in range(k):
        total = GradedForm.zero(sc, 1)
        for dd in range(k):
            terms = [(elements[cc] @ elements[b],
                      4 * h[a][b] * h[cc][dd] * (-1 if sc.parity(b) and sc.parity(dd) else 1),
                      0)
                     for b in range(k) if h[a][b] for cc in range(k) if h[cc][dd]]
            if terms:
                total = total + wedge_matrix_form(
                    GradedMatrix.from_ints(sc.n, sc.m, *combined(terms, den)), d_els[dd])
        out.append(total)
    return out
