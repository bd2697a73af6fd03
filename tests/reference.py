"""Reference implementations and fixtures that only the tests call: code
that no command runs and that is not public API.  Imports no test module."""
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Sequence, Tuple

from gradedmat import linalg
from gradedmat.basis import HomogeneousBasis
from gradedmat.bundles import Connection, fm_sub, fm_wedge
from gradedmat.cohomology import ensure_body_adapted
from gradedmat.constants import StructureConstants
from gradedmat.forms import (DerivationVector, GradedForm, Weights, _add, _combination,
                             _evaluation_sum, _oracle_tables, _part_weights, _require_basis,
                             _ValueWeights, wedge, wedge_matrix_form)
from gradedmat.indexset import (canonicalize, enumerate_multi_indices, index_parity,
                                is_canonical, self_evaluation_factor)
from gradedmat.matrices import (GradedMatrix, combined, gaussian, graded_commutator,
                                odd_units, twisted)
from gradedmat.scalars import Scalar

IndexTuple = Tuple[int, ...]


def from_rows(n: int, m: int, rows: Sequence[Sequence]) -> GradedMatrix:
    k = n + m
    if len(rows) != k or any(len(r) != k for r in rows):
        raise ValueError(f"expected {k}x{k} rows for shape ({n}|{m})")
    return GradedMatrix(n, m, (
        (i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)
    ))


def parity_twist(mat: GradedMatrix) -> GradedMatrix:
    """The even part minus the odd part."""
    return GradedMatrix.from_ints(mat.n, mat.m, twisted(mat.ints, odd_units(mat.n, mat.m)),
                                  mat.den)


def trace(mat: GradedMatrix) -> Scalar:
    re, im = mat.diagonal_sum(False)
    return Scalar(Fraction(re, mat.den), Fraction(im, mat.den))


def adjoint_action(e: GradedMatrix, target: GradedMatrix) -> GradedMatrix:
    """The derivation attached to ``e``: the graded commutator with it."""
    return graded_commutator(e, target)


def derivation_dimension(basis: HomogeneousBasis) -> Tuple[int, int]:
    """Exact dimensions (even, odd) of the derivations the basis generates.

    Builds the matrix of E -> (adjoint action on all matrix units) and
    computes its exact rank; asserts the map is injective, so the answer
    equals (n', m').
    """
    n, m = basis.n, basis.m
    k = n + m
    units = [GradedMatrix.unit(n, m, i, j) for i in range(k) for j in range(k)]

    def columns(indices):
        # column a: [E_a, u] for every unit u, one after another, over one
        # denominator
        cols = []
        for a in indices:
            images = [adjoint_action(basis.elements[a], u) for u in units]
            den = lcm(*(im.den for im in images))
            cols.append([(t * k * k + v, part, y * (den // im.den))
                         for t, im in enumerate(images) for v, part, y in im.ints])
        return cols

    even_idx = [a for a in range(basis.dim) if basis.parity(a) == 0]
    odd_idx = [a for a in range(basis.dim) if basis.parity(a) == 1]
    even_rank = linalg.factor(columns(even_idx)).rank
    odd_rank = linalg.factor(columns(odd_idx)).rank
    if even_rank != len(even_idx) or odd_rank != len(odd_idx):
        raise AssertionError("adjoint map has a kernel on the traceless subalgebra")
    return even_rank, odd_rank


def extraction_prefactor(indices: Sequence[int], n_even: int) -> Fraction:
    """Factor turning the raw value on a canonical tuple into a coefficient."""
    return Fraction(1, self_evaluation_factor(indices, n_even))


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


def from_coords(sc: StructureConstants, coords: Sequence) -> DerivationVector:
    """The derivation with x_A = coords[A], each an int, a Fraction or a Scalar."""
    values = [gaussian(x) for x in coords]
    if len(values) != sc.dim:
        raise ValueError("coordinate vector has wrong length")
    den = lcm(*(q for _, _, q in values))
    return DerivationVector(sc.basis, tuple(
        (a, part, y * (den // q)) for a, (re, im, q) in enumerate(values)
        for part, y in ((0, re), (1, im)) if y), den)


def apply_derivation(
    sc: StructureConstants, d: DerivationVector, mat: GradedMatrix
) -> GradedMatrix:
    """The derivation acting on an algebra element: sum_a x_a [E_a, mat]."""
    _require_basis(sc.basis, d.sl_basis)
    brackets = {a: graded_commutator(sc.basis.elements[a], mat) for a in d.support()}
    return GradedMatrix.from_ints(sc.n, sc.m, *combined(
        ((brackets[a], *_part_weights(p, x)) for a, p, x in d.ints), d.den))


# ---- the Lie derivative by the evaluation sum ----
#
# The reference the column kernel of ``forms.lie_derivative`` and
# ``formspace.lie_matrix`` is held to: the alternating evaluation sum of
# ``forms._evaluation_sum``, reading only the oracle's tables, with the
# weight formula of L_a.


def lie_moves(sc: StructureConstants, a: int) -> List[List[int]]:
    """The reach of L_a: the list at cc holds the x with c_(a,x)^cc != 0."""
    moves = [[] for _ in range(sc.dim)]
    for x, row in enumerate(_oracle_tables(sc).c[a]):
        for cc, _ in row:
            moves[cc].append(x)
    return moves


def lie_support(sc: StructureConstants, a: int, form: GradedForm) -> List[IndexTuple]:
    """The canonical p-tuples the L_a sum can reach, in sorted order: each
    key K itself, and K with one entry cc replaced by an x with
    c_(a,x)^cc != 0."""
    moves = lie_moves(sc, a)
    out = set(form.ints)
    for key in form.ints:
        for j, cc in enumerate(key):
            for x in moves[cc]:
                out.add(tuple(sorted(key[:j] + (x,) + key[j + 1:])))
    return sorted(t for t in out if is_canonical(t, sc.even_dim))


def lie_basis_by_evaluation(sc: StructureConstants, a: int, form: GradedForm) -> GradedForm:
    """Lie derivative along the basis derivation a, one sum over the form.

    (L_a w)(I) = [E_a, w(I)] - sum_l sign_l sum_cc c_(a,I_l)^cc w(.., cc, ..);
    an odd E_a also passes the coefficient in the structure-constant terms,
    which read the parity-twisted M_K there.
    """
    pa = sc.parity(a)
    ne = form.n_even
    t = _oracle_tables(sc)
    ca, den = t.c[a], t.den

    def weights_of(key: IndexTuple, value: _ValueWeights) -> Weights:
        weights: Weights = {}
        got, f = value[key]
        if got is not None:
            weights[(a, got, 0)] = f * den
        acc = 0
        for l, A in enumerate(key):
            sign = -1 if (pa and acc % 2) else 1
            for cc, v in ca[A]:
                got, f = value[key[:l] + (cc,) + key[l + 1:]]
                if got is not None:
                    _add(weights, (None, got, pa), -sign * f * v)
            acc += index_parity(A, ne)
        return weights

    return _evaluation_sum(sc, form, form.degree, lie_support(sc, a, form), weights_of)


def lie_by_evaluation(sc: StructureConstants, d: DerivationVector,
                      form: GradedForm) -> GradedForm:
    """Lie derivative along an arbitrary derivation: the L_a of each basis
    derivation a in the support, summed with the coordinates x_a as weights."""
    _require_basis(sc.basis, d.sl_basis)
    _require_basis(sc.basis, form.sl_basis)
    lie = {a: lie_basis_by_evaluation(sc, a, form) for a in d.support()}
    return _combination(sc.basis, form.degree, [
        (lie[a], *_part_weights(part, x)) for a, part, x in d.ints
    ], d.den)


def embed_vector_field(
    sc: StructureConstants, sc_body: StructureConstants, d: DerivationVector
) -> DerivationVector:
    """Lift a body derivation; right inverse to body_vector_field."""
    ensure_body_adapted(sc, sc_body)
    return DerivationVector(sc.basis, d.ints, d.den)


def curvature_from_coefficients(
    sc: StructureConstants, omega: Sequence[Sequence[GradedMatrix]]
) -> GradedForm:
    """R = (1/2) sum Omega_AB ^ theta^A ^ theta^B."""
    total = GradedForm.zero(sc, 2)
    for a in range(sc.dim):
        for b in range(sc.dim):
            mat = omega[a][b]
            if mat.is_zero():
                continue
            mono = wedge(
                GradedForm.of(sc, 1, {(a,): GradedMatrix.identity(sc.n, sc.m)}),
                GradedForm.of(sc, 1, {(b,): GradedMatrix.identity(sc.n, sc.m)}),
            )
            total = total + wedge_matrix_form(mat, mono)
    return total.scale(Fraction(1, 2))


def connection_difference_is_corner(a: Connection, b: Connection) -> bool:
    """Two connections over the same projection differ by a module map;
    its matrix must live in the P-corner."""
    if a.idempotent != b.idempotent:
        raise ValueError("connections live over different projections")
    diff = fm_sub(a.alpha, b.alpha)
    squeezed = fm_wedge(fm_wedge(a.idempotent, diff), a.idempotent)
    return squeezed == diff
