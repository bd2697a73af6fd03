import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat import linalg, symplectic
from gradedmat.forms import (
    DerivationVector, GradedForm, exterior_derivative_generators, interior_product,
)
from gradedmat.formspace import FormBasis
from gradedmat.matrices import GradedMatrix
from gradedmat.scalars import Scalar
from gradedmat.symplectic import canonical_two_form
from tests.helpers import (
    clear_denominators,
    rand_form,
    rand_matrix,
    reference_kernel,
    reference_rref,
    sparse_values,
)


def _mat(rows):
    return [[Scalar.of(Fraction(x)) for x in row] for row in rows]


def reference_rank(rows):
    return len(reference_rref(rows)[1])


def _entries(vector):
    """A vector of Gaussian integers as (row, part, numerator) entries."""
    out = []
    for i, x in enumerate(vector):
        x = Scalar.of(x)
        assert x.re.denominator == x.im.denominator == 1
        out += [(i, part, int(y)) for part, y in ((0, x.re), (1, x.im)) if y]
    return out


def _int_columns(rows):
    """The columns of a dense matrix of Gaussian integers, as ``linalg.Column``."""
    return [_entries([row[j] for row in rows]) for j in range(len(rows[0]))]


def _solve(fact, rhs):
    """``fact.solve`` on a dense vector, the solution read back as Scalars."""
    entries, den = fact.solve(_entries(rhs))
    x = [[0, 0] for _ in range(fact.ncols)]
    for j, part, y in entries:
        x[j][part] = y
    return [Scalar(Fraction(re, den), Fraction(im, den)) for re, im in x]


def test_rref_and_rank():
    rows, pivots = reference_rref(_mat([[1, 2], [2, 4]]))
    assert pivots == [0]
    assert linalg.factor(_int_columns(_mat([[1, 2], [2, 4]]))).rank == 1
    assert linalg.factor(_int_columns(_mat([[1, 0], [0, 1]]))).rank == 2
    # a complex matrix of complex rank 1: its realification has rank 2
    assert linalg.factor(_int_columns([[Scalar(1, 1), Scalar(2, 0)],
                                       [Scalar(0, 2), Scalar(2, 2)]])).rank == 1
    assert linalg.factor([]).rank == 0


def test_solve_and_inverse():
    a = _mat([[2, 1], [1, 1]])
    x, den = linalg.solve_unique(_int_columns(a), _entries([3, 2]))
    assert (x, den) == ([(0, 0, den), (1, 0, den)], den)
    inv, den = linalg.inverse(_int_columns(a))
    assert [[Fraction(y, den) for _, _, y in col] for col in inv] == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        linalg.solve_unique(_int_columns(_mat([[1, 1], [2, 2]])), _entries([1, 1]))
    with pytest.raises(ValueError, match="singular"):
        linalg.inverse(_int_columns(_mat([[1, 1], [2, 2]])))


def _random_sparse(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        entries = {
            j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for j in range(ncols)
            if rng.random() < density
        }
        entries = {j: v for j, v in entries.items() if v}
        rows.append(clear_denominators(entries))
    return [r for r in rows if r]


def test_sparse_rank_matches_dense():
    rng = random.Random(17)
    for _ in range(6):
        nrows, ncols = rng.randint(3, 8), rng.randint(3, 8)
        rows = _random_sparse(rng, nrows, ncols)
        dense = [[Scalar.of(0)] * ncols for _ in range(len(rows))]
        for i, row in enumerate(rows):
            for j, v in row.items():
                dense[i][j] = Scalar.of(Fraction(v))
        rank = linalg.SparseEchelon().eliminate(rows)
        assert rank == reference_rank(dense)
        columns = [[(i, 0, v) for i, v in col.items()] for col in _columns(rows, ncols)]
        assert rank == linalg.factor(columns).rank


def test_exact_rank_cross_check():
    rng = random.Random(23)
    rows = _random_sparse(rng, 10, 7)
    r = linalg.exact_rank(rows, 7)
    assert r == linalg.SparseEchelon().eliminate(rows)


def _columns(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def _kernel(rows, ncols):
    ech = linalg.SparseEchelon()
    linalg.exact_rank(rows, ncols, ech)
    return linalg.sparse_kernel(ech, ncols)


def test_sparse_kernel_verifies():
    rng = random.Random(29)
    for _ in range(5):
        rows = _random_sparse(rng, 4, 7)
        vecs = _kernel(rows, 7)
        assert linalg.verify_kernel(_columns(rows, 7), vecs)
        assert len(vecs) == 7 - linalg.SparseEchelon().eliminate(rows)


def test_modular_rank_agrees():
    rng = random.Random(31)
    rows = _random_sparse(rng, 9, 9)
    exact = linalg.SparseEchelon().eliminate(rows)
    assert linalg.modular_rank(rows, 9, 1000003) == exact


# Entries of size at most 9 in at most 6 x 6: by Hadamard every minor is at
# most 9**6 * 6**3 < 1.2e8 in size, so a nonzero minor is divisible by at most
# one check prime and the maximum of the modular ranks must be exact.
small_int_rows = st.integers(1, 6).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.dictionaries(
                st.integers(0, ncols - 1),
                st.integers(-9, 9).filter(bool),
                max_size=ncols,
            ),
            max_size=6,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(small_int_rows)
def test_modular_rank_property(case):
    ncols, rows = case
    exact = linalg.SparseEchelon().eliminate(rows)
    mods = [linalg.modular_rank(rows, ncols, p) for p in linalg._CHECK_PRIMES]
    assert all(r <= exact for r in mods)
    assert max(mods) == exact
    assert linalg.exact_rank(rows, ncols) == exact


sparse_int_matrices = st.integers(1, 12).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.dictionaries(
                st.integers(0, ncols - 1),
                st.integers(-30, 30).filter(bool),
                max_size=4,
            ),
            max_size=12,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(sparse_int_matrices)
def test_kernel_equals_the_rational_back_substitution(case):
    ncols, rows = case
    vecs = _kernel(rows, ncols)
    assert vecs == reference_kernel(rows, ncols)
    assert linalg.verify_kernel(_columns(rows, ncols), vecs)
    for v in vecs:
        assert all(type(x) is int and x for x in v.values())
        assert math.gcd(*v.values()) == 1


def test_unlucky_prime_undershoots_but_exact_rank_passes():
    p = linalg._CHECK_PRIMES[0]
    # the entry p vanishes mod the first prime, and with it the determinant p
    rows = [{0: p, 1: 1}, {1: 1}]
    assert linalg.modular_rank(rows, 2, p) == 1
    assert [linalg.modular_rank(rows, 2, q) for q in linalg._CHECK_PRIMES[1:]] == [2, 2]
    assert linalg.exact_rank(rows, 2) == 2


def test_exact_rank_rejects_a_short_modular_rank(monkeypatch):
    rng = random.Random(37)
    rows = _random_sparse(rng, 6, 6)
    rank = linalg.SparseEchelon().eliminate(rows)
    assert rank > 0
    monkeypatch.setattr(
        linalg, "modular_rank", lambda rows, ncols, prime: rank - 1
    )
    with pytest.raises(AssertionError):
        linalg.exact_rank(rows, 6)


# ---- the factored solve against the one-shot rref solve ----------------


def _rref_solve(rows, rhs):
    """Solve A x = b by one rref of [A | b]: the reference for ``factor``."""
    ncols = len(rows[0])
    red, pivots = reference_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined linear system")
    x = [Scalar.of(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def _outcome(solve, *args):
    try:
        return solve(*args)
    except ValueError as err:
        return str(err)


def _matvec(rows, x):
    return [sum((a * b for a, b in zip(row, x)), Scalar.of(0)) for row in rows]


small_gaussians = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
small_integers = st.builds(Scalar, st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_factored_solve_matches_rref_solve(data):
    nrows = data.draw(st.integers(1, 6), label="rows")
    ncols = data.draw(st.integers(1, nrows), label="columns")
    entries = data.draw(st.sampled_from([small_gaussians, small_integers]), label="entries")
    rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows), label="A")
    fact = linalg.factor(_int_columns(rows))
    assert fact.rank == reference_rank(rows)
    # one right-hand side in the column space, then arbitrary ones
    x = data.draw(st.lists(small_gaussians, min_size=ncols, max_size=ncols))
    rhss = [_matvec(rows, x)] + data.draw(st.lists(
        st.lists(small_gaussians, min_size=nrows, max_size=nrows), max_size=3))
    for rhs in rhss:
        want = _outcome(_rref_solve, rows, rhs)
        assert _outcome(_solve, fact, rhs) == want
        got = _outcome(linalg.solve_unique, _int_columns(rows), _entries(rhs))
        assert got == _outcome(fact.solve, _entries(rhs))
    if fact.rank == ncols:
        assert _solve(fact, rhss[0]) == x


def test_factored_solve_raises_like_the_rref_solve():
    tall = linalg.factor(_int_columns(_mat([[1, 0], [0, 1], [1, 1]])))
    assert tall.rank == 2
    assert _solve(tall, [1, 2, 3]) == _mat([[1, 2]])[0]
    with pytest.raises(ValueError, match="inconsistent"):
        _solve(tall, [1, 2, 4])
    wide = linalg.factor(_int_columns(_mat([[1, 1, 0], [0, 0, 1]])))
    assert wide.rank == 2
    with pytest.raises(ValueError, match="underdetermined"):
        _solve(wide, [1, 2])
    # an inconsistent system is reported as such even when underdetermined
    flat = linalg.factor(_int_columns(_mat([[1, 1], [2, 2]])))
    with pytest.raises(ValueError, match="inconsistent"):
        _solve(flat, [1, 1])
    with pytest.raises(ValueError, match="underdetermined"):
        _solve(flat, [1, 2])
    # b is nonzero on a row where A is zero
    with pytest.raises(ValueError, match="inconsistent"):
        tall.solve([(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 1)])
    # the imaginary part of b is checked as the real part is
    with pytest.raises(ValueError, match="inconsistent"):
        _solve(tall, [Scalar(1, 1), 2, Scalar(3, 2)])


def test_a_corrupted_factorization_cannot_return_a_wrong_answer():
    # b = A x is in the column space.  One entry of one stored pivot vector,
    # on a row of A or on a tag, off by one, changes how b reduces; the solve
    # must then return the true x or refuse b, and a wrong candidate is
    # refused only by the check on all of A.  The complex system is factored
    # through its realified columns.
    cases = [
        ([[2, 1], [1, 1], [1, 0]], [1, 1]),
        ([[Scalar(2, 1), 1], [1, Scalar(1, -1)], [Scalar(0, 1), 0]],
         [Scalar(1, 1), Scalar(1, -1)]),
    ]
    for rows, x in cases:
        a = [[Scalar.of(v) for v in row] for row in rows]
        x = [Scalar.of(v) for v in x]
        b = _matvec(a, x)
        fact = linalg.factor(_int_columns(a))
        assert fact.rank == len(x)
        cells = [(lead, key) for lead, piv in fact.echelon.pivot_rows.items() for key in piv]
        assert len(cells) > len(fact.columns)
        refused = 0
        for lead, key in cells:
            fact = linalg.factor(_int_columns(a))
            assert _solve(fact, b) == x
            fact.echelon.pivot_rows[lead][key] += 1
            got = _outcome(_solve, fact, b)
            assert got in (x, "inconsistent linear system")
            refused += got != x
        assert refused


def _contraction_reference(sc, form):
    """The contraction system of ``form`` as a dense Scalar matrix, rows over
    the 1-form basis, and the right-hand side -dM for a matrix M."""
    basis = FormBasis(sc, 1)
    rows = [[Scalar.of(0)] * sc.dim for _ in range(len(basis))]
    for b in range(sc.dim):
        image = interior_product(DerivationVector.basis(sc, b), form)
        for i, v in sparse_values(image, basis).items():
            rows[i][b] = v

    def rhs(mat):
        dm = exterior_derivative_generators(sc, GradedForm.from_matrix(sc, mat))
        out = [Scalar.of(0)] * len(basis)
        for i, v in sparse_values(dm, basis).items():
            out[i] = -v
        return out

    return rows, rhs


def _fields_match_the_reference(sc, form, mats):
    """The factored system of ``form`` gives every field, or refuses it, as
    one rref of the reference system does; returns the factorization."""
    system = symplectic._contraction_system(sc, form)
    fact, basis, _ = system
    assert fact.ncols == sc.dim and len(basis) == len(FormBasis(sc, 1))
    rows, rhs = _contraction_reference(sc, form)
    assert fact.rank == reference_rank(rows)
    trusted = symplectic.SymplecticForm(sc, form, _trusted=system)
    for mat in mats:
        got = _outcome(lambda: list(trusted.hamiltonian_field(mat).coords))
        assert got == _outcome(_rref_solve, rows, rhs(mat))
    return fact


@pytest.mark.parametrize("algebra", ["sc21", "sc12", "sc31"])
def test_factored_solve_of_contraction_systems(algebra, request):
    sc = request.getfixturevalue(algebra)
    mats = [sc.basis.elements[a] for a in range(sc.dim)]
    mats.append(GradedMatrix.identity(sc.n, sc.m))
    degenerate = GradedForm.of(sc, 2, {(0, 1): GradedMatrix.identity(sc.n, sc.m)})
    omega = canonical_two_form(sc)
    # a form over a denominator puts its contraction columns over one too
    for form in (omega, omega.scale(Fraction(2, 3)), degenerate):
        assert not _fields_match_the_reference(sc, form, mats).realified


@pytest.mark.parametrize("algebra", ["sc21", "sc12"])
def test_complex_contraction_systems_match_the_reference_solve(algebra, request):
    sc = request.getfixturevalue(algebra)
    rng = random.Random(83)
    omega = canonical_two_form(sc)
    mats = [rand_matrix(rng, sc) for _ in range(3)]
    mats += [sc.basis.elements[0], GradedMatrix.identity(sc.n, sc.m)]
    forms = [omega.scale(Scalar(1, 2)), omega.scale(Scalar(2, -1)) + rand_form(rng, sc, 2),
             rand_form(rng, sc, 2)]
    for form in forms:
        assert _fields_match_the_reference(sc, form, mats).realified
        _, cert = symplectic.analyze(sc, form)
        assert cert.contraction_rank == reference_rank(_contraction_reference(sc, form)[0])
    # (1 + 2i) d Theta is symplectic, with the field of E_a the basis
    # derivation over 1 + 2i
    built, cert = symplectic.analyze(sc, forms[0])
    assert built is not None and cert.ok
    for a in range(sc.dim):
        field = built.hamiltonian_field(sc.basis.elements[a])
        assert field == DerivationVector.basis(sc, a).scale(Scalar(1, 0) / Scalar(1, 2))
