import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat import linalg, symplectic
from gradedmat.forms import GradedForm
from gradedmat.matrices import GradedMatrix
from gradedmat.scalars import Scalar
from gradedmat.symplectic import canonical_two_form


def _mat(rows):
    return [[Scalar.of(Fraction(x)) for x in row] for row in rows]


def test_rref_and_rank():
    rows, pivots = linalg.rref(_mat([[1, 2], [2, 4]]))
    assert pivots == [0]
    assert linalg.rank_dense(_mat([[1, 2], [2, 4]])) == 1
    assert linalg.rank_dense(_mat([[1, 0], [0, 1]])) == 2


def test_solve_and_inverse():
    a = _mat([[2, 1], [1, 1]])
    x = linalg.solve_unique(a, [Scalar.of(3), Scalar.of(2)])
    assert [str(v) for v in x] == ["1", "1"]
    assert linalg.matvec(a, x) == [Scalar.of(3), Scalar.of(2)]
    inv = linalg.inverse(_mat([[2, 1], [1, 1]]))
    assert [[str(v) for v in row] for row in inv] == [["1", "-1"], ["-1", "2"]]
    with pytest.raises(ValueError):
        linalg.solve_unique(_mat([[1, 1], [2, 2]]), [Scalar.of(1), Scalar.of(1)])


def clear_denominators(entries):
    """The nonzero ``entries`` {column: Fraction} times the lcm of their
    denominators, stripped of content: a row with the same rank and kernel."""
    entries = {c: v for c, v in entries.items() if v}
    den = math.lcm(*(v.denominator for v in entries.values()))
    return linalg.strip_content(
        {c: v.numerator * (den // v.denominator) for c, v in entries.items()}
    )


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
        assert linalg.SparseEchelon().eliminate(rows) == linalg.rank_dense(dense)


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


def reference_kernel(rows, ncols):
    """The kernel by dense rational back-substitution, denominators cleared.

    One vector per free column f of the echelon, with x_f = 1 and every
    pivot value solved as a Fraction, highest pivot first; then scaled by
    the lcm of its denominators and stripped of content.
    """
    ech = linalg.SparseEchelon()
    for row in sorted(rows, key=len):
        ech.add_row(row)
    pivots = sorted(ech.pivot_rows)
    out = []
    for f in range(ncols):
        if f in ech.pivot_rows:
            continue
        x = {f: Fraction(1)}
        for c in reversed(pivots):
            row = ech.pivot_rows[c]
            s = Fraction(0)
            for cc, v in row.items():
                if cc != c and cc in x:
                    s += v * x[cc]
            if s:
                x[c] = -s / row[c]
        dense = [x.get(c, Fraction(0)) for c in range(ncols)]
        out.append(clear_denominators(dict(enumerate(dense))))
    return out


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
    red, pivots = linalg.rref([list(r) + [b] for r, b in zip(rows, rhs)])
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


small_gaussians = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_factored_solve_matches_rref_solve(data):
    nrows = data.draw(st.integers(1, 6), label="rows")
    ncols = data.draw(st.integers(1, nrows), label="columns")
    rows = data.draw(st.lists(st.lists(small_gaussians, min_size=ncols,
                                       max_size=ncols),
                              min_size=nrows, max_size=nrows), label="A")
    fact = linalg.factor(rows)
    assert fact.rank == linalg.rank_dense(rows)
    # one right-hand side in the column space, then arbitrary ones
    x = data.draw(st.lists(small_gaussians, min_size=ncols, max_size=ncols))
    rhss = [linalg.matvec(rows, x)] + data.draw(st.lists(
        st.lists(small_gaussians, min_size=nrows, max_size=nrows), max_size=3))
    for rhs in rhss:
        want = _outcome(_rref_solve, rows, rhs)
        assert _outcome(fact.solve, rhs) == want
        assert _outcome(linalg.solve_unique, rows, rhs) == want
    if fact.rank == ncols:
        assert fact.solve(rhss[0]) == x


def test_factored_solve_raises_like_the_rref_solve():
    tall = linalg.factor(_mat([[1, 0], [0, 1], [1, 1]]))
    assert tall.rank == 2
    assert tall.solve([Scalar.of(v) for v in (1, 2, 3)]) == _mat([[1, 2]])[0]
    with pytest.raises(ValueError, match="inconsistent"):
        tall.solve([Scalar.of(v) for v in (1, 2, 4)])
    wide = linalg.factor(_mat([[1, 1, 0], [0, 0, 1]]))
    assert wide.rank == 2
    with pytest.raises(ValueError, match="underdetermined"):
        wide.solve([Scalar.of(1), Scalar.of(2)])
    # an inconsistent system is reported as such even when underdetermined
    flat = linalg.factor(_mat([[1, 1], [2, 2]]))
    with pytest.raises(ValueError, match="inconsistent"):
        flat.solve([Scalar.of(1), Scalar.of(1)])
    with pytest.raises(ValueError, match="underdetermined"):
        flat.solve([Scalar.of(1), Scalar.of(2)])
    with pytest.raises(ValueError, match="length"):
        tall.solve([Scalar.of(1)])


def test_a_corrupted_factorization_cannot_return_a_wrong_answer():
    # b = A (1, 1) is in the column space and nonzero on both rows of the
    # block, so a wrong entry of the block inverse gives a wrong candidate,
    # which the check on all of A must refuse
    a = _mat([[2, 1], [1, 1], [1, 0]])
    b = linalg.matvec(a, _mat([[1, 1]])[0])
    for i in range(2):
        for j in range(2):
            fact = linalg.factor(a)
            assert fact.solve(b) == _mat([[1, 1]])[0]
            fact.block_inverse[i][j] = fact.block_inverse[i][j] + Scalar.of(1)
            with pytest.raises(ValueError, match="inconsistent"):
                fact.solve(b)


@pytest.mark.parametrize("algebra", ["sc21", "sc12", "sc31"])
def test_factored_solve_of_contraction_systems(algebra, request):
    sc = request.getfixturevalue(algebra)
    mats = [sc.basis.elements[a] for a in range(sc.dim)]
    mats.append(GradedMatrix.identity(sc.n, sc.m))
    degenerate = GradedForm.of(sc, 2, {(0, 1): GradedMatrix.identity(sc.n, sc.m)})
    for form in (canonical_two_form(sc), degenerate):
        fact, basis = symplectic._contraction_system(sc, form)
        assert (fact.nrows, fact.ncols) == (len(basis), sc.dim)
        assert fact.rank == linalg.rank_dense(fact.matrix)
        for mat in mats:
            rhs = symplectic._minus_differential(sc, mat, basis)
            assert _outcome(fact.solve, rhs) == _outcome(_rref_solve, fact.matrix, rhs)
