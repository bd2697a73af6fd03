import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat.matrices import (
    GradedMatrix,
    body,
    embed_body,
    graded_anticommutator,
    graded_commutator,
    odd_units,
)
from gradedmat.sampling import random_homogeneous_matrix, random_matrix
from gradedmat.scalars import ONE, ZERO, Scalar
from tests.reference import from_rows, parity_twist, trace


def test_shapes_and_units():
    u = GradedMatrix.unit(2, 1, 0, 2)
    assert u.size == 3
    assert u[0, 2] == ONE and odd_units(2, 1)[0 * 3 + 2] == 1
    assert u.homogeneous_parity() == 1
    assert GradedMatrix.identity(2, 1).homogeneous_parity() == 0
    with pytest.raises(ValueError):
        from_rows(2, 1, [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="twice"):
        GradedMatrix(2, 1, [(0, 2, 1), (0, 2, 0)])
    with pytest.raises(ValueError, match="outside"):
        GradedMatrix(2, 1, [(3, 0, 1)])
    with pytest.raises(AttributeError):
        u.n = 3


def test_reading_a_position_outside_the_shape_raises():
    u = GradedMatrix.unit(2, 1, 0, 2)
    for r, c in ((0, 7), (1, -1), (-1, 0), (3, 0), (0, 3)):
        with pytest.raises(IndexError, match="outside"):
            u[r, c]
    assert u[0, 2] == ONE and u[2, 2] == ZERO and not u[2, 2]


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2), (2, 0)])
def test_reading_a_position_agrees_with_the_dense_view(n, m):
    rng = random.Random(17)
    mats = [random_matrix(rng, n, m) for _ in range(3)]
    mats.append(mats[0].scale(Scalar(Fraction(2, 3), Fraction(-1, 5))))
    mats.append(random_homogeneous_matrix(rng, n, m, 1))
    mats.append(GradedMatrix.zero(n, m))
    k = n + m
    for mat in mats:
        rows = mat.entries
        for r in range(k):
            for c in range(k):
                assert mat[r, c] == rows[r][c], (mat, r, c)


def test_parity_decompose_splits_blocks():
    rng = random.Random(3)
    mat = random_matrix(rng, 2, 1)
    even, odd = mat.parity_decompose()
    assert even + odd == mat
    assert even.homogeneous_parity() in (0, None)
    assert odd.homogeneous_parity() in (1, None)
    # off-diagonal blocks are exactly the odd part
    for i in range(3):
        for j in range(3):
            if (i < 2) != (j < 2):
                assert odd[i, j] == mat[i, j]
                assert even[i, j] == Scalar(0)


def test_supertrace_vanishes_on_graded_commutators():
    rng = random.Random(11)
    for _ in range(12):
        a = random_homogeneous_matrix(rng, 2, 1, rng.randint(0, 1))
        b = random_homogeneous_matrix(rng, 2, 1, rng.randint(0, 1))
        assert not graded_commutator(a, b).supertrace()


def test_graded_jacobi_identity():
    # [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]] on homogeneous triples
    rng = random.Random(5)
    for _ in range(10):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = random_homogeneous_matrix(rng, 2, 1, pa)
        b = random_homogeneous_matrix(rng, 2, 1, pb)
        c = random_homogeneous_matrix(rng, 2, 1, rng.randint(0, 1))
        lhs = graded_commutator(a, graded_commutator(b, c))
        rhs = graded_commutator(graded_commutator(a, b), c)
        rhs = rhs + graded_commutator(b, graded_commutator(a, c)).scale(
            -1 if (pa and pb) else 1
        )
        assert lhs == rhs


def test_anticommutator_symmetry():
    rng = random.Random(8)
    for _ in range(8):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = random_homogeneous_matrix(rng, 2, 1, pa)
        b = random_homogeneous_matrix(rng, 2, 1, pb)
        sign = -1 if (pa and pb) else 1
        assert graded_anticommutator(a, b) == graded_anticommutator(b, a).scale(sign)
        assert graded_commutator(a, b) == graded_commutator(b, a).scale(-sign)


def test_body_round_trips():
    rng = random.Random(2)
    mat = random_matrix(rng, 2, 1)
    b = body(mat)
    assert (b.n, b.m) == (2, 0)
    back = embed_body(b, 2, 1)
    assert body(back) == b
    # dominant block copied, complementary block is (tr/2) times identity
    half_trace = trace(b) / Scalar(2)
    for i in range(3):
        for j in range(3):
            if i < 2 and j < 2:
                assert back[i, j] == mat[i, j]
            elif i == j:
                assert back[i, j] == half_trace
            else:
                assert back[i, j] == Scalar(0)
    # the embedding is unital
    ident = embed_body(body(GradedMatrix.identity(2, 1)), 2, 1)
    assert ident == GradedMatrix.identity(2, 1)


def test_body_picks_larger_block():
    mat = GradedMatrix.unit(1, 2, 1, 2)
    b = body(mat)
    assert b == GradedMatrix.unit(2, 0, 0, 1)
    assert embed_body(b, 1, 2) == GradedMatrix.unit(1, 2, 1, 2)


def test_body_is_refused_at_n_equal_m_and_embed_body_checks_the_shape():
    with pytest.raises(ValueError, match="undefined for n == m"):
        body(GradedMatrix.identity(2, 2))
    with pytest.raises(ValueError, match="undefined for n == m"):
        embed_body(GradedMatrix.identity(2, 0), 2, 2)
    with pytest.raises(ValueError, match=r"shape \(2\|1\), expected \(2\|0\)"):
        embed_body(GradedMatrix.identity(2, 1), 2, 1)
    with pytest.raises(ValueError, match=r"shape \(3\|0\), expected \(2\|0\)"):
        embed_body(GradedMatrix.identity(3, 0), 1, 2)


# ---- scale and product against the dense definitions ------------------


def _pair(x):
    return (x.re, x.im)


def _pmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _dense_scale(s, mat):
    k = mat.size
    return [[_pmul(_pair(s), _pair(mat[i, j])) for j in range(k)] for i in range(k)]


def _dense_product(a, b):
    k = a.size
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            re = im = Fraction(0)
            for t in range(k):
                pr, pi = _pmul(_pair(a[i, t]), _pair(b[t, j]))
                re, im = re + pr, im + pi
            row.append((re, im))
        out.append(row)
    return out


def _entries(mat):
    k = mat.size
    for i in range(k):
        for j in range(k):
            x = mat[i, j]
            assert type(x) is Scalar
            assert type(x.re) is Fraction and type(x.im) is Fraction
    return [[_pair(mat[i, j]) for j in range(k)] for i in range(k)]


def test_scale_matches_dense_definition():
    rng = random.Random(4)
    zero = GradedMatrix.zero(2, 1)
    units = [GradedMatrix.unit(2, 1, i, j) for i in range(3) for j in range(3)]
    mats = [random_matrix(rng, 2, 1) for _ in range(4)] + units + [zero]
    factors = [0, 1, -1, Fraction(3, 2), Scalar(0, 1), Scalar(2, -1), ZERO]
    for mat in mats:
        for s in factors:
            got = mat.scale(s)
            assert _entries(got) == _dense_scale(Scalar.of(s), mat)
            assert got.is_zero() == all(
                not x for row in got.entries for x in row
            )
        assert mat.scale(0).is_zero() and mat.scale(0) == zero
        assert (-mat) == mat.scale(-1)


def test_scaling_a_unit_touches_one_entry():
    v = Scalar(Fraction(-5, 3), 2)
    for i in range(3):
        for j in range(3):
            got = GradedMatrix.unit(2, 1, i, j).scale(v)
            assert got == GradedMatrix.unit(2, 1, i, j, v)
            assert got.nonzeros() == ((i, j, v),)
            assert got.homogeneous_parity() == odd_units(2, 1)[i * 3 + j]


def test_products_with_zero_and_identity_match_dense_definition():
    rng = random.Random(6)
    zero = GradedMatrix.zero(2, 1)
    ident = GradedMatrix.identity(2, 1)
    mats = [random_matrix(rng, 2, 1) for _ in range(4)]
    mats += [GradedMatrix.unit(2, 1, 0, 2), GradedMatrix.unit(2, 1, 2, 1), zero, ident]
    for a in mats:
        for b in (zero, ident, *mats):
            assert _entries(a @ b) == _dense_product(a, b)
        assert (a @ zero).is_zero() and (zero @ a).is_zero()
        assert a @ ident == a and ident @ a == a
        assert a + zero == a and zero + a == a and a - a == zero


def test_brackets_match_parity_split_definition():
    rng = random.Random(9)
    mats = [random_matrix(rng, 2, 1) for _ in range(4)]
    mats += [GradedMatrix.unit(2, 1, 0, 2), GradedMatrix.zero(2, 1)]
    for a in mats:
        for b in mats:
            com = GradedMatrix.zero(2, 1)
            anti = GradedMatrix.zero(2, 1)
            for pa, ah in enumerate(a.parity_decompose()):
                for pb, bh in enumerate(b.parity_decompose()):
                    sign = -1 if (pa and pb) else 1
                    com = com + (ah @ bh - (bh @ ah).scale(sign))
                    anti = anti + (ah @ bh + (bh @ ah).scale(sign))
            assert graded_commutator(a, b) == com
            assert graded_anticommutator(a, b) == anti
        even, odd = a.parity_decompose()
        assert parity_twist(a) == even - odd


# ---- the sparse representation against dense references ----------------
#
# A matrix stores its nonzero entries as sorted (unit, part, numerator)
# triples over one denominator in lowest terms.  Each example draws dense
# rows, about half of them zero, and holds every operation to the dense
# definition on pairs (re, im), read back through ``mat[i, j]``.

SPARSE_SHAPES = ((2, 1), (1, 2))
gaussians = st.builds(
    lambda a, q, b: Scalar(Fraction(a, q), b),
    st.integers(-3, 3), st.integers(1, 4), st.sampled_from([0, 0, 1, -2]),
)
entries_or_zero = st.one_of(st.just(ZERO), st.just(ZERO), gaussians)


@st.composite
def dense_rows(draw, n, m):
    k = n + m
    return draw(st.lists(st.lists(entries_or_zero, min_size=k, max_size=k),
                         min_size=k, max_size=k))


def _add_pairs(x, y, sign=1):
    return (x[0] + sign * y[0], x[1] + sign * y[1])


def _dense_mul(a, b):
    k = len(a)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = (Fraction(0), Fraction(0))
            for t in range(k):
                acc = _add_pairs(acc, _pmul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def _dense_part(a, n, parity):
    k = len(a)
    zero = (Fraction(0), Fraction(0))
    return [[a[i][j] if ((i < n) != (j < n)) == parity else zero
             for j in range(k)] for i in range(k)]


def _dense_bracket(a, b, n, commutator):
    # sum over the homogeneous parts: ab -/+ (-1)^{|a||b|} ba
    k = len(a)
    out = [[(Fraction(0), Fraction(0))] * k for _ in range(k)]
    for pa in (0, 1):
        for pb in (0, 1):
            ah, bh = _dense_part(a, n, pa), _dense_part(b, n, pb)
            sign = -1 if (pa and pb) else 1
            if commutator:
                sign = -sign
            ab, ba = _dense_mul(ah, bh), _dense_mul(bh, ah)
            out = [[_add_pairs(_add_pairs(out[i][j], ab[i][j]), ba[i][j], sign)
                    for j in range(k)] for i in range(k)]
    return out


def _assert_stored_form(mat):
    ints, den = mat.ints, mat.den
    k = mat.size
    assert type(ints) is tuple and type(den) is int and den > 0
    assert list(ints) == sorted(ints)
    assert len({(u, part) for u, part, _ in ints}) == len(ints)
    assert all(0 <= u < k * k and part in (0, 1) and type(y) is int and y
               for u, part, y in ints)
    assert math.gcd(den, *(y for _, _, y in ints)) == 1
    if not ints:
        assert den == 1
    # the Scalar view reads the same values
    triples = mat.nonzeros()
    assert all(x != ZERO and type(x) is Scalar for _, _, x in triples)
    assert [(i * k + j, part, y) for i, j, x in triples
            for part, y in enumerate((x.re * den, x.im * den)) if y] == list(ints)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_form_is_canonical(data):
    n, m = data.draw(st.sampled_from(SPARSE_SHAPES), label="shape")
    rows = data.draw(dense_rows(n, m), label="rows")
    a = from_rows(n, m, rows)
    _assert_stored_form(a)
    zero = GradedMatrix.zero(n, m)
    assert a + (-a) == zero and hash(a + (-a)) == hash(zero)
    assert a - a == zero and (a - a).nonzeros() == ()
    # the same entries reached by units, by triples in any order, by
    # arithmetic and by its own ints over another denominator
    k = n + m
    nz = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    by_units = zero
    for i, j, x in nz:
        by_units = by_units + GradedMatrix.unit(n, m, i, j, x)
    shuffled = data.draw(st.permutations(nz), label="order")
    built = [
        by_units,
        GradedMatrix(n, m, shuffled),
        GradedMatrix.from_ints(n, m, [(u, part, 3 * y) for u, part, y in a.ints],
                               3 * a.den),
        (a + a) - a,
        a.scale(2).scale(Fraction(1, 2)),
        GradedMatrix.identity(n, m) @ a,
    ]
    for b in built:
        _assert_stored_form(b)
        assert b == a and hash(b) == hash(a)
        assert b.entries == a.entries
    assert [[a[i, j] for j in range(k)] for i in range(k)] == [
        [Scalar.of(x) for x in row] for row in rows
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_operations_match_dense_reference(data):
    n, m = data.draw(st.sampled_from(SPARSE_SHAPES), label="shape")
    a = from_rows(n, m, data.draw(dense_rows(n, m), label="a"))
    b = from_rows(n, m, data.draw(dense_rows(n, m), label="b"))
    s = data.draw(st.one_of(st.just(ZERO), gaussians), label="s")
    da, db = _entries(a), _entries(b)
    k = n + m
    results = {
        "scale": (a.scale(s), _dense_scale(s, a)),
        "sum": (a + b, [[_add_pairs(da[i][j], db[i][j]) for j in range(k)]
                        for i in range(k)]),
        "difference": (a - b, [[_add_pairs(da[i][j], db[i][j], -1)
                                for j in range(k)] for i in range(k)]),
        "product": (a @ b, _dense_mul(da, db)),
        "commutator": (graded_commutator(a, b), _dense_bracket(da, db, n, True)),
        "anticommutator": (graded_anticommutator(a, b),
                           _dense_bracket(da, db, n, False)),
        "even": (a.parity_decompose()[0], _dense_part(da, n, 0)),
        "odd": (a.parity_decompose()[1], _dense_part(da, n, 1)),
        "twist": (parity_twist(a),
                  [[_add_pairs(_dense_part(da, n, 0)[i][j],
                               _dense_part(da, n, 1)[i][j], -1)
                    for j in range(k)] for i in range(k)]),
    }
    for name, (got, want) in results.items():
        _assert_stored_form(got)
        assert _entries(got) == want, name
    diag = [da[i][i] for i in range(k)]
    assert _pair(trace(a)) == (sum(x[0] for x in diag), sum(x[1] for x in diag))
    sdiag = [x if i < n else (-x[0], -x[1]) for i, x in enumerate(diag)]
    assert _pair(a.supertrace()) == (
        sum(x[0] for x in sdiag), sum(x[1] for x in sdiag)
    )


# Gaussian rationals whose real and imaginary parts have unrelated
# denominators up to 12, so the common denominator of a matrix mixes them.
mixed_gaussians = st.builds(
    lambda a, q, b, q2: Scalar(Fraction(a, q), Fraction(b, q2)),
    st.integers(-20, 20), st.integers(1, 12), st.integers(-20, 20), st.integers(1, 12),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mixed_denominators_round_trip_through_the_constructor(data):
    n, m = data.draw(st.sampled_from(SPARSE_SHAPES + ((2, 0),)), label="shape")
    k = n + m
    cells = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                               unique=True, max_size=k * k), label="cells")
    values = data.draw(st.lists(mixed_gaussians, min_size=len(cells),
                                max_size=len(cells)), label="values")
    triples = [(i, j, x) for (i, j), x in zip(cells, values)]
    mat = GradedMatrix(n, m, triples)
    _assert_stored_form(mat)
    want = sorted((i, j, x) for i, j, x in triples if x)
    assert list(mat.nonzeros()) == want
    assert GradedMatrix(n, m, mat.nonzeros()) == mat
    assert mat.den == math.lcm(*(y.denominator for _, _, x in want for y in (x.re, x.im)))
