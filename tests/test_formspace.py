import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat import cohomology, forms, formspace, linalg, symplectic
from gradedmat.constants import constants_for
from gradedmat.formspace import (
    FormBasis,
    LinearMapMatrix,
    basis_form,
    d_matrix,
    form_to_sparse,
    invariant_forms,
    lie_matrix,
    matrix_of_map,
    stack_maps,
    vector_to_form,
)
from gradedmat.forms import (
    DerivationVector,
    exterior_derivative,
    lie_derivative,
)
from gradedmat.indexset import enumerate_multi_indices, index_count, tuple_parity
from gradedmat.scalars import I
from gradedmat.verify import canonical_line
from tests.helpers import column_values, rand_form, sparse_values


def reference_labels(sc, p):
    """The label order written out: index tuples in canonical order, matrix
    units row major."""
    k = sc.n + sc.m
    return [(key, r, c)
            for key in enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
            for r in range(k) for c in range(k)]


def reference_zero_weight_labels(sc, p):
    """The labels whose basis form the evaluation route's Lie derivative
    along every diagonal basis element kills, in label order."""
    diagonal = [DerivationVector.basis(sc, h) for h, e in enumerate(sc.basis.elements)
                if all(r == c for r, c, _ in e.nonzeros())]
    return [lab for lab in reference_labels(sc, p)
            if all(lie_derivative(sc, h, basis_form(sc, lab)).is_zero()
                   for h in diagonal)]


def test_label_counts(sc21):
    assert [len(FormBasis(sc21, p)) for p in range(4)] == [9, 72, 288, 792]
    # the weight-0 labels: at degree 2 the 30 columns of the invariant stacks
    zero = [FormBasis(sc21, p).zero_weight() for p in range(4)]
    assert [len(basis) for basis in zero] == [3, 12, 30, 58]
    assert set(zero[1]) < set(FormBasis(sc21, 1))


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2), (3, 1), (2, 0)])
def test_form_basis_matches_the_reference_enumeration(n, m):
    sc = constants_for(n, m)
    k = n + m
    for p in range(5):
        full = FormBasis(sc, p)
        assert len(full) == index_count(sc.even_dim, sc.odd_dim, p) * k * k
        zero = full.zero_weight()
        for basis, want in ((full, reference_labels(sc, p)),
                            (zero, reference_zero_weight_labels(sc, p))):
            assert list(basis) == want, (n, m, p, len(basis))
            assert len(basis) == len(want)
            assert [basis[j] for j in range(len(basis))] == want
            assert all(basis.index(basis[j]) == j for j in range(len(basis)))
            if want:
                assert basis[-1] == want[-1]
            # random.sample draws positions from the same RNG stream
            for s in range(3):
                size = min(len(want), 3 + 40 * s)
                assert (random.Random(s).sample(basis, size)
                        == random.Random(s).sample(want, size)), (n, m, p, len(basis))
        # every weight-0 label is even
        for key, r, c in zero:
            parity = tuple_parity(key, sc.even_dim) + (r >= n) + (c >= n)
            assert parity % 2 == 0, (n, m, key, r, c)


def test_form_basis_positions_and_restrictions(sc21, sc12_adapted):
    full = FormBasis(sc21, 2)
    assert full.tuples == enumerate_multi_indices(sc21.even_dim, sc21.odd_dim, 2)
    for j in range(0, len(full), 7):
        t, u = full.split(j)
        assert full.offset(full.tuples[t]) + u == j
        assert full[j] == (full.tuples[t],) + full.cells[u]
    zero = full.zero_weight()
    assert list(zero) == [full[i] for i in zero.positions]
    tuple_w, unit_w = full.weights()
    assert zero.positions == [i for i in full.positions
                              if tuple_w[i // full.units] + unit_w[i % full.units] == 0]
    # the positions are kept per degree, and weight 0 selects itself
    assert FormBasis(sc21, 2).zero_weight().positions is zero.positions
    assert zero.zero_weight() == zero
    for lab in (full[1], ((0, 1), 5, 5)):
        with pytest.raises(ValueError):
            zero.index(lab)
    with pytest.raises(IndexError):
        full[len(full)]
    with pytest.raises(IndexError):
        zero[len(zero)]
    assert FormBasis(sc21, 2) == full != zero
    # equal across constants objects of one basis, not across (n|m) or bases
    assert FormBasis(constants_for(2, 1), 2) == full
    assert FormBasis(constants_for(1, 2), 1) != FormBasis(sc21, 1)
    assert FormBasis(sc12_adapted, 1) != FormBasis(constants_for(1, 2), 1)


@pytest.mark.parametrize("name", ["sc21", "sc31"])
def test_d_matrix_on_a_restricted_basis_equals_the_full_columns(name, request):
    sc = request.getfixturevalue(name)
    rng = random.Random(3)
    for p in range(3):
        full = FormBasis(sc, p)
        whole = d_matrix(full)
        for size in (0, 1, min(40, len(full)), len(full)):
            positions = sorted(rng.sample(range(len(full)), size))
            sub = full.restricted(positions)
            assert sub.positions is positions
            assert list(sub) == [full[i] for i in positions]
            assert [sub.index(full[i]) for i in positions] == list(range(size))
            part = d_matrix(sub)
            assert part.basis == sub
            assert (part.nrows, part.den) == (whole.nrows, whole.den)
            assert part.columns == [whole.columns[i] for i in positions], (name, p, size)
        # the weight-0 labels are one restriction
        zero = full.zero_weight()
        assert full.restricted(zero.positions) == zero
        for bad in ([1, 0], [0, 0], [-1], [len(full)]):
            with pytest.raises(ValueError, match="increase strictly"):
                full.restricted(bad)


def test_basis_form_sparse_round_trip(sc21):
    labels = FormBasis(sc21, 2)
    for j in range(0, len(labels), 37):
        lab = labels[j]
        sparse = form_to_sparse(basis_form(sc21, lab), labels)
        assert sparse == ([(labels.index(lab), 0, 1)], 1)
    rng = random.Random(5)
    for _ in range(4):
        w = rand_form(rng, sc21, 2).scale(Fraction(2, 3))
        entries, den = form_to_sparse(w, labels)
        assert den == w.den and entries == sorted(entries)
        assert vector_to_form(sparse_values(w, labels), labels) == w


def test_form_to_sparse_reads_the_ints_without_building_the_view(sc21):
    labels = FormBasis(sc21, 2)
    rng = random.Random(7)
    for _ in range(4):
        # a sum is built on the ints, with its coefficient view unbuilt
        w = rand_form(rng, sc21, 2) + rand_form(rng, sc21, 2).scale(I)
        assert w._coeffs is None
        sparse = sparse_values(w, labels)
        assert w._coeffs is None
        assert any(v.im for v in sparse.values())
        assert vector_to_form(sparse, labels) == w
        # the reference reads the view
        assert sparse == {labels.index((key, r, c)): v
                          for key, mat in w.coeffs.items() for r, c, v in mat.nonzeros()}


def test_rank_then_kernel_eliminates_once(sc21, monkeypatch):
    made = []
    init = linalg.SparseEchelon.__init__

    def counting(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(linalg.SparseEchelon, "__init__", counting)
    mat = d_matrix(FormBasis(sc21, 2).zero_weight())
    rank = mat.rank()
    kernel = mat.kernel()
    assert len(made) == 1 and mat.echelon() is made[0]
    assert 0 < rank < mat.ncols and len(kernel) == mat.ncols - rank


def test_matrix_of_map_applies_like_the_map(sc21):
    d1 = matrix_of_map(
        lambda f: exterior_derivative(sc21, f), sc21, 1, 2
    )
    assert (d1.ncols, d1.nrows) == (72, 288)
    assert d1.basis == FormBasis(sc21, 1)
    rng = random.Random(9)
    for _ in range(3):
        w = rand_form(rng, sc21, 1)
        image = linalg.combine(d1.columns, sparse_values(w, d1.basis))
        got = {i: s / d1.den for i, s in image.items()}
        want = sparse_values(exterior_derivative(sc21, w), FormBasis(sc21, 2))
        assert got == want


def test_stack_maps_requires_shared_input(sc21):
    d0 = matrix_of_map(lambda f: exterior_derivative(sc21, f), sc21, 0, 1)
    d1 = matrix_of_map(lambda f: exterior_derivative(sc21, f), sc21, 1, 2)
    with pytest.raises(ValueError):
        stack_maps([d0, d1])


def test_stack_maps_refuses_different_bases_of_equal_size(sc20, sc21, sc12):
    # at (2|0) degrees 1 and 2 have 12 labels each; (2|1) and (1|2) have
    # the same n + m and the same even and odd dimensions, so their
    # degree-1 bases hold the same 72 labels, of another algebra
    pairs = [(FormBasis(sc20, 1), FormBasis(sc20, 2)),
             (FormBasis(sc21, 1), FormBasis(sc12, 1))]
    assert list(pairs[1][0]) == list(pairs[1][1])
    for pair in pairs:
        one, two = (lie_matrix(basis, 0) for basis in pair)
        assert one.ncols == two.ncols
        with pytest.raises(ValueError, match="share the input space"):
            stack_maps([one, two])


def test_stacked_kernel_is_joint_kernel(sc21):
    maps = [
        matrix_of_map(
            lambda f, a=a: lie_derivative(
                sc21, DerivationVector.basis(sc21, a), f
            ),
            sc21,
            1,
            1,
        )
        for a in range(sc21.dim)
    ]
    stacked = stack_maps(maps)
    vecs = stacked.kernel()
    assert len(vecs) == 1
    w = vector_to_form(vecs[0], stacked.basis)
    for a in range(sc21.dim):
        assert lie_derivative(sc21, DerivationVector.basis(sc21, a), w).is_zero()


def test_stack_over_different_denominators_keeps_the_values(sc21):
    # even a from the column kernel (over 4), odd a from the oracle (over
    # 1 or 2): the stack rescales each block to the lcm of the denominators
    maps = [
        lie_matrix(FormBasis(sc21, 1), a) if a % 2 == 0 else matrix_of_map(
            lambda f, a=a: lie_derivative(sc21, DerivationVector.basis(sc21, a), f),
            sc21, 1, 1,
        )
        for a in range(sc21.dim)
    ]
    assert {mp.den for mp in maps} == {1, 2, 4}
    stacked = stack_maps(maps)
    assert stacked.den == 4
    images = [([], 1) for _ in stacked.basis]
    offset = 0
    for mp in maps:
        for j in range(mp.ncols):
            entries, den = images[j]
            # both sides over lcm(den, mp.den)
            f, g = mp.den // math.gcd(den, mp.den), den // math.gcd(den, mp.den)
            images[j] = ([(i, part, y * f) for i, part, y in entries]
                         + [(offset + i, 0, v * g) for i, v in mp.columns[j].items()],
                         den * f)
        offset += mp.nrows
    by_value = LinearMapMatrix.from_images(stacked.basis, stacked.nrows, images)
    for j in range(stacked.ncols):
        assert column_values(stacked, j) == column_values(by_value, j)
    assert len(stacked.kernel()) == 1
    assert stacked.kernel() == by_value.kernel()


def test_map_images_must_be_real(sc21, sc20):
    with pytest.raises(ValueError, match="not real"):
        matrix_of_map(lambda f: f.scale(I), sc21, 0, 0)
    labels = FormBasis(sc20, 0).zero_weight()
    assert list(labels) == [((), 0, 0), ((), 1, 1)]
    got = LinearMapMatrix.from_images(labels, 2, [([(0, 0, 1)], 6), ([(1, 0, -3)], 4)])
    assert (got.columns, got.den) == ([{0: 2}, {1: -9}], 12)
    with pytest.raises(ValueError, match="not real"):
        LinearMapMatrix.from_images(labels, 2, [([(0, 0, 1)], 6), ([(1, 1, -3)], 4)])


def test_kernel_matrices_hold_nonzero_ints_over_the_table_denominator(sc21, sc31):
    for sc in (sc21, sc31):
        den = forms._kernel_tables(sc).den
        mats = [d_matrix(FormBasis(sc, p)) for p in range(3)]
        mats += [lie_matrix(FormBasis(sc, p), a) for a in (0, sc.dim - 1) for p in (1, 2)]
        for mat in mats:
            assert mat.den == den
            for col in mat.columns:
                assert all(type(v) is int and v for v in col.values())


def test_equal_values_share_one_int_object(sc31):
    # the values reach past the small ints CPython shares anyway, and the
    # negated columns of L_a along an odd a share theirs too
    odd = sc31.even_dim
    for mat, distinct, low in (
            (d_matrix(FormBasis(sc31, 2)), 16, -36),
            (lie_matrix(FormBasis(sc31, 2).zero_weight(), odd), 8, -12)):
        values = [v for col in mat.columns for v in col.values()]
        assert len(set(values)) == distinct and min(values) == low
        assert len({id(v) for v in values}) == distinct


def test_invariant_one_forms_span_the_canonical_form(sc21):
    assert canonical_line(sc21, invariant_forms(sc21, 1)) is None


@pytest.mark.parametrize("name", ["sc21", "sc12", "sc31", "sc20"])
def test_invariant_spaces_equal_the_kernels_over_all_labels(name, request):
    # the stacks run over the weight-0 labels; the reference stacks the
    # same maps over every label of the degree
    sc = request.getfixturevalue(name)
    one, two = FormBasis(sc, 1), FormBasis(sc, 2)
    want = formspace.kernel_forms([lie_matrix(one, a) for a in range(sc.dim)])
    assert len(want) == 1
    assert invariant_forms(sc, 1) == want
    want = formspace.kernel_forms(
        [d_matrix(two)] + [lie_matrix(two, a) for a in range(sc.dim)]
    )
    assert len(want) == 1
    assert symplectic.closed_invariant_even_two_forms(sc) == want


@pytest.mark.parametrize("name", ["sc21", "sc12", "sc31", "sc20"])
def test_weight_zero_columns_equal_the_columns_of_the_full_maps(name, request):
    sc = request.getfixturevalue(name)
    for p in range(5):
        full = FormBasis(sc, p)
        zero = full.zero_weight()
        pairs = [(d_matrix(full), d_matrix(zero))]
        pairs += [(lie_matrix(full, a), lie_matrix(zero, a)) for a in range(sc.dim)]
        for whole, part in pairs:
            assert part.basis == zero
            assert (part.nrows, part.den) == (whole.nrows, whole.den)
            assert part.columns == [whole.columns[i] for i in zero.positions], (name, p)


# ---- the sparse column kernel against the form-level routes -----------
#
# Each drawn column is compared with the column ``matrix_of_map`` builds
# for the same label: the image of the basis form under the values-route
# map, read off in the output label order.  Kernel matrices are memoized
# per module, so each is built once however many labels are drawn.


@pytest.fixture(scope="module")
def kernel_memo():
    memo = {}

    def get(key, build):
        got = memo.get(key)
        if got is None:
            got = memo[key] = build()
        return got

    return get


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_d_matrix_columns_match_values_route(
    sc21, sc12, sc31, sc20, kernel_memo, data
):
    zero = data.draw(st.booleans(), label="weight 0")
    for sc in (sc21, sc12, sc31, sc20):
        for p in range(4):
            basis = FormBasis(sc, p).zero_weight() if zero else FormBasis(sc, p)
            mat = kernel_memo(("d", sc.n, sc.m, p, zero), lambda: d_matrix(basis))
            assert mat.basis == basis
            assert mat.nrows == len(reference_labels(sc, p + 1))
            if not mat.ncols:
                continue
            j = data.draw(st.integers(0, mat.ncols - 1),
                          label=f"({sc.n}|{sc.m}) p={p} column")
            w = basis_form(sc, mat.basis[j])
            want = sparse_values(exterior_derivative(sc, w), FormBasis(sc, p + 1))
            assert column_values(mat, j) == want, (sc.n, sc.m, mat.basis[j])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lie_matrix_columns_match_values_route(sc21, kernel_memo, data):
    p, zero = data.draw(st.sampled_from([(1, False), (2, True)]), label="degree")
    labels = FormBasis(sc21, p).zero_weight() if zero else FormBasis(sc21, p)
    j = data.draw(st.integers(0, len(labels) - 1), label="column")
    w = basis_form(sc21, labels[j])
    out = FormBasis(sc21, p)
    for a in range(sc21.dim):
        mat = kernel_memo(("lie", a, p, zero), lambda: lie_matrix(labels, a))
        assert mat.basis == labels
        assert mat.nrows == len(out)
        want = lie_derivative(sc21, DerivationVector.basis(sc21, a), w)
        assert column_values(mat, j) == sparse_values(want, out), (a, labels[j])


def test_kernel_callers_skip_the_form_level_routes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("form-level route called")

    for mod in (forms, formspace, cohomology, symplectic):
        for name in ("exterior_derivative", "exterior_derivative_generators",
                     "lie_derivative", "matrix_of_map"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    sc = constants_for(2, 1)
    assert cohomology.differential_matrix(sc, 2).matrix.ncols == 288
    assert len(invariant_forms(sc, 1)) == 1
    assert len(symplectic.closed_invariant_even_two_forms(sc)) == 1


def test_kernel_tables_are_built_on_first_use():
    sc = constants_for(2, 1)
    assert sc.cache == {}
    d_matrix(FormBasis(sc, 0))
    tables = sc.cache[("column_kernel",)]
    lie_matrix(FormBasis(sc, 1), 0)
    assert sc.cache[("column_kernel",)] is tables


def test_both_generator_callers_share_one_set_of_tables():
    sc = constants_for(2, 1)
    assert sc.cache == {}
    w = basis_form(sc, ((1, 5), 0, 2))
    forms.exterior_derivative_generators(sc, w)
    tables = sc.cache[("column_kernel",)]
    per_tuple = sc.cache[("d_tuple", (1, 5))]
    assert set(sc.cache) == {("column_kernel",), ("d_tuple", (1, 5))}
    d_matrix(FormBasis(sc, 2))
    assert sc.cache[("column_kernel",)] is tables
    assert sc.cache[("d_tuple", (1, 5))] is per_tuple
    assert len([k for k in sc.cache if k[0] == "d_tuple"]) == 32
    # a second constants object owns its own tables
    other = constants_for(2, 1)
    assert other.cache == {}
    forms.exterior_derivative_generators(other, w)
    assert other.cache[("column_kernel",)] is not tables
    assert other.cache[("column_kernel",)].comm is not tables.comm
    assert other.cache[("d_tuple", (1, 5))] is not per_tuple


def test_kernel_refuses_a_vector_the_matrix_does_not_kill(monkeypatch):
    # columns e0 -> f0, e1 -> 0: the kernel is spanned by e1
    labels = FormBasis(constants_for(2, 0), 0).zero_weight()
    assert list(labels) == [((), 0, 0), ((), 1, 1)]
    mat = LinearMapMatrix(labels, 1, [{0: 1}, {}])
    assert mat.kernel() == [{1: 1}]
    monkeypatch.setattr(linalg, "sparse_kernel", lambda echelon, ncols: [{0: 1}])
    with pytest.raises(AssertionError, match="not killed by the matrix"):
        mat.kernel()
