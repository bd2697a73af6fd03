import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat import cohomology, forms, formspace, symplectic
from gradedmat.constants import constants_for
from gradedmat.formspace import (
    LinearMapMatrix,
    basis_form,
    d_matrix,
    form_basis_labels,
    form_to_sparse,
    invariant_forms,
    lie_matrix,
    matrix_of_map,
    stack_maps,
    vector_to_form,
)
from gradedmat.forms import (
    DerivationVector,
    canonical_one_form,
    exterior_derivative,
    lie_derivative,
)
from gradedmat.scalars import Scalar
from tests.test_forms import rand_form


def test_label_counts(sc21):
    assert [len(form_basis_labels(sc21, p)) for p in range(4)] == [9, 72, 288, 792]
    # parity split partitions the space; at degree 1 the halves are equal
    even = form_basis_labels(sc21, 1, parity=0)
    odd = form_basis_labels(sc21, 1, parity=1)
    assert (len(even), len(odd)) == (36, 36)
    assert sorted(even + odd) == sorted(form_basis_labels(sc21, 1))


def test_basis_form_sparse_round_trip(sc21):
    labels = form_basis_labels(sc21, 2)
    index = {lab: i for i, lab in enumerate(labels)}
    for lab in labels[::37]:
        sparse = form_to_sparse(basis_form(sc21, lab), index)
        assert sparse == {index[lab]: Scalar(1)}
    rng = random.Random(5)
    for _ in range(4):
        w = rand_form(rng, sc21, 2)
        sparse = form_to_sparse(w, index)
        dense = [sparse.get(i, 0) for i in range(len(labels))]
        assert vector_to_form(sc21, 2, dense, labels) == w


def test_matrix_of_map_applies_like_the_map(sc21):
    d1 = matrix_of_map(
        lambda f: exterior_derivative(sc21, f), sc21, 1, 2
    )
    assert (d1.ncols, d1.nrows) == (72, 288)
    out_index = {lab: i for i, lab in enumerate(d1.out_labels)}
    in_index = {lab: i for i, lab in enumerate(d1.in_labels)}
    rng = random.Random(9)
    for _ in range(3):
        w = rand_form(rng, sc21, 1)
        got = d1.apply(form_to_sparse(w, in_index))
        want = form_to_sparse(exterior_derivative(sc21, w), out_index)
        assert got == want


def test_stack_maps_requires_shared_input(sc21):
    d0 = matrix_of_map(lambda f: exterior_derivative(sc21, f), sc21, 0, 1)
    d1 = matrix_of_map(lambda f: exterior_derivative(sc21, f), sc21, 1, 2)
    with pytest.raises(ValueError):
        stack_maps([d0, d1])


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
    w = vector_to_form(sc21, 1, vecs[0], stacked.in_labels)
    for a in range(sc21.dim):
        assert lie_derivative(sc21, DerivationVector.basis(sc21, a), w).is_zero()


def test_invariant_one_forms_span_the_canonical_form(sc21):
    inv = invariant_forms(sc21, 1)
    assert len(inv) == 1
    th = canonical_one_form(sc21)
    w = inv[0]
    key = next(iter(th.coeffs))
    r = c = 0
    for r in range(3):
        for c in range(3):
            if th.coeffs[key].entries[r][c]:
                break
        else:
            continue
        break
    ratio = w.coefficient(key).entries[r][c] / th.coeffs[key].entries[r][c]
    assert ratio
    assert w == th.scale(ratio)
    # the canonical form is even, so the odd invariant slice is empty
    inv_even = invariant_forms(sc21, 1, parity=0)
    assert len(inv_even) == 1
    ratio = inv_even[0].coefficient(key).entries[r][c] / th.coeffs[key].entries[r][c]
    assert inv_even[0] == th.scale(ratio)
    assert invariant_forms(sc21, 1, parity=1) == []


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
    parity = data.draw(st.sampled_from([None, 0, 1]), label="parity")
    for sc in (sc21, sc12, sc31, sc20):
        for p in range(4):
            mat = kernel_memo(
                ("d", sc.n, sc.m, p, parity),
                lambda: d_matrix(sc, p, parity=parity),
            )
            assert mat.in_labels == form_basis_labels(sc, p, parity=parity)
            assert mat.out_labels == form_basis_labels(sc, p + 1)
            if not mat.ncols:
                continue
            j = data.draw(st.integers(0, mat.ncols - 1),
                          label=f"({sc.n}|{sc.m}) p={p} column")
            out_index = {lab: i for i, lab in enumerate(mat.out_labels)}
            w = basis_form(sc, mat.in_labels[j])
            want = form_to_sparse(exterior_derivative(sc, w), out_index)
            assert mat.columns[j] == want, (sc.n, sc.m, mat.in_labels[j])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lie_matrix_columns_match_values_route(sc21, kernel_memo, data):
    p, parity = data.draw(st.sampled_from([(1, None), (2, 0)]), label="degree")
    labels = form_basis_labels(sc21, p, parity=parity)
    j = data.draw(st.integers(0, len(labels) - 1), label="column")
    w = basis_form(sc21, labels[j])
    out_index = {lab: i for i, lab in enumerate(form_basis_labels(sc21, p))}
    for a in range(sc21.dim):
        mat = kernel_memo(
            ("lie", a, p, parity), lambda: lie_matrix(sc21, a, p, parity=parity)
        )
        assert mat.in_labels == labels
        want = lie_derivative(sc21, DerivationVector.basis(sc21, a), w)
        assert mat.columns[j] == form_to_sparse(want, out_index), (a, labels[j])


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
    d_matrix(sc, 0)
    tables = sc.cache[("column_kernel",)]
    lie_matrix(sc, 0, 1)
    assert sc.cache[("column_kernel",)] is tables


def test_both_generator_callers_share_one_set_of_tables():
    sc = constants_for(2, 1)
    assert sc.cache == {}
    w = basis_form(sc, ((1, 5), 0, 2))
    forms.exterior_derivative_generators(sc, w)
    tables = sc.cache[("column_kernel",)]
    per_tuple = sc.cache[("d_tuple", (1, 5))]
    assert set(sc.cache) == {("column_kernel",), ("d_tuple", (1, 5))}
    d_matrix(sc, 2)
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
