import random

import pytest

from gradedmat import cohomology
from gradedmat.cohomology import (
    DIFFERENTIAL_ENTRIES_CAP,
    DegreeCapExceeded,
    DifferentialTooLarge,
    betti_numbers,
    body_h_map_injective,
    body_map_forms,
    body_map_matrix,
    body_vector_field,
    ce_oracle,
    cocycle_representatives,
    differential_entries,
    differential_matrix,
    embed_vector_field,
    ensure_body_adapted,
    ordinary_abelian_basis,
    ordinary_direct_sum,
    ordinary_sl_basis,
)
from gradedmat.constants import constants_for
from gradedmat.formspace import form_basis_labels
from gradedmat.forms import DerivationVector, exterior_derivative
from gradedmat.linalg import SparseEchelon, sparse_row_from_fractions
from gradedmat.scalars import Scalar
from tests.test_forms import rand_form


def test_chain_data_shapes_and_ranks(sc21):
    dims, rows, ranks, kernels = [], [], [], []
    for p in range(4):
        data = differential_matrix(sc21, p)
        dims.append(data.dim)
        rows.append(data.matrix.nrows)
        ranks.append(data.rank())
        kernels.append(data.kernel_dim())
    assert dims == [9, 72, 288, 792]
    assert rows == [72, 288, 792, 1728]
    assert ranks == [8, 64, 224, 567]
    assert kernels == [1, 8, 64, 225]


def test_consecutive_differentials_compose_to_zero(sc21):
    for p in range(3):
        outer = differential_matrix(sc21, p + 1).matrix
        inner = differential_matrix(sc21, p).matrix
        assert outer.compose_is_zero(inner)


def test_betti_numbers_match_classical_oracle(sc21, sc20):
    want = ce_oracle(ordinary_sl_basis(2), 3)
    assert want == [1, 0, 0, 1]
    assert betti_numbers(sc21, 3) == want
    assert betti_numbers(sc20, 3) == want


def test_even_only_complex_matches_sl3_oracle(sc30):
    # at (n|0) the complex is the one of Dubois-Violette, Kerner and Madore
    want = ce_oracle(ordinary_sl_basis(3), 3)
    assert want == [1, 0, 0, 1]
    assert betti_numbers(sc30, 3) == want


def test_graded_complex_at_3_1_matches_body_sl3_oracle(sc31):
    assert betti_numbers(sc31, 3) == ce_oracle(ordinary_sl_basis(3), 3) == [1, 0, 0, 1]


def test_oracle_frozen_values():
    sl2 = ordinary_sl_basis(2)
    assert ce_oracle(sl2, 3) == [1, 0, 0, 1]
    assert ce_oracle(ordinary_sl_basis(3), 3) == [1, 0, 0, 1]
    assert ce_oracle(ordinary_abelian_basis(1), 1) == [1, 1]
    # Kuenneth check: two commuting copies double the top class
    assert ce_oracle(ordinary_direct_sum(sl2, sl2), 3) == [1, 0, 0, 2]


def test_degree_cap_is_enforced(sc21):
    with pytest.raises(DegreeCapExceeded):
        differential_matrix(sc21, 4)
    with pytest.raises(DegreeCapExceeded):
        differential_matrix(sc21, 3, max_degree=3)
    with pytest.raises(DegreeCapExceeded):
        betti_numbers(sc21, 4)
    with pytest.raises(ValueError):
        differential_matrix(sc21, -1)


def test_oversized_differential_is_refused_up_front(sc21, sc31, monkeypatch):
    assert differential_entries(sc21, 3) == 1728 * 792 <= DIFFERENTIAL_ENTRIES_CAP
    assert differential_entries(sc31, 3) == 32256 * 8720 <= DIFFERENTIAL_ENTRIES_CAP
    sc32 = constants_for(3, 2)
    assert differential_entries(sc32, 3) == 350400 * 57800 > DIFFERENTIAL_ENTRIES_CAP
    with pytest.raises(DifferentialTooLarge):
        differential_matrix(sc32, 3)
    assert ("differential", 3) not in sc32.cache
    limit = differential_entries(sc21, 3)
    monkeypatch.setattr(cohomology, "DIFFERENTIAL_ENTRIES_CAP", limit)
    assert differential_matrix(sc21, 3).dim == 792
    monkeypatch.setattr(cohomology, "DIFFERENTIAL_ENTRIES_CAP", limit - 1)
    with pytest.raises(DifferentialTooLarge):
        differential_matrix(sc21, 3)


def test_caches_belong_to_their_constants(sc20, sc30):
    data = differential_matrix(sc20, 0)
    assert differential_matrix(sc20, 0) is data
    fresh = constants_for(2, 0)
    assert fresh.cache == {} and fresh == sc20
    other = differential_matrix(fresh, 0)
    assert other is not data
    assert other.matrix.columns == data.matrix.columns
    assert differential_matrix(sc30, 0).dim != data.dim
    # a passed adaptedness check is tied to the body object it was run with
    ensure_body_adapted(sc20, sc20)
    assert all(v is sc20 for k, v in sc20.cache.items() if k[0] == "body_adapted")
    with pytest.raises(ValueError):
        ensure_body_adapted(sc20, sc30)
    with pytest.raises(ValueError):
        ensure_body_adapted(sc20, sc30)


def test_standard_small_split_basis_is_body_adapted(sc21, sc20):
    ensure_body_adapted(sc21, sc20)


def test_reversed_split_needs_the_adapted_basis(sc12, sc12_adapted, sc20):
    with pytest.raises(ValueError):
        ensure_body_adapted(sc12, sc20)
    ensure_body_adapted(sc12_adapted, sc20)
    assert betti_numbers(sc12_adapted, 2) == [1, 0, 0]


def test_body_projection_is_a_chain_map(sc21, sc20):
    rng = random.Random(47)
    for p in range(0, 3):
        for _ in range(4):
            w = rand_form(rng, sc21, p)
            lhs = body_map_forms(sc21, sc20, exterior_derivative(sc21, w))
            rhs = exterior_derivative(sc20, body_map_forms(sc21, sc20, w))
            assert lhs == rhs


def test_body_projection_is_surjective(sc21, sc20):
    for p in range(4):
        bm = body_map_matrix(sc21, sc20, p)
        assert bm.nrows == len(form_basis_labels(sc20, p))
        assert bm.rank() == bm.nrows
    assert [body_map_matrix(sc21, sc20, p).nrows for p in range(4)] == [4, 12, 12, 4]


def test_cocycle_representatives_span_cohomology(sc21):
    for p in range(4):
        reps = cocycle_representatives(sc21, p)
        assert len(reps) == betti_numbers(sc21, p)[p]
    # top representatives are honest cocycles independent of coboundaries
    data = differential_matrix(sc21, 3)
    prev = differential_matrix(sc21, 2)
    ech = SparseEchelon(data.dim)
    for col in prev.matrix.columns:
        ech.add_row(
            sparse_row_from_fractions(
                {i: v.as_fraction() for i, v in col.items()}
            )
        )
    for vec in cocycle_representatives(sc21, 3):
        sparse = {i: Scalar.of(x) for i, x in enumerate(vec) if x}
        assert data.matrix.apply(sparse) == {}
        row = sparse_row_from_fractions({i: x for i, x in enumerate(vec) if x})
        assert ech.add_row(row)


def test_body_map_is_injective_on_top_cohomology(sc21, sc20):
    assert body_h_map_injective(sc21, sc20, 3)
    assert body_h_map_injective(sc21, sc20, 0)


def test_vector_field_descent_round_trip(sc21, sc20):
    d = DerivationVector.from_coords(sc20, [1, 2, 0])
    up = embed_vector_field(sc21, sc20, d)
    assert body_vector_field(sc21, sc20, up).coords == d.coords
    odd = DerivationVector.basis(sc21, 5)
    with pytest.raises(ValueError):
        body_vector_field(sc21, sc20, odd)
