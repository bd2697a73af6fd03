import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat import cohomology, linalg
from gradedmat.basis import HomogeneousBasis, build_sl_basis
from gradedmat.cli import main
from gradedmat.cohomology import (
    EMPTY_DEGREE_LABELS,
    HELD_LABELS_CAP,
    CertificateError,
    DifferentialTooLarge,
    betti_numbers,
    body_h_map_injective,
    body_map_forms,
    body_map_matrix,
    body_vector_field,
    chain_degrees,
    cocycle_representatives,
    differential_matrix,
    ensure_body_adapted,
    held_labels,
)
from gradedmat.constants import compute_constants, constants_for
from gradedmat.formspace import FormBasis, LinearMapMatrix, _decode, basis_form, d_matrix
from gradedmat.forms import (
    DerivationVector,
    GradedForm,
    exterior_derivative,
    interior_product,
)
from gradedmat.indexset import enumerate_multi_indices, index_count
from gradedmat.linalg import SparseEchelon
from tests.ce_oracle import (
    ce_oracle, ordinary_abelian_basis, ordinary_direct_sum, ordinary_sl_basis,
)
from tests.helpers import rand_form, reference_kernel
from tests.reference import embed_vector_field, from_coords


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


def test_even_only_complex_through_degree_5_matches_sl3_oracle():
    # sl(3) has classes in degrees 0, 3, 5 and 8
    sc = constants_for(3, 0)
    want = ce_oracle(ordinary_sl_basis(3), 5)
    assert want == [1, 0, 0, 1, 0, 1]
    assert betti_numbers(sc, 5) == want


def test_graded_complex_at_3_1_matches_body_sl3_oracle(sc31):
    assert betti_numbers(sc31, 3) == ce_oracle(ordinary_sl_basis(3), 3) == [1, 0, 0, 1]


def test_oracle_frozen_values():
    sl2 = ordinary_sl_basis(2)
    assert ce_oracle(sl2, 3) == [1, 0, 0, 1]
    assert ce_oracle(ordinary_sl_basis(3), 3) == [1, 0, 0, 1]
    assert ce_oracle(ordinary_abelian_basis(1), 1) == [1, 1]
    # Kuenneth check: two commuting copies double the top class
    assert ce_oracle(ordinary_direct_sum(sl2, sl2), 3) == [1, 0, 0, 2]


def dims(n, m):
    """What ``held_labels`` reads of the constants of sl(n|m), by arithmetic."""
    return SimpleNamespace(n=n, m=m, even_dim=n * n + m * m - 1, odd_dim=2 * n * m)


def test_held_labels_counts_the_labels_of_degrees_0_to_p_plus_1(sc21, sc20):
    assert (dims(2, 1).even_dim, dims(2, 1).odd_dim) == (sc21.even_dim, sc21.odd_dim)
    for p in range(4):
        assert held_labels(sc21, p) == sum(len(FormBasis(sc21, q)) for q in range(p + 2))
    # sl(2) has no forms above degree 3; each empty degree counts as 5 labels
    assert [len(FormBasis(sc20, q)) for q in range(6)] == [4, 12, 12, 4, 0, 0]
    assert [held_labels(sc20, p) for p in range(5)] == [16, 28, 32, 37, 42]


def test_the_cap_is_enforced(sc21, monkeypatch):
    with pytest.raises(ValueError):
        differential_matrix(sc21, -1)
    # d_16 at (2|1) is refused on its own, before any degree is built
    with pytest.raises(DifferentialTooLarge, match="d at degree 16"):
        differential_matrix(sc21, 16)
    assert ("differential", 16) not in sc21.cache
    assert ("form_tuples", 17) not in sc21.cache
    # a run stopped by the cap keeps the degrees before
    monkeypatch.setattr(cohomology, "HELD_LABELS_CAP", held_labels(sc21, 3) - 1)
    got = []
    with pytest.raises(DifferentialTooLarge, match="d at degree 3"):
        for _, b in chain_degrees(sc21, 3):
            got.append(b)
    assert got == [1, 0, 0]
    with pytest.raises(DifferentialTooLarge):
        betti_numbers(sc21, 3)


def test_oversized_differential_is_refused_up_front(sc21, monkeypatch):
    sc52 = constants_for(5, 2)
    assert held_labels(sc52, 1) <= HELD_LABELS_CAP < held_labels(sc52, 2) == 953197
    with pytest.raises(DifferentialTooLarge):
        differential_matrix(sc52, 2)
    assert ("differential", 2) not in sc52.cache
    assert ("form_tuples", 3) not in sc52.cache
    limit = held_labels(sc21, 3)
    monkeypatch.setattr(cohomology, "HELD_LABELS_CAP", limit)
    assert differential_matrix(sc21, 3).dim == 792
    monkeypatch.setattr(cohomology, "HELD_LABELS_CAP", limit - 1)
    with pytest.raises(DifferentialTooLarge):
        differential_matrix(sc21, 3)


def test_a_run_of_empty_degrees_is_refused(sc20, monkeypatch):
    # 4 (1 + 3 + 3 + 1) + 5 (p - 2) labels through degree p + 1: 97 at p = 15
    monkeypatch.setattr(cohomology, "HELD_LABELS_CAP", 100)
    assert held_labels(sc20, 15) == 97 <= 100 < held_labels(sc20, 16) == 102
    got = []
    with pytest.raises(DifferentialTooLarge, match="d at degree 16"):
        for _, b in chain_degrees(sc20, 10 ** 9):
            got.append(b)
    assert got == [1, 0, 0, 1] + [0] * 12
    assert ("differential", 16) not in sc20.cache


def test_an_empty_degree_is_charged_the_floor_at_1_0(monkeypatch):
    # sl(1|0) is zero: degree 0 holds 1 label, every degree above is empty
    sc10 = constants_for(1, 0)
    assert [held_labels(sc10, p) for p in range(3)] == [6, 11, 16]
    monkeypatch.setattr(cohomology, "HELD_LABELS_CAP", 30)
    got = []
    with pytest.raises(DifferentialTooLarge, match="d at degree 5"):
        for _, b in chain_degrees(sc10, 10 ** 9):
            got.append(b)
    assert got == [1, 0, 0, 0, 0]


def first_refused(sc):
    """The first degree p whose d_p the cap refuses; the count rises with p."""
    lo, hi = 0, HELD_LABELS_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if held_labels(sc, mid) > HELD_LABELS_CAP:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_runs_of_empty_degrees_stop_no_later_than_at_2_0():
    # (2|0) to --max-degree 10**9 stopped at degree 124995 when an empty
    # degree counted as 2^2 labels, and peaked at 447 MB
    def charged_2_2(p):
        return 4 * (1 + 3 + 3 + 1 + p - 2)

    assert charged_2_2(124994) <= HELD_LABELS_CAP < charged_2_2(124995)
    assert first_refused(dims(2, 0)) == 99996
    assert first_refused(dims(1, 0)) == 99999 <= 124995
    for n in range(1, 9):
        assert first_refused(dims(n, 0)) <= HELD_LABELS_CAP // EMPTY_DEGREE_LABELS, n


def test_the_guard_admits_every_run_the_old_caps_admitted():
    # the old caps admitted d_p when p + 1 <= 4 and d_p had at most 400,000
    # rows (the labels of degree p + 1)
    largest = 0
    for n in range(1, 9):
        for m in range(0, 9 - n):
            if n == m:
                continue
            sc = dims(n, m)
            for p in range(4):
                rows = index_count(sc.even_dim, sc.odd_dim, p + 1) * (n + m) ** 2
                if rows <= 400_000:
                    assert held_labels(sc, p) <= HELD_LABELS_CAP, (n, m, p)
                    largest = max(largest, held_labels(sc, p))
    assert largest == held_labels(dims(3, 2), 3) == held_labels(dims(2, 3), 3) == 416025


def test_held_labels_edge_table():
    for n, m, p, labels, admitted in [
        (3, 2, 3, 416025, True),
        (2, 3, 3, 416025, True),
        (4, 1, 3, 384875, True),
        (2, 1, 15, 450441, True),
        (3, 1, 5, 387072, True),
        (2, 1, 16, 569169, False),
        (3, 1, 6, 944640, False),
        (4, 2, 3, 2511648, False),
        (5, 1, 3, 2372436, False),
        (5, 2, 2, 953197, False),
    ]:
        assert held_labels(dims(n, m), p) == labels, (n, m, p)
        assert (labels <= HELD_LABELS_CAP) == admitted, (n, m, p)
        # the count rises with p, so admitting d_p admits every degree below
        assert all(held_labels(dims(n, m), q) < labels for q in range(p))


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
        assert bm.nrows == len(FormBasis(sc20, p))
        assert bm.rank() == bm.nrows
    assert [body_map_matrix(sc21, sc20, p).nrows for p in range(4)] == [4, 12, 12, 4]


@pytest.mark.parametrize("name", ["sc21", "sc12", "sc30"])
def test_cocycle_representatives_span_cohomology(name, request):
    # the representatives come from the zero-weight block; hold them to all
    # of d_p and to the whole image of d_(p-1)
    sc = request.getfixturevalue(name)
    betti = betti_numbers(sc, 3)
    for p in range(4):
        data = differential_matrix(sc, p)
        reps = cocycle_representatives(sc, p)
        assert len(reps) == betti[p], (name, p)
        ech = SparseEchelon()
        if p > 0:
            for col in differential_matrix(sc, p - 1).matrix.columns:
                ech.add_row(col)
        for vec in reps:
            assert all(0 <= j < data.dim for j in vec)
            assert linalg.combine(data.matrix.columns, vec) == {}, (name, p)
            assert ech.add_row(vec), (name, p)


@pytest.mark.parametrize("name, p", [("sc21", 3), ("sc12", 3), ("sc31", 3)])
def test_cocycle_representatives_are_integer_cocycles_of_d_p(name, p, request):
    sc = request.getfixturevalue(name)
    data = differential_matrix(sc, p)
    reps = cocycle_representatives(sc, p)
    assert len(reps) == 1
    for vec in reps:
        # nonzero ints at zero-weight positions of degree p, content cleared
        assert vec and all(type(v) is int and v for v in vec.values())
        assert set(vec) <= set(data.zero_block.basis.positions)
        assert math.gcd(*vec.values()) == 1
        # d_p kills it exactly: the integer numerators sum to 0 in every row
        image = {}
        for j, x in vec.items():
            for i, v in data.matrix.columns[j].items():
                image[i] = image.get(i, 0) + x * v
        assert not any(image.values()), (name, p)


@pytest.mark.parametrize("name", ["sc21", "sc12_adapted"])
def test_body_map_is_injective_on_top_cohomology(name, sc20, request):
    sc = request.getfixturevalue(name)
    for p in range(4):
        assert body_h_map_injective(sc, sc20, p), (name, p)


def test_body_map_sending_h3_to_zero_is_not_injective(sc21, sc20, monkeypatch):
    monkeypatch.setattr(cohomology, "body_map_forms",
                        lambda sc, sc_body, form: GradedForm.zero(sc_body, form.degree))
    assert not body_h_map_injective(sc21, sc20, 3)


def test_vector_field_descent_round_trip(sc21, sc20):
    d = from_coords(sc20, [1, 2, 0])
    up = embed_vector_field(sc21, sc20, d)
    assert body_vector_field(sc21, sc20, up).coords == d.coords
    odd = DerivationVector.basis(sc21, 5)
    with pytest.raises(ValueError):
        body_vector_field(sc21, sc20, odd)


# ---- ranks through the weight grading ------------------------------------


def weight_of_label(sc, label):
    """eps_r - eps_c - sum wt(E_A), each wt read off the element's entries."""
    key, r, c = label
    k = sc.n + sc.m
    out = [0] * k
    out[r] += 1
    out[c] -= 1
    for A in key:
        (wt,) = {(i, j) for i, j, _ in sc.basis.elements[A].nonzeros()
                 if i != j} or {None}
        if wt is not None:
            out[wt[0]] -= 1
            out[wt[1]] += 1
    return tuple(out)


def first_contracting_element(sc, weight):
    """The first diagonal basis element h with weight(h) != 0, and weight(h)."""
    for h, e in enumerate(sc.basis.elements):
        nz = e.nonzeros()
        if all(i == j for i, j, _ in nz):
            val = sum(weight[i] * v.re for i, _, v in nz)
            if val:
                return h, val
    raise AssertionError(f"no diagonal element acts on {weight}")


def table_weight(sc, q, index):
    """The weight of label ``index`` of degree q from the certificate's tables."""
    basis = FormBasis(sc, q)
    t, u = basis.split(index)
    tuple_w, unit_w = basis.weights()
    return tuple(_decode(tuple_w[t] + unit_w[u], basis.k))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_column_of_d_stays_in_its_weight(sc21, sc12, sc31, sc20, data):
    sc = data.draw(st.sampled_from([sc21, sc12, sc31, sc20]), label="algebra")
    p = data.draw(st.integers(0, 3), label="p")
    mat = differential_matrix(sc, p).matrix
    j = data.draw(st.integers(0, mat.ncols - 1), label="column")
    want = weight_of_label(sc, mat.basis[j])
    assert table_weight(sc, p, j) == want
    out = FormBasis(sc, p + 1)
    for i in mat.columns[j]:
        assert weight_of_label(sc, out[i]) == want
        assert table_weight(sc, p + 1, i) == want


@pytest.mark.parametrize("name, top", [
    ("sc21", 3), ("sc12", 3), ("sc20", 3), ("sc30", 3), ("sc31", 2),
])
def test_certified_ranks_equal_full_elimination(name, top, request):
    sc = request.getfixturevalue(name)
    k = sc.n + sc.m
    for p in range(top + 1):
        data = differential_matrix(sc, p)
        assert data.rank() == data.matrix.rank(), (name, p)
        # weight by weight, against the exact rank of each column block
        blocks = {}
        for j, lab in enumerate(data.matrix.basis):
            blocks.setdefault(weight_of_label(sc, lab), []).append(j)
        got = {tuple(_decode(code, k)): r
               for code, r in data.weight_ranks.items()}
        assert set(got) == set(blocks)
        for wt, cols in blocks.items():
            assert got[wt] == block_rank(data.matrix, cols), (name, p, wt)


def test_closed_form_contraction_matches_interior_product(sc21):
    cartan = [h for h, e in enumerate(sc21.basis.elements)
              if all(i == j for i, j, _ in e.nonzeros())]
    assert cartan == [2, 3]
    checked = 0
    for p in range(1, 4):
        tuples = enumerate_multi_indices(sc21.even_dim, sc21.odd_dim, p)
        lower = FormBasis(sc21, p - 1)
        table = cohomology._contractions(sc21, p)
        for h in cartan:
            dh = DerivationVector.basis(sc21, h)
            for lab in FormBasis(sc21, p):
                key, r, c = lab
                hit = table[tuples.index(key)].get(h)
                if hit is None:
                    assert h not in key
                    want = GradedForm.zero(sc21, p - 1)
                else:
                    want = basis_form(sc21, (lower[hit[0]][0], r, c)).scale(hit[1])
                assert interior_product(dh, basis_form(sc21, lab)) == want, (lab, h)
                checked += 1
    assert checked == 2 * (72 + 288 + 792)


def block_rank(mat, cols):
    """The exact rank of ``mat`` on the columns ``cols``: the rank of those
    columns taken as rows."""
    return linalg.exact_rank([mat.columns[j] for j in cols], mat.nrows)


def mutated(data, j, i, value):
    """d_p of ``data`` with the numerator ``value`` at row i of column j."""
    cols = list(data.matrix.columns)
    cols[j] = dict(cols[j])
    cols[j][i] = value
    if not value:
        del cols[j][i]  # columns hold nonzero numerators only
    return LinearMapMatrix(data.matrix.basis, data.matrix.nrows, cols, data.matrix.den)


def certify(sc, p, mat):
    """The certificate of ``mat`` as d_p against the certified degree p-1."""
    prev = differential_matrix(sc, p - 1) if p else None
    return cohomology._certified_ranks(sc, p, mat, prev)


def certified_rank(sc, p, mat):
    """The rank of ``mat`` from the certificate and the zero-block elimination."""
    ranks = certify(sc, p, mat)
    return sum(ranks.values()) + block_rank(mat, mat.basis.zero_weight().positions)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_changing_one_entry_of_a_column_fails_the_certificate(
    sc21, data
):
    p = data.draw(st.integers(0, 3), label="p")
    chain = differential_matrix(sc21, p)
    den = chain.matrix.den
    j = data.draw(st.integers(0, chain.dim - 1), label="column")
    weight = weight_of_label(sc21, chain.matrix.basis[j])
    out = FormBasis(sc21, p + 1)
    # a new entry in a row of another weight, on any column
    other = [i for i, lab in enumerate(out) if weight_of_label(sc21, lab) != weight]
    i = data.draw(st.sampled_from(other), label="foreign row")
    with pytest.raises(CertificateError, match="outside the column's weight"):
        certify(sc21, p, mutated(chain, j, i, den))
    if any(weight):
        h, _ = first_contracting_element(sc21, weight)
        key, r, c = chain.matrix.basis[j]
        col = chain.matrix.columns[j]
        # the entries the homotopy identity reads (their row's tuple holds
        # h): the one it compares with lambda(h) x, and those that cancel
        read = sorted(i for i in col if h in out[i][0])
        assert read
        diagonal = (tuple(sorted(key + (h,))), r, c)
        for group in ([i for i in read if out[i] == diagonal],
                      [i for i in read if out[i] != diagonal]):
            if not group:
                continue
            i = data.draw(st.sampled_from(group), label="row")
            delta = data.draw(st.sampled_from([den, -den, den // 2]),
                              label="delta")
            with pytest.raises(CertificateError, match=f"d at degree {p}, column"):
                certify(sc21, p, mutated(chain, j, i, col[i] + delta))
    # the unmutated degree still certifies, to the record's ranks
    ranks = certify(sc21, p, chain.matrix)
    assert ranks == {w: r for w, r in chain.weight_ranks.items() if w}
    assert certified_rank(sc21, p, chain.matrix) == chain.matrix.rank()


def test_the_homotopy_check_reads_the_terms_that_must_cancel(sc21):
    # rows holding h other than the one compared with lambda(h) x: their
    # images under i_h must cancel against d_(p-1) (i_h x)
    for p in (2, 3):
        chain = differential_matrix(sc21, p)
        out = FormBasis(sc21, p + 1)
        tried = 0
        for j, (key, r, c) in enumerate(chain.matrix.basis):
            weight = weight_of_label(sc21, (key, r, c))
            if not any(weight):
                continue
            h, _ = first_contracting_element(sc21, weight)
            col = chain.matrix.columns[j]
            diagonal = (tuple(sorted(key + (h,))), r, c)
            cancelling = [i for i in col if h in out[i][0] and out[i] != diagonal]
            if not cancelling:
                continue
            i = cancelling[0]
            with pytest.raises(CertificateError, match="i_h d \\+ d i_h"):
                certify(sc21, p, mutated(chain, j, i, col[i] + chain.matrix.den))
            tried += 1
            if tried == 8:
                break
        assert tried == 8


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_changed_entry_that_passes_the_certificate_keeps_the_rank_exact(
    sc21, data
):
    # d_p d_(p-1) = 0 closes what the homotopy leaves open: an entry in a row
    # the identity never reads either fails the certificate or leaves the
    # certified rank equal to full elimination of the changed matrix
    p = data.draw(st.integers(1, 3), label="p")
    chain = differential_matrix(sc21, p)
    j = data.draw(st.integers(0, chain.dim - 1), label="column")
    weight = weight_of_label(sc21, chain.matrix.basis[j])
    same = [i for i, lab in enumerate(FormBasis(sc21, p + 1))
            if weight_of_label(sc21, lab) == weight]
    i = data.draw(st.sampled_from(same), label="row")
    old = chain.matrix.columns[j].get(i, 0)
    den = chain.matrix.den
    delta = data.draw(st.sampled_from([den, -den, den // 2]), label="delta")
    changed = mutated(chain, j, i, old + delta)
    try:
        got = certified_rank(sc21, p, changed)
    except CertificateError:
        return
    assert got == changed.rank()


def test_the_certificate_refuses_d_over_another_denominator():
    # the same values of d_0 over twice the denominator: the homotopy sums
    # numerators of d_0 and d_1, so they must share one denominator
    sc = constants_for(2, 0)
    prev = differential_matrix(sc, 0)
    mat = prev.matrix
    doubled = LinearMapMatrix(
        mat.basis, mat.nrows,
        [{i: 2 * v for i, v in col.items()} for col in mat.columns], 2 * mat.den,
    )
    with pytest.raises(CertificateError, match="denominator 2, d at degree 0 over 4"):
        cohomology._certified_ranks(
            sc, 1, d_matrix(FormBasis(sc, 1)), prev._replace(matrix=doubled)
        )
    assert certify(sc, 1, d_matrix(FormBasis(sc, 1)))


def test_one_zero_block_per_degree(sc21):
    data = differential_matrix(sc21, 3)
    assert differential_matrix(sc21, 3) is data
    with pytest.raises(AttributeError):
        data.zero_block = None
    block = data.zero_block
    assert block.den == data.matrix.den
    assert block.basis == data.matrix.basis.zero_weight()
    assert block.columns == [data.matrix.columns[j] for j in block.basis.positions]
    rows = block.int_rows()
    assert len(cocycle_representatives(sc21, 3)) == 1
    assert data.zero_block.int_rows() is rows


@pytest.mark.parametrize("name", ["sc21", "sc12", "sc31"])
def test_zero_block_kernel_equals_the_rational_back_substitution(name, request):
    block = differential_matrix(request.getfixturevalue(name), 3).zero_block
    assert block.kernel() == reference_kernel(block.int_rows(), block.ncols)


def test_cocycles_reuse_the_elimination_of_the_rank(sc21, monkeypatch):
    data = differential_matrix(sc21, 3)
    image_rank = differential_matrix(sc21, 2).zero_block.rank()
    made = []
    init = SparseEchelon.__init__

    def counting(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(SparseEchelon, "__init__", counting)
    assert len(cocycle_representatives(sc21, 3)) == 1
    # the one echelon made is the independence test's: the zero-weight
    # image of d_2 and the one class past it; the block is not eliminated
    assert len(made) == 1
    assert made[0].rank == image_rank + 1
    # the block's rank and a second kernel read the echelon its rank built
    block = data.zero_block
    assert block.rank() == block.ncols - len(block.kernel())
    assert len(made) == 1


def test_cartan_elements_are_built_once_per_constants(monkeypatch):
    real = cohomology._cartan_elements
    seen = []

    def spy(sc):
        seen.append(real(sc))
        return seen[-1]

    monkeypatch.setattr(cohomology, "_cartan_elements", spy)
    sc = constants_for(2, 0)
    assert [data.p for data, _ in chain_degrees(sc, 50)] == list(range(51))
    # read twice per degree, built once: every read returns the cached list
    assert len(seen) == 102
    assert all(got is sc.cache[("cartan_elements",)] for got in seen)


def test_a_failed_certificate_caches_nothing(monkeypatch):
    # flipped contraction signs of 3-tuples fail the certificate of d_2
    real = cohomology._contractions

    def flipped(sc, q):
        got = real(sc, q)
        if q != 3:
            return got
        return [{h: (i, -sign) for h, (i, sign) in t.items()} for t in got]

    monkeypatch.setattr(cohomology, "_contractions", flipped)
    sc = constants_for(2, 1)
    for _ in range(2):
        with pytest.raises(CertificateError, match="d at degree 2, column"):
            differential_matrix(sc, 2).rank()
        assert ("differential", 2) not in sc.cache
        assert ("differential", 1) in sc.cache
    # with the fault gone the degree is built afresh, not read back
    monkeypatch.undo()
    assert differential_matrix(sc, 2).rank() == 224


def test_a_basis_element_that_is_not_a_weight_vector_is_refused():
    std = build_sl_basis(2, 1)
    e01, e10 = std.elements[0], std.elements[1]
    elements = (e01 + e10, e01 - e10) + std.elements[2:]
    basis = HomogeneousBasis(2, 1, elements, std.parities)
    basis.validate()
    sc = compute_constants(basis)
    with pytest.raises(ValueError, match="basis element 0 is not a weight vector"):
        differential_matrix(sc, 1)
    assert not any(key[0] == "differential" for key in sc.cache)
    assert d_matrix(FormBasis(sc, 1)).rank() == 64


def test_failed_certificate_exits_1_naming_degree_and_label(monkeypatch, capsys):
    real = cohomology._cartan_elements

    def doubled(sc):
        return [(h, [2 * x for x in diag], den) for h, diag, den in real(sc)]

    monkeypatch.setattr(cohomology, "_cartan_elements", doubled)
    code = main(["cohomology", "--n", "2", "--m", "1", "--max-degree", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("gradedmat cohomology: d at degree 0, column ((), 0, 1): ")
    assert "i_h d + d i_h" in err


def test_certificate_failing_at_degree_2_exits_1_after_two_degrees(
    monkeypatch, capsys
):
    # flip the contraction signs of 3-tuples: only the certificate of d_2,
    # which contracts its rows, reads them before d_3 does
    real = cohomology._contractions

    def flipped(sc, q):
        got = real(sc, q)
        if q != 3:
            return got
        return [{h: (i, -sign) for h, (i, sign) in t.items()} for t in got]

    monkeypatch.setattr(cohomology, "_contractions", flipped)
    seen = []
    with pytest.raises(CertificateError, match="d at degree 2, column"):
        for data, _ in cohomology.chain_degrees(constants_for(2, 1), 3):
            seen.append(data.p)
    assert seen == [0, 1]
    code = main(["cohomology", "--n", "2", "--m", "1", "--max-degree", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("gradedmat cohomology: d at degree 2, column ")
    assert "i_h d + d i_h" in err
