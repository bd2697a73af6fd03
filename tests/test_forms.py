import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat import forms, linalg
from gradedmat.basis import HomogeneousBasis
from gradedmat.constants import StructureConstants, constants_for
from gradedmat.forms import (
    DerivationVector,
    GradedForm,
    canonical_one_form,
    derivation_bracket,
    differential_of_element,
    evaluate,
    evaluate_on_basis,
    exterior_derivative,
    exterior_derivative_generators,
    frame_form,
    interior_product,
    lie_derivative,
    wedge,
    wedge_form_matrix,
    wedge_matrix_form,
)
from gradedmat.formspace import FormBasis, form_to_sparse, lie_matrix
from gradedmat.indexset import (
    canonicalize,
    commutation_factor,
    enumerate_multi_indices,
    index_parity,
    permutation_sign,
)
from gradedmat.matrices import GradedMatrix, graded_commutator
from gradedmat.sampling import random_form
from gradedmat.scalars import Scalar
from gradedmat.verify import (
    contraction_anticommutation,
    contraction_leibniz,
    d_commutes_with_lie,
    d_leibniz,
    d_squared,
    element_structure_equation,
    frame_inversion,
    homotopy_formula,
    lie_leibniz,
    mixed_relation,
    structure_equation,
    theta_invariance,
)
from tests.helpers import (
    nonzero,
    rand_form,
    rand_matrix,
    rand_scalar,
    ref_interior,
    sparse_values,
)
from tests.reference import coefficients_from_values, from_coords, parity_twist

IDM = GradedMatrix.identity(2, 1)


def theta_value(sc, indices, args):
    """Evaluate a frame monomial straight from the permutation-sum formula.

    Recursive and slow; exists only to cross-check the production
    evaluator, which extracts one frame factor per step instead.
    """
    ne = sc.even_dim
    p = len(indices)
    if p == 0:
        return Fraction(1)
    if p == 1:
        return Fraction(1 if indices[0] == args[0] else 0)
    par_rest = sum(index_parity(i, ne) for i in indices[1:]) % 2
    degs = [index_parity(a, ne) for a in args]
    total = Fraction(0)
    for sigma in itertools.permutations(range(p)):
        if indices[0] != args[sigma[0]]:
            continue
        sgn = permutation_sign(sigma)
        gam = commutation_factor(sigma, degs)
        s2 = -1 if (par_rest and degs[sigma[0]]) else 1
        rest = theta_value(
            sc, indices[1:], tuple(args[sigma[l]] for l in range(1, p))
        )
        total += sgn * gam * s2 * rest
    return total / math.factorial(p - 1)


def test_monomial_evaluation_matches_permutation_sum(sc21):
    dim = sc21.dim
    for p in range(0, 3):
        for key in enumerate_multi_indices(4, 4, p):
            form = GradedForm.of(sc21, p, {key: IDM})
            for args in itertools.product(range(dim), repeat=p):
                got = evaluate_on_basis(form, args)
                assert got == IDM.scale(theta_value(sc21, key, args))
    # degree 3 is too wide for the recursive oracle; seeded spot checks
    rng = random.Random(11)
    keys3 = enumerate_multi_indices(4, 4, 3)
    for key in rng.sample(keys3, 8):
        form = GradedForm.of(sc21, 3, {key: IDM})
        for _ in range(40):
            args = tuple(rng.randrange(dim) for _ in range(3))
            got = evaluate_on_basis(form, args)
            assert got == IDM.scale(theta_value(sc21, key, args))


def test_odd_square_self_evaluation(sc21):
    # theta^A ^ theta^A is nonzero for odd A, and its self-evaluation
    # carries a factor -2: one crossing sign and two equal summands
    w = GradedForm.of(sc21, 2, {(4, 4): IDM})
    assert evaluate_on_basis(w, (4, 4)) == IDM.scale(-2)
    iv = interior_product(DerivationVector.basis(sc21, 4), w)
    assert iv.coeffs == {(4,): IDM.scale(-2)}
    # extraction undoes the self-evaluation factor exactly
    rt = coefficients_from_values(lambda K: evaluate_on_basis(w, K), 2, sc21)
    assert rt == w


def test_forms_refuse_a_coefficient_of_another_shape(sc21):
    with pytest.raises(ValueError, match="shape"):
        GradedForm.of(sc21, 1, {(0,): GradedMatrix.identity(3, 1)})
    with pytest.raises(ValueError, match="shape"):
        wedge_matrix_form(GradedMatrix.identity(1, 2), frame_form(sc21, 0))


def test_interior_product_rejects_zero_forms(sc21):
    with pytest.raises(ValueError):
        interior_product(
            DerivationVector.basis(sc21, 0), GradedForm.from_matrix(sc21, IDM)
        )


def test_value_coefficient_round_trip(sc21):
    rng = random.Random(7)
    for p in range(0, 4):
        for _ in range(3):
            w = rand_form(rng, sc21, p)
            rt = coefficients_from_values(
                lambda K: evaluate_on_basis(w, K),
                p,
                sc21,
                spot_check_alternating=True,
            )
            assert rt == w


def wedge_oracle(sc, w1, w2, args):
    """Permutation-sum wedge evaluation for a parity-homogeneous w2."""
    ne = sc.even_dim
    p1, p2 = w1.degree, w2.degree
    par2 = w2.homogeneous_parity()
    assert par2 is not None
    degs = [index_parity(a, ne) for a in args]
    p = p1 + p2
    tot = GradedMatrix.zero(sc.n, sc.m)
    for sigma in itertools.permutations(range(p)):
        sgn = permutation_sign(sigma)
        gam = commutation_factor(sigma, degs)
        lead = sum(degs[sigma[l]] for l in range(p1)) % 2
        s2 = -1 if (par2 and lead) else 1
        v1 = evaluate_on_basis(w1, tuple(args[sigma[l]] for l in range(p1)))
        if v1.is_zero():
            continue
        v2 = evaluate_on_basis(w2, tuple(args[sigma[l]] for l in range(p1, p)))
        if v2.is_zero():
            continue
        tot = tot + (v1 @ v2).scale(Scalar.of(sgn * gam * s2))
    return tot.scale(Fraction(1, math.factorial(p1) * math.factorial(p2)))


def test_wedge_matches_permutation_sum(sc21):
    rng = random.Random(13)
    dim = sc21.dim
    for p1, p2 in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for _ in range(3):
            w1 = rand_form(rng, sc21, p1)
            w2 = rand_form(rng, sc21, p2, homog=rng.randint(0, 1))
            ww = wedge(w1, w2)
            for _ in range(10):
                args = tuple(rng.randrange(dim) for _ in range(p1 + p2))
                assert evaluate_on_basis(ww, args) == wedge_oracle(
                    sc21, w1, w2, args
                )


def test_wedge_associativity(sc21):
    rng = random.Random(17)
    w1 = rand_form(rng, sc21, 1)
    w2 = rand_form(rng, sc21, 1)
    w3 = rand_form(rng, sc21, 2)
    assert wedge(wedge(w1, w2), w3) == wedge(w1, wedge(w2, w3))


def test_center_valued_forms_graded_commute(sc21):
    # unit-valued monomials commute up to (-1)^{p p' + par par'}
    for pa, par_a in [(1, 0), (1, 1), (2, 0)]:
        for pb, par_b in [(1, 0), (1, 1), (2, 1)]:
            keys_a = [
                k
                for k in enumerate_multi_indices(4, 4, pa)
                if sum(index_parity(i, 4) for i in k) % 2 == par_a
            ]
            keys_b = [
                k
                for k in enumerate_multi_indices(4, 4, pb)
                if sum(index_parity(i, 4) for i in k) % 2 == par_b
            ]
            wa = GradedForm.of(sc21, pa, {keys_a[0]: IDM})
            wb = GradedForm.of(sc21, pb, {keys_b[-1]: IDM.scale(2)})
            sign = (-1) ** (pa * pb + par_a * par_b)
            assert wedge(wa, wb) == wedge(wb, wa).scale(sign)


def test_matrix_wedges_match_embedded_zero_form(sc21):
    rng = random.Random(19)
    for p in (1, 2):
        for _ in range(4):
            w = rand_form(rng, sc21, p)
            mat = rand_matrix(rng, sc21)
            f0 = GradedForm.from_matrix(sc21, mat)
            assert wedge_matrix_form(mat, w) == wedge(f0, w)
            assert wedge_form_matrix(w, mat) == wedge(w, f0)


def test_derivative_routes_agree(sc21):
    rng = random.Random(23)
    coeff_pool = [IDM, sc21.basis.elements[0], sc21.basis.elements[5]]
    for p in range(0, 3):
        for key in enumerate_multi_indices(4, 4, p):
            for mat in coeff_pool + [rand_matrix(rng, sc21)]:
                w = GradedForm.of(sc21, p, {key: mat})
                assert exterior_derivative(sc21, w) == (
                    exterior_derivative_generators(sc21, w)
                )
    keys3 = enumerate_multi_indices(4, 4, 3)
    for key in rng.sample(keys3, 8):
        w = GradedForm.of(sc21, 3, {key: rand_matrix(rng, sc21)})
        assert exterior_derivative(sc21, w) == (
            exterior_derivative_generators(sc21, w)
        )


# ---- the kernel-backed generator route on general forms ----------------
#
# Each example draws one seed, degree and parity filter and applies them
# at every shape: random multi-term forms with Gaussian coefficients, so
# the moved and frame terms, their canonical signs and both parts of each
# coefficient are all exercised.

SHAPES = ("sc21", "sc12", "sc31", "sc20")
random_forms = given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(0, 2),
    parity=st.sampled_from([None, 0, 1]),
)


@settings(max_examples=20, deadline=None)
@random_forms
def test_generator_route_matches_values_route(request, seed, p, parity):
    for name in SHAPES:
        sc = request.getfixturevalue(name)
        w = random_form(random.Random(seed), sc, p, parity=parity)
        assert exterior_derivative_generators(sc, w) == exterior_derivative(sc, w), (
            name, p, parity,
        )


@settings(max_examples=20, deadline=None)
@random_forms
def test_generator_route_squares_to_zero(request, seed, p, parity):
    for name in SHAPES:
        sc = request.getfixturevalue(name)
        w = random_form(random.Random(seed), sc, p, parity=parity)
        assert d_squared(sc, w, exterior_derivative_generators) is None, (
            name, p, parity,
        )


# ---- the evaluation oracle: tuple filter, independence, real guard ------


def _every_d_tuple(sc, w):
    return enumerate_multi_indices(sc.even_dim, sc.odd_dim, w.degree + 1)


def _every_lie_tuple(sc, a, w):
    return enumerate_multi_indices(sc.even_dim, sc.odd_dim, w.degree)


@settings(max_examples=20, deadline=None)
@random_forms
def test_oracle_tuple_filter_misses_nothing(request, seed, p, parity):
    # with the filter replaced by every canonical tuple the sums must agree
    for name in SHAPES:
        sc = request.getfixturevalue(name)
        rng = random.Random(seed)
        w = random_form(rng, sc, p, parity=parity)
        da = DerivationVector.basis(sc, rng.randrange(sc.dim))
        filtered = exterior_derivative(sc, w), lie_derivative(sc, da, w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "_d_support", _every_d_tuple)
            mp.setattr(forms, "_lie_support", _every_lie_tuple)
            full = exterior_derivative(sc, w), lie_derivative(sc, da, w)
        assert filtered == full, (name, p, parity)


def _every_interior_tuple(d, w):
    return enumerate_multi_indices(w.n_even, w.m_odd, w.degree - 1)


@settings(max_examples=20, deadline=None)
@random_forms
def test_interior_tuple_filter_misses_nothing(request, seed, p, parity):
    # contraction along a derivation with several basis components, on
    # forms of degree 1-3, against every canonical (p-1)-tuple
    for name in ("sc21", "sc12", "sc31"):
        sc = request.getfixturevalue(name)
        rng = random.Random(seed)
        w = random_form(rng, sc, p + 1, parity=parity)
        d = from_coords(sc, [rng.choice((0, 0, 1, -2)) for _ in range(sc.dim)])
        filtered = interior_product(d, w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forms, "_interior_support", _every_interior_tuple)
            full = interior_product(d, w)
        assert filtered == full, (name, p, parity)


def test_oracle_reads_no_kernel_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel table read by the oracle")

    monkeypatch.setattr(forms, "_d_tuple", refuse)
    monkeypatch.setattr(forms, "_kernel_tables", refuse)
    # the oracle's unit brackets come from its own entry-wise rule
    monkeypatch.setattr(forms, "graded_commutator", refuse)
    sc = constants_for(2, 1)
    rng = random.Random(71)
    for p in range(3):
        w = random_form(rng, sc, p)
        dw = exterior_derivative(sc, w)
        assert exterior_derivative(sc, dw).is_zero()
        da = DerivationVector.basis(sc, rng.randrange(sc.dim))
        lie_derivative(sc, da, w)
        interior_product(da, dw)
    assert not [k for k in sc.cache if k[0] in ("column_kernel", "d_tuple")]
    with pytest.raises(AssertionError):
        exterior_derivative_generators(sc, w)


def test_oracle_tables_are_built_once_per_constants(sc21):
    sc = constants_for(2, 1)
    assert sc.cache == {}
    w = random_form(random.Random(3), sc21, 1)
    dw = exterior_derivative(sc, w)
    tables = sc.cache[("oracle_tables",)]
    assert set(sc.cache) == {("oracle_tables",)}
    exterior_derivative(sc, dw)
    lie_derivative(sc, DerivationVector.basis(sc, 4), w)
    assert sc.cache[("oracle_tables",)] is tables
    assert set(sc.cache) == {("oracle_tables",)}
    # the tables hold c over one denominator and [E_b, E_u] entry by entry
    for (x, y), row in sc.c.items():
        assert {cc: Fraction(v, tables.den) for cc, v in tables.c[x][y]} == {
            cc: Fraction(v, sc.den) for cc, v in row.items()
        }
    k = sc.n + sc.m
    for b, e in enumerate(sc.basis.elements):
        for u in range(k * k):
            unit = GradedMatrix.unit(sc.n, sc.m, u // k, u % k)
            assert GradedMatrix(
                sc.n, sc.m, [(v // k, v % k, x) for v, x in tables.bracket[b][u]]
            ) == graded_commutator(e, unit), (b, u)
    # and the reach of the sums: the pairs that c merges into each cc, and
    # the x that L_a moves to each cc
    pairs = [set() for _ in range(sc.dim)]
    moves = [[set() for _ in range(sc.dim)] for _ in range(sc.dim)]
    for (x, y), row in sc.c.items():
        for cc, v in row.items():
            assert v != 0
            pairs[cc].add(tuple(sorted((x, y))))
            moves[x][cc].add(y)
    assert tables.pairs == [sorted(got) for got in pairs]
    assert [[set(got) for got in row] for row in tables.moves] == moves
    # a second constants object owns its own tables
    other = constants_for(2, 1)
    exterior_derivative(other, w)
    assert other.cache[("oracle_tables",)] is not tables
    assert other.cache[("oracle_tables",)].bracket is not tables.bracket
    assert other.cache[("oracle_tables",)].pairs is not tables.pairs


# ---- the oracle's one pass over both parities ---------------------------
#
# The oracle sums once over a form of mixed parity, reading the
# parity-twisted coefficient wherever an odd index passes it.  Its d must
# equal the kernel's, and its L_a the columns of ``lie_matrix``; with the
# twist made the identity, each mixed form must be caught.


def mixed_forms(sc, rng):
    """Forms of degrees 0-2 whose even and odd parts are both nonzero; (2|0)
    has no odd part, so there every form is even."""
    out = []
    for p in range(3):
        w = random_form(rng, sc, p)
        while sc.odd_dim and w.homogeneous_parity() is not None:
            w = random_form(rng, sc, p)
        out.append(w)
    return out


def lie_columns_applied(sc, a, w):
    """L_a w from the ``lie_matrix`` columns at the labels of w, as exact
    values {(position, part): value}."""
    full = FormBasis(sc, w.degree)
    entries, den = form_to_sparse(w, full)
    sub = full.restricted(sorted({i for i, _, _ in entries}))
    mat = lie_matrix(sub, a)
    column = dict(zip(sub.positions, mat.columns))
    out = {}
    for i, part, y in entries:
        for r, v in column[i].items():
            out[r, part] = out.get((r, part), 0) + Fraction(v * y, mat.den * den)
    return {key: v for key, v in out.items() if v}


def oracle_mismatches(sc, ws):
    """(degree, map) for each map where the oracle differs from the kernel."""
    bad = []
    for w in ws:
        if exterior_derivative(sc, w) != exterior_derivative_generators(sc, w):
            bad.append((w.degree, "d"))
        for a in range(sc.dim):
            entries, den = form_to_sparse(
                lie_derivative(sc, DerivationVector.basis(sc, a), w), FormBasis(sc, w.degree))
            want = {(i, part): Fraction(y, den) for i, part, y in entries}
            if lie_columns_applied(sc, a, w) != want:
                bad.append((w.degree, f"L_{a}"))
    return bad


@pytest.mark.parametrize("name", SHAPES)
def test_oracle_takes_both_parities_in_one_pass(name, request, monkeypatch):
    sc = request.getfixturevalue(name)
    ws = mixed_forms(sc, random.Random(17))
    assert oracle_mismatches(sc, ws) == [], name
    if not sc.odd_dim:
        return
    # without the twist d is wrong on each mixed form, and so is L_a on
    # each one of degree 1 or 2 (a 0-form has no structure-constant term)
    monkeypatch.setattr(forms, "twisted", lambda entries, odd: entries)
    bad = oracle_mismatches(sc, ws)
    assert {p for p, what in bad if what == "d"} == {0, 1, 2}, (name, bad)
    assert {p for p, what in bad if what != "d"} == {1, 2}, (name, bad)


@pytest.mark.parametrize("factor", [Fraction(1, 2), Scalar(0, 1)])
def test_oracle_refuses_a_basis_element_that_is_not_integral(sc21, factor):
    elements = list(sc21.basis.elements)
    elements[5] = elements[5].scale(factor)
    basis = HomogeneousBasis(sc21.n, sc21.m, tuple(elements), sc21.basis.parities)
    sc = StructureConstants(basis, sc21.c, sc21.d, sc21.den, sc21.g, sc21.g_den,
                            sc21.g_inv, sc21.g_inv_den)
    theta = frame_form(sc, 0)
    with pytest.raises(ValueError, match="not an integer"):
        exterior_derivative(sc, theta)
    with pytest.raises(ValueError, match="not an integer"):
        lie_derivative(sc, DerivationVector.basis(sc, 0), theta)


# ---- both routes on forms with denominators ----------------------------
#
# ``random_form`` draws Gaussian-integer entries, so the kernels' common
# denominator is 1 on its forms until one d has run.  These forms have
# entries a/q + i b/q' with mixed q, q' <= 12 from the first step.

fraction_parts = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
gaussian_fractions = st.builds(Scalar, fraction_parts, fraction_parts)


@st.composite
def fractional_forms(draw, sc):
    p = draw(st.integers(0, 2), label="degree")
    keys = enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
    k = sc.n + sc.m
    coeffs = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                             unique=True), label="keys"):
        coeffs[key] = GradedMatrix(sc.n, sc.m, draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                      gaussian_fractions),
            min_size=1, max_size=4, unique_by=lambda t: t[:2],
        ), label="entries"))
    return GradedForm.of(sc, p, coeffs)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_routes_agree_on_forms_with_denominators(request, data):
    for name in ("sc21", "sc12", "sc31"):
        sc = request.getfixturevalue(name)
        w = data.draw(fractional_forms(sc), label=name)
        dw = exterior_derivative(sc, w)
        assert exterior_derivative_generators(sc, w) == dw, name
        assert exterior_derivative(sc, dw).is_zero(), name
        assert exterior_derivative_generators(sc, dw).is_zero(), name
        a = data.draw(st.integers(0, sc.dim - 1), label="a")
        basis = FormBasis(sc, w.degree)
        want = lie_derivative(sc, DerivationVector.basis(sc, a), w)
        lie = lie_matrix(basis, a)
        image = linalg.combine(lie.columns, sparse_values(w, basis))
        got = {i: s / lie.den for i, s in image.items()}
        assert got == sparse_values(want, basis), (name, a)


def test_derivative_squares_to_zero(sc21):
    rng = random.Random(29)
    for p in range(0, 3):
        for _ in range(3):
            w = rand_form(rng, sc21, p)
            assert d_squared(sc21, w, exterior_derivative) is None


def test_frame_derivative_matches_structure_constants(sc21):
    # d theta^A = (1/2) c_BC^A theta^C ^ theta^B
    half = Scalar(Fraction(1, 2))
    for a in range(sc21.dim):
        dth = exterior_derivative(sc21, frame_form(sc21, a))
        manual = GradedForm.zero(sc21, 2)
        for (b, cdx), row in sc21.c.items():
            v = row.get(a)
            if v is None:
                continue
            manual = manual + wedge(
                GradedForm.of(sc21, 1, {(cdx,): IDM}),
                GradedForm.of(sc21, 1, {(b,): IDM}),
            ).scale(Fraction(v, sc21.den) * half)
        assert dth == manual


def test_element_derivative_matches_bracket_form(sc21):
    for a in range(sc21.dim):
        w = GradedForm.from_matrix(sc21, sc21.basis.elements[a])
        assert exterior_derivative(sc21, w) == differential_of_element(sc21, a)


def test_canonical_one_form(sc21):
    rng = random.Random(31)
    assert structure_equation(sc21, exterior_derivative) is None
    assert structure_equation(sc21, exterior_derivative_generators) is None
    # d on 0-forms is the bracket against the frame
    for mat in list(sc21.basis.elements) + [IDM, rand_matrix(rng, sc21)]:
        assert element_structure_equation(sc21, mat, exterior_derivative) is None
    assert theta_invariance(sc21) is None


def test_cartan_identities_on_random_data(sc21):
    rng = random.Random(37)
    dim = sc21.dim
    for _ in range(8):
        p = rng.randint(1, 3)
        wpar = rng.randint(0, 1)
        w = rand_form(rng, sc21, p, homog=wpar)
        a, b = rng.randrange(dim), rng.randrange(dim)
        if p >= 2:
            assert contraction_anticommutation(sc21, a, b, w) is None
        assert homotopy_formula(sc21, a, w, wpar, exterior_derivative) is None
        assert mixed_relation(sc21, a, b, w, wpar) is None
        assert d_commutes_with_lie(sc21, a, w, exterior_derivative) is None


def test_leibniz_rules_on_random_data(sc21):
    rng = random.Random(41)
    for _ in range(6):
        p1, p2 = rng.randint(0, 2), rng.randint(0, 2)
        par1, par2 = rng.randint(0, 1), rng.randint(0, 1)
        w1 = rand_form(rng, sc21, p1, homog=par1)
        w2 = rand_form(rng, sc21, p2, homog=par2)
        a = rng.randrange(sc21.dim)
        assert d_leibniz(sc21, w1, w2, exterior_derivative) is None
        assert lie_leibniz(sc21, a, w1, par1, w2) is None
        assert contraction_leibniz(sc21, a, w1, w2, par2) is None


def test_frame_reconstruction_from_element_differentials(sc21):
    assert frame_inversion(sc21) is None


def test_evaluate_is_multilinear(sc21):
    rng = random.Random(43)
    w = rand_form(rng, sc21, 2)
    d1 = from_coords(sc21, [1, 2, 0, 0, 1, 0, 0, 0])
    d2 = from_coords(sc21, [0, 0, 3, 0, 0, 0, 1, 0])
    acc = GradedMatrix.zero(2, 1)
    for a in d1.support():
        for b in d2.support():
            acc = acc + evaluate_on_basis(w, (a, b)).scale(
                d1.coords[a] * d2.coords[b]
            )
    assert evaluate(w, [d1, d2]) == acc


# ---- the integer storage against matrix arithmetic on the coeffs view ----
#
# A form stores sorted (unit, part, numerator) entries over one positive
# denominator in lowest terms.  Each operation below runs on those ints;
# the reference runs the same operation on the ``coeffs`` view with
# GradedMatrix arithmetic, as the forms were computed before.

STORAGE_SHAPES = ("sc21", "sc12", "sc20")


def assert_lowest_terms(w):
    assert w.den > 0
    nums = []
    for key, entries in w.ints.items():
        assert entries, key
        assert entries == sorted(entries), key
        assert len({(u, part) for u, part, _ in entries}) == len(entries), key
        nums += [y for _, _, y in entries]
    assert all(nums)
    assert math.gcd(w.den, *nums) == 1
    # the view holds exactly the stored keys, each at its stored value
    assert set(w.coeffs) == set(w.ints)
    k = w.n + w.m
    for key, mat in w.coeffs.items():
        assert [(r * k + c, part, y) for r, c, x in mat.nonzeros()
                for part, y in enumerate((x.re * w.den, x.im * w.den)) if y] \
            == w.ints[key], key


def ref_sum(w1, w2):
    out = dict(w1.coeffs)
    for key, mat in w2.coeffs.items():
        out[key] = out[key] + mat if key in out else mat
    return nonzero(out)


def ref_parity_parts(w):
    ev, od = {}, {}
    for key, mat in w.coeffs.items():
        me, mo = mat.parity_decompose()
        if sum(index_parity(i, w.n_even) for i in key) % 2:
            me, mo = mo, me
        ev[key], od[key] = me, mo
    return nonzero(ev), nonzero(od)


def ref_wedge(w1, w2):
    out = {}
    for k1, m1 in w1.coeffs.items():
        p1 = sum(index_parity(i, w1.n_even) for i in k1) % 2
        for k2, m2 in w2.coeffs.items():
            canon = canonicalize(k1 + k2, w1.n_even)
            if canon is None:
                continue
            key, sign = canon
            mat = (m1 @ (parity_twist(m2) if p1 else m2)).scale(sign)
            out[key] = out[key] + mat if key in out else mat
    return nonzero(out)


def ref_wedge_form_matrix(w, mat):
    return nonzero({
        key: v @ (parity_twist(mat)
                  if sum(index_parity(i, w.n_even) for i in key) % 2 else mat)
        for key, v in w.coeffs.items()
    })


def gaussian_matrices(sc):
    k = sc.n + sc.m
    return st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), gaussian_fractions),
        max_size=5, unique_by=lambda t: t[:2],
    ).map(lambda t: GradedMatrix(sc.n, sc.m, t))


@st.composite
def forms_of_degree(draw, sc, p):
    keys = enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
    picked = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return GradedForm.of(sc, p, {key: draw(gaussian_matrices(sc)) for key in picked})


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sums_scalings_and_parity_parts_match_the_view(request, data):
    for name in STORAGE_SHAPES:
        sc = request.getfixturevalue(name)
        p = data.draw(st.integers(0, 2), label="p")
        w1 = data.draw(forms_of_degree(sc, p), label="w1")
        w2 = data.draw(forms_of_degree(sc, p), label="w2")
        s = data.draw(gaussian_fractions, label="s")
        for w in (w1, w2):
            assert_lowest_terms(w)
        total, diff = w1 + w2, w1 - w2
        assert total.coeffs == ref_sum(w1, w2), name
        assert diff.coeffs == ref_sum(w1, GradedForm.of(sc, p, {
            key: -mat for key, mat in w2.coeffs.items()})), name
        scaled = w1.scale(s)
        assert scaled.coeffs == nonzero(
            {key: mat.scale(s) for key, mat in w1.coeffs.items()}), name
        ev, od = w1.parity_parts()
        assert (ev.coeffs, od.coeffs) == ref_parity_parts(w1), name
        for w in (total, diff, scaled, ev, od, -w1):
            assert_lowest_terms(w)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_wedges_and_contraction_match_the_view(request, data):
    for name in STORAGE_SHAPES:
        sc = request.getfixturevalue(name)
        p1 = data.draw(st.integers(0, 2), label="p1")
        p2 = data.draw(st.integers(0, 2), label="p2")
        w1 = data.draw(forms_of_degree(sc, p1), label="w1")
        w2 = data.draw(forms_of_degree(sc, p2), label="w2")
        mat = data.draw(gaussian_matrices(sc), label="mat")
        coords = data.draw(st.lists(st.one_of(st.just(Scalar(0)), gaussian_fractions),
                                    min_size=sc.dim, max_size=sc.dim), label="d")
        d = from_coords(sc, coords)
        ww = wedge(w1, w2)
        assert ww.coeffs == ref_wedge(w1, w2), name
        left = wedge_matrix_form(mat, w2)
        assert left.coeffs == nonzero({key: mat @ v for key, v in w2.coeffs.items()}), name
        right = wedge_form_matrix(w1, mat)
        assert right.coeffs == ref_wedge_form_matrix(w1, mat), name
        results = [ww, left, right]
        if p1 >= 1:
            iw = interior_product(d, w1)
            assert iw.coeffs == ref_interior(d, w1), name
            results.append(iw)
        for w in results:
            assert_lowest_terms(w)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_equality_agrees_with_the_view(request, data):
    for name in STORAGE_SHAPES:
        sc = request.getfixturevalue(name)
        p = data.draw(st.integers(0, 2), label="p")
        w1 = data.draw(forms_of_degree(sc, p), label="w1")
        w2 = data.draw(forms_of_degree(sc, p), label="w2")
        s = data.draw(gaussian_fractions.filter(bool), label="s")
        # the same form reached through other denominators
        again = (w1 + w2).scale(s).scale(Scalar(1) / s) - w2
        for a, b in ((w1, w2), (w1, again), (w2, w1 + w2)):
            assert (a == b) == (a.coeffs == b.coeffs), name
        assert w1 == again, name
        assert_lowest_terms(again)
        # a derivative's result against the same form built from its view
        dw = exterior_derivative_generators(sc, w1)
        assert dw == GradedForm.of(sc, p + 1, dw.coeffs), name
        assert_lowest_terms(dw)
        assert_lowest_terms(exterior_derivative(sc, w1))


def test_prebuilt_forms_run_without_building_scalars(sc21, monkeypatch):
    rng = random.Random(5)
    w1 = random_form(rng, sc21, 1).scale(Scalar(Fraction(1, 3), Fraction(2, 5)))
    w2 = random_form(rng, sc21, 2)
    mat = rand_matrix(rng, sc21)
    d = from_coords(sc21, [rand_scalar(rng) for _ in range(sc21.dim)])
    s = Scalar(Fraction(-2, 3), Fraction(1, 7))
    exterior_derivative_generators(sc21, w1)  # build the tables before counting
    exterior_derivative(sc21, w1)

    made = []
    real_init = Scalar.__init__

    def counted_init(self, *args):
        made.append(args)
        real_init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted_init)
    assert Scalar(1, 2) and made == [(1, 2)]  # the counter counts
    made.clear()
    for route in (exterior_derivative_generators, exterior_derivative):
        assert route(sc21, route(sc21, w1)).is_zero()
        assert route(sc21, route(sc21, w2)).is_zero()
    assert wedge(w1, w2) == wedge(w1, w2.scale(2)).scale(Fraction(1, 2))
    wedge_matrix_form(mat, w2)
    wedge_form_matrix(w2, mat)
    w1.scale(s) - w1
    w2.parity_parts()
    interior_product(d, w2)
    lie_derivative(sc21, d, w1)
    assert made == []


def test_forms_refuse_another_basis_of_the_same_algebra(sc12, sc12_adapted):
    # the body-adapted basis of (1|2) orders the even elements differently
    assert sc12.basis.elements != sc12_adapted.basis.elements
    theta = canonical_one_form(sc12)
    adapted = canonical_one_form(sc12_adapted)
    da = DerivationVector.basis(sc12, 1)
    refused = [
        lambda: theta + adapted,
        lambda: theta - adapted,
        lambda: wedge(theta, adapted),
        lambda: exterior_derivative_generators(sc12, adapted),
        lambda: exterior_derivative(sc12, adapted),
        lambda: lie_derivative(sc12, da, adapted),
        lambda: lie_derivative(sc12_adapted, da, adapted),
        lambda: interior_product(da, adapted),
        lambda: evaluate(adapted, [da]),
        lambda: derivation_bracket(sc12_adapted, da, da),
    ]
    for op in refused:
        with pytest.raises(ValueError, match="different bases"):
            op()
    assert theta != adapted
    # the same basis built again is the same basis
    again = constants_for(1, 2)
    assert again.basis is not sc12.basis
    assert exterior_derivative_generators(again, theta) == wedge(theta, theta)
    assert theta == canonical_one_form(again)
