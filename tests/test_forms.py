import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmat.forms import (
    DerivationVector,
    GradedForm,
    canonical_one_form,
    coefficients_from_values,
    derivation_bracket,
    differential_of_element,
    evaluate,
    evaluate_on_basis,
    exterior_derivative,
    exterior_derivative_generators,
    frame_form,
    frame_forms_from_differentials,
    interior_product,
    lie_derivative,
    wedge,
    wedge_form_matrix,
    wedge_matrix_form,
)
from gradedmat.indexset import (
    commutation_factor,
    enumerate_multi_indices,
    index_parity,
    permutation_sign,
)
from gradedmat.matrices import GradedMatrix
from gradedmat.sampling import random_form
from gradedmat.scalars import Scalar

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


def rand_scalar(rng):
    return Scalar(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))


def rand_matrix(rng, sc):
    size = sc.n + sc.m
    rows = [[rand_scalar(rng) for _ in range(size)] for _ in range(size)]
    return GradedMatrix.from_rows(sc.n, sc.m, rows)


def rand_form(rng, sc, p, homog=None):
    keys = enumerate_multi_indices(sc.even_dim, sc.odd_dim, p)
    coeffs = {}
    for k in rng.sample(keys, min(4, len(keys))):
        mat = rand_matrix(rng, sc)
        if homog is not None:
            ev, od = mat.parity_decompose()
            kp = sum(index_parity(i, sc.even_dim) for i in k) % 2
            mat = ev if (homog ^ kp) == 0 else od
        coeffs[k] = mat
    return GradedForm.of(sc, p, coeffs)


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
        dw = exterior_derivative_generators(sc, w)
        assert exterior_derivative_generators(sc, dw).is_zero(), (name, p, parity)


def test_derivative_squares_to_zero(sc21):
    rng = random.Random(29)
    for p in range(0, 3):
        for _ in range(3):
            w = rand_form(rng, sc21, p)
            assert exterior_derivative(sc21, exterior_derivative(sc21, w)).is_zero()


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
            ).scale(v * half)
        assert dth == manual


def test_element_derivative_matches_bracket_form(sc21):
    for a in range(sc21.dim):
        w = GradedForm.from_matrix(sc21, sc21.basis.elements[a])
        assert exterior_derivative(sc21, w) == differential_of_element(sc21, a)


def test_canonical_one_form(sc21):
    rng = random.Random(31)
    th = canonical_one_form(sc21)
    dth = exterior_derivative(sc21, th)
    assert dth == wedge(th, th)
    assert exterior_derivative_generators(sc21, th) == dth
    # d on 0-forms is the bracket against the frame
    for mat in list(sc21.basis.elements) + [IDM, rand_matrix(rng, sc21)]:
        w = GradedForm.from_matrix(sc21, mat)
        assert exterior_derivative(sc21, w) == wedge(th, w) - wedge(w, th)
    for a in range(sc21.dim):
        assert lie_derivative(
            sc21, DerivationVector.basis(sc21, a), th
        ).is_zero()


def test_cartan_identities_on_random_data(sc21):
    rng = random.Random(37)
    dim = sc21.dim
    for _ in range(8):
        p = rng.randint(1, 3)
        wpar = rng.randint(0, 1)
        w = rand_form(rng, sc21, p, homog=wpar)
        a, b = rng.randrange(dim), rng.randrange(dim)
        da = DerivationVector.basis(sc21, a)
        db = DerivationVector.basis(sc21, b)
        pa, pb = sc21.parity(a), sc21.parity(b)
        if p >= 2:
            lhs = interior_product(da, interior_product(db, w))
            rhs = interior_product(db, interior_product(da, w)).scale(
                1 if (pa and pb) else -1
            )
            assert lhs == rhs
        # homotopy: iota_D d + d iota_D = (-1)^{|D||w|} L_D
        lhs = interior_product(da, exterior_derivative(sc21, w)) + (
            exterior_derivative(sc21, interior_product(da, w))
        )
        rhs = lie_derivative(sc21, da, w).scale(-1 if (pa and wpar) else 1)
        assert lhs == rhs
        # mixed: L_D iota_D' - iota_D' L_D = (-1)^{|D||w|} iota_[D,D']
        lhs = lie_derivative(sc21, da, interior_product(db, w)) - (
            interior_product(db, lie_derivative(sc21, da, w))
        )
        br = derivation_bracket(sc21, da, db)
        rhs = interior_product(br, w).scale(-1 if (pa and wpar) else 1)
        assert lhs == rhs
        # L commutes with d
        assert lie_derivative(sc21, da, exterior_derivative(sc21, w)) == (
            exterior_derivative(sc21, lie_derivative(sc21, da, w))
        )


def test_leibniz_rules_on_random_data(sc21):
    rng = random.Random(41)
    for _ in range(6):
        p1, p2 = rng.randint(0, 2), rng.randint(0, 2)
        par1, par2 = rng.randint(0, 1), rng.randint(0, 1)
        w1 = rand_form(rng, sc21, p1, homog=par1)
        w2 = rand_form(rng, sc21, p2, homog=par2)
        a = rng.randrange(sc21.dim)
        da = DerivationVector.basis(sc21, a)
        pa = sc21.parity(a)
        lhs = exterior_derivative(sc21, wedge(w1, w2))
        rhs = wedge(exterior_derivative(sc21, w1), w2) + wedge(
            w1, exterior_derivative(sc21, w2)
        ).scale((-1) ** p1)
        assert lhs == rhs
        lhs = lie_derivative(sc21, da, wedge(w1, w2))
        rhs = wedge(lie_derivative(sc21, da, w1), w2) + wedge(
            w1, lie_derivative(sc21, da, w2)
        ).scale(-1 if (pa and par1) else 1)
        assert lhs == rhs
        if p1 >= 1 or p2 >= 1:
            lhs = interior_product(da, wedge(w1, w2))
            rhs = GradedForm.zero(sc21, p1 + p2 - 1)
            if p1 >= 1:
                rhs = rhs + wedge(interior_product(da, w1), w2).scale(
                    -1 if (pa and par2) else 1
                )
            if p2 >= 1:
                rhs = rhs + wedge(w1, interior_product(da, w2)).scale(
                    (-1) ** p1
                )
            assert lhs == rhs


def test_frame_reconstruction_from_element_differentials(sc21):
    rec = frame_forms_from_differentials(sc21)
    for a in range(sc21.dim):
        assert rec[a] == frame_form(sc21, a)


def test_evaluate_is_multilinear(sc21):
    rng = random.Random(43)
    w = rand_form(rng, sc21, 2)
    d1 = DerivationVector.from_coords(sc21, [1, 2, 0, 0, 1, 0, 0, 0])
    d2 = DerivationVector.from_coords(sc21, [0, 0, 3, 0, 0, 0, 1, 0])
    acc = GradedMatrix.zero(2, 1)
    for a in d1.support():
        for b in d2.support():
            acc = acc + evaluate_on_basis(w, (a, b)).scale(
                d1.coords[a] * d2.coords[b]
            )
    assert evaluate(w, [d1, d2]) == acc
