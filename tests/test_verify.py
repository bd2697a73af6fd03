"""Each shared identity of ``gradedmat.verify`` catches a broken input.

The suites, the acceptance criteria and the unit tests all rely on these
definitions, so none may hold vacuously: each is given one broken input (a
wrong route of d, a wrong declared parity, a wrong sign rule, or a wrong
form) and must return a counterexample, next to the same call on the true
input, which must return None.
"""
import json
import random

import pytest

from gradedmat import forms, verify
from gradedmat.cli import main
from gradedmat.constants import constants_for
from gradedmat.formspace import FormBasis, basis_form
from gradedmat.forms import (
    GradedForm,
    canonical_one_form,
    exterior_derivative,
    exterior_derivative_generators,
    frame_form,
    wedge,
)
from gradedmat.indexset import commutation_factor
from gradedmat.matrices import GradedMatrix
from gradedmat.symplectic import SymplecticForm, canonical_symplectic, canonical_two_form

# (2|1): basis derivations 0-3 are even, 4-7 odd
EVEN, ODD = 0, 4
ROUTES = (exterior_derivative, exterior_derivative_generators)


def twisted(sc, w):
    """d w + theta^0 ^ w: a route that is not nilpotent and not invariant."""
    return exterior_derivative_generators(sc, w) + wedge(frame_form(sc, 0), w)


def one(sc):
    return GradedForm.from_matrix(sc, GradedMatrix.identity(sc.n, sc.m))


def odd_one_form(sc):
    """The odd 1-form theta^4 (unit coefficient)."""
    return frame_form(sc, ODD)


def test_sign_identities_catch_a_wrong_sign_rule(monkeypatch):
    assert verify.crossing_count((1, 0), (1, 1)) is None
    assert verify.crossing_count((1, 0), (0, 0), flip=True) == (
        "sigma=(1, 0) parities=(0, 0) formula=1 crossings=-1"
    )
    assert verify.composition_rule((1, 0), (1, 0), (1, 1)) is None
    monkeypatch.setattr(verify, "commutation_factor",
                        lambda sigma, degs: -commutation_factor(sigma, degs))
    assert verify.composition_rule((1, 0), (1, 0), (1, 1)) is not None


@pytest.mark.parametrize("route", ROUTES)
def test_route_identities_hold_on_both_routes(sc21, route):
    w = odd_one_form(sc21)
    assert verify.d_squared(sc21, w, route) is None
    assert verify.d_commutes_with_lie(sc21, ODD, w, route) is None
    assert verify.homotopy_formula(sc21, ODD, w, 1, route) is None
    assert verify.d_leibniz(sc21, w, w, route) is None
    assert verify.structure_equation(sc21, route) is None
    for mat in sc21.basis.elements:
        assert verify.element_structure_equation(sc21, mat, route) is None


def test_route_identities_catch_a_wrong_route(sc21):
    u = one(sc21)
    assert verify.d_squared(sc21, u, twisted) is not None
    assert any(verify.d_commutes_with_lie(sc21, a, u, twisted)
               for a in range(sc21.dim))
    assert verify.homotopy_formula(sc21, EVEN, u, 0, twisted) is not None
    assert verify.d_leibniz(sc21, u, u, twisted) is not None
    assert verify.structure_equation(sc21, twisted) is not None
    assert verify.element_structure_equation(
        sc21, sc21.basis.elements[0], twisted
    ) is not None


def test_parity_identities_catch_a_wrong_declared_parity(sc21):
    gen = exterior_derivative_generators
    w = odd_one_form(sc21)
    w2 = wedge(w, frame_form(sc21, EVEN))  # odd 2-form theta^4 ^ theta^0
    assert verify.homotopy_formula(sc21, ODD, w, 1, gen) is None
    assert verify.homotopy_formula(sc21, ODD, w, 0, gen) is not None
    assert verify.mixed_relation(sc21, ODD, 2, w2, 1) is None
    assert verify.mixed_relation(sc21, ODD, 2, w2, 0) is not None
    assert verify.lie_leibniz(sc21, ODD, w, 1, w) is None
    assert verify.lie_leibniz(sc21, ODD, w, 0, w) is not None
    assert verify.contraction_leibniz(sc21, ODD, w, w, 1) is None
    assert verify.contraction_leibniz(sc21, ODD, w, w, 0) is not None
    u = one(sc21)
    assert verify.contraction_leibniz(sc21, ODD, u, u, 0) is None


def test_contraction_anticommutation_catches_the_ungraded_sign(sc21, monkeypatch):
    w = wedge(odd_one_form(sc21), frame_form(sc21, ODD + 1))
    assert verify.contraction_anticommutation(sc21, ODD, ODD + 1, w) is None
    monkeypatch.setattr(verify, "_sign", lambda x, y: 1)
    assert verify.contraction_anticommutation(sc21, ODD, ODD + 1, w) is not None


def test_theta_identities_catch_a_wrong_form(sc21, monkeypatch):
    assert verify.theta_invariance(sc21) is None
    assert verify.frame_inversion(sc21) is None
    monkeypatch.setattr(verify, "canonical_one_form",
                        lambda sc: frame_form(sc, 0))
    assert verify.theta_invariance(sc21) is not None
    monkeypatch.setattr(verify, "frame_form",
                        lambda sc, a: frame_form(sc, a).scale(2))
    assert verify.frame_inversion(sc21) == "frame index 0"


def test_canonical_line_takes_the_ratio_where_theta_is_nonzero(sc21):
    theta = canonical_one_form(sc21)
    assert verify.canonical_line(sc21, [theta.scale(-3)]) is None
    # theta^0 (unit coefficient) has its first nonzero where Theta is 0
    assert verify.canonical_line(sc21, [frame_form(sc21, 0)]) == (
        "the invariant 1-form is not a nonzero multiple of Theta"
    )
    assert verify.canonical_line(sc21, [theta, frame_form(sc21, 0)]) == (
        "the invariant 1-forms have dimension 2"
    )
    assert verify.canonical_line(sc21, [GradedForm.zero(sc21, 1)]) is not None


def test_a_line_other_than_theta_fails_verify_with_a_report(monkeypatch, capsys):
    monkeypatch.setattr(verify, "invariant_forms",
                        lambda sc, p: [frame_form(sc, 0)])
    assert main(["verify", "--n", "2", "--m", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    failed = [(s["title"], c) for s in report["suites"]
              for c in s["checks"] if not c["passed"]]
    assert failed == [("canonical_form", {
        "name": "invariant 1-forms are exactly the canonical line",
        "passed": False,
        "counterexample": "the invariant 1-form is not a nonzero multiple of Theta",
        "note": "solution space dimension 1",
    })]


def test_symplectic_identities_catch_a_wrong_form(sc21):
    omega = canonical_two_form(sc21)
    assert verify.hamiltonian_scaling(sc21, omega, 2) is None
    assert verify.hamiltonian_scaling(sc21, omega.scale(2), 1) == "scale 1 element 0"
    assert verify.hamiltonian_scaling(sc21, GradedForm.zero(sc21, 2), 1) == (
        "scale 1 rejected"
    )
    sym = canonical_symplectic(sc21)
    assert verify.poisson_commutator(sc21, sym) is None
    doubled = SymplecticForm(sc21, omega.scale(2))
    assert verify.poisson_commutator(sc21, doubled) is not None
    # A and B both odd: the sign is -1
    a, b, c = sc21.basis.elements[ODD:ODD + 3]
    assert verify.poisson_leibniz(sym, a, 1, b, 1, c) is None
    assert verify.poisson_leibniz(sym, a, 1, b, 0, c) is not None
    mat = sc21.basis.elements[0]
    assert verify.hamiltonian_invariance(sc21, sym, mat) is None
    # the fields of d Theta do not preserve theta^0 ^ theta^4
    other = SymplecticForm(sc21, wedge(frame_form(sc21, 0), odd_one_form(sc21)),
                           _trusted=sym._system)
    assert verify.hamiltonian_invariance(sc21, other, mat) is not None


# ---- d d = 0 on basis monomials, read off the integer columns of d_p ----

MONOMIALS = "d twice kills basis monomials (generator route, degree <= 2)"


def monomial_check(sc, seed):
    return next(c for c in verify.suite_cartan(sc, seed).checks if c.name == MONOMIALS)


@pytest.mark.parametrize("n, m, frame_index", [(2, 1, 3), (2, 1, 6), (1, 2, 5)])
def test_monomial_check_names_the_label_the_form_loop_names(n, m, frame_index):
    # a kernel whose d theta^A is off: its d d is not zero, and the check
    # must name the first label that d d on the basis form does not kill
    sc = constants_for(n, m)
    table = forms._kernel_tables(sc).frame[frame_index]
    cc, b, v = table[0]
    table[0] = (cc, b, 2 * v)
    for key in [key for key in sc.cache if key[0] == "d_tuple"]:
        del sc.cache[key]
    want = next(f"label={lab}" for p in range(3) for lab in FormBasis(sc, p)
                if verify.d_squared(sc, basis_form(sc, lab), exterior_derivative_generators))
    check = monomial_check(sc, 0)
    assert (check.passed, check.counterexample) == (False, want)


def test_monomial_check_samples_the_labels_of_a_wide_degree(sc21, sc31, monkeypatch):
    # (2|1) checks every label of degrees 0-2; (3|1) every label of degrees
    # 0 and 1 and, of its 1776 at degree 2, the 120 that the suite's first
    # draw picks, in label order
    assert monomial_check(sc21, 0) == (MONOMIALS, True, None, "369 monomials")
    seen = []
    real = verify.d_squared_on_labels

    def recorded(basis):
        seen.extend(basis)
        return real(basis)

    monkeypatch.setattr(verify, "d_squared_on_labels", recorded)
    assert monomial_check(sc31, 0) == (MONOMIALS, True, None, "376 monomials")
    drawn = sorted(random.Random(0).sample(FormBasis(sc31, 2), 120))
    assert seen == list(FormBasis(sc31, 0)) + list(FormBasis(sc31, 1)) + drawn
