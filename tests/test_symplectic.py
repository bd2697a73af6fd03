import random

import pytest

from gradedmat import bundles, forms, linalg, symplectic
from gradedmat.bundles import rank_one_connection
from gradedmat.constants import constants_for
from gradedmat.forms import (
    DerivationVector,
    GradedForm,
    canonical_one_form,
)
from gradedmat.formspace import invariant_forms
from gradedmat.matrices import GradedMatrix, graded_commutator
from gradedmat.symplectic import (
    SymplecticForm,
    analyze,
    canonical_symplectic,
    canonical_two_form,
    closed_invariant_even_two_forms,
    is_symplectic,
    symplectic_uniqueness_holds,
)
from gradedmat.verify import (
    canonical_line,
    hamiltonian_invariance,
    hamiltonian_scaling,
    poisson_commutator,
    poisson_leibniz,
)
from tests.helpers import rand_form, rand_matrix
from tests.reference import apply_derivation


def test_canonical_two_form_is_symplectic(sc21):
    built, cert = analyze(sc21, canonical_two_form(sc21))
    assert built is not None
    assert cert.ok
    assert cert.closed and cert.even
    assert cert.contraction_rank == cert.expected_rank == 8


def test_non_symplectic_inputs_are_rejected(sc21):
    rng = random.Random(53)
    # wrong degree
    built, cert = analyze(sc21, rand_form(rng, sc21, 1))
    assert built is None and not cert.degree_ok
    # odd 2-form
    w_odd = rand_form(rng, sc21, 2, homog=1)
    built, cert = analyze(sc21, w_odd)
    assert built is None and not cert.even
    # even but not closed: generic even 2-form
    w = rand_form(rng, sc21, 2, homog=0)
    assert not is_symplectic(sc21, w)
    # closed and even but degenerate
    assert not is_symplectic(sc21, GradedForm.zero(sc21, 2))
    with pytest.raises(ValueError):
        SymplecticForm(sc21, GradedForm.zero(sc21, 2))


def test_the_refusal_names_the_failed_certificate_fields(sc21):
    # the degenerate form of verify's symplectic suite: not closed, rank 2 of 8
    degenerate = GradedForm.of(sc21, 2, {(0, 1): GradedMatrix.identity(2, 1)})
    expected = ("form is not symplectic: SymplecticCertificate(degree_ok=True, even=True, "
                "closed=False, contraction_rank=2, expected_rank=8, consistent=True, note='')")
    with pytest.raises(ValueError) as info:
        SymplecticForm(sc21, degenerate)
    assert str(info.value) == expected


def test_hamiltonian_fields_of_basis_elements(sc21):
    assert hamiltonian_scaling(sc21, canonical_two_form(sc21), 1) is None


def test_scaled_forms_scale_the_fields(sc21):
    for c in (1, 2, -3):
        assert hamiltonian_scaling(sc21, canonical_two_form(sc21), c) is None


def test_hamiltonian_field_acts_as_the_adjoint(sc21):
    rng = random.Random(59)
    omega = canonical_symplectic(sc21)
    for mat in [rand_matrix(rng, sc21) for _ in range(3)]:
        field = omega.hamiltonian_field(mat)
        for probe in sc21.basis.elements:
            assert apply_derivation(sc21, field, probe) == (
                graded_commutator(mat, probe)
            )


def test_hamiltonian_field_of_central_element_vanishes(sc21):
    omega = canonical_symplectic(sc21)
    field = omega.hamiltonian_field(GradedMatrix.identity(2, 1))
    assert all(not x for x in field.coords)


def test_poisson_bracket_is_the_graded_commutator(sc21):
    assert poisson_commutator(sc21, canonical_symplectic(sc21)) is None


def test_poisson_bracket_leibniz(sc21):
    rng = random.Random(61)
    omega = canonical_symplectic(sc21)
    for _ in range(4):
        a = rng.randrange(sc21.dim)
        ma = sc21.basis.elements[a]
        pa = sc21.parity(a)
        m2 = rand_matrix(rng, sc21)
        ev, od = m2.parity_decompose()
        m2 = ev if rng.random() < 0.5 else od
        p2 = 0 if m2 is ev else 1
        m3 = rand_matrix(rng, sc21)
        assert poisson_leibniz(omega, ma, pa, m2, p2, m3) is None


def test_form_is_invariant_under_hamiltonian_fields(sc21):
    rng = random.Random(67)
    omega = canonical_symplectic(sc21)
    mats = [sc21.basis.elements[1], sc21.basis.elements[6]]
    mats += [rand_matrix(rng, sc21) for _ in range(2)]
    for mat in mats:
        assert hamiltonian_invariance(sc21, omega, mat) is None


def test_uniqueness_up_to_scale(sc21):
    space = closed_invariant_even_two_forms(sc21)
    assert len(space) == 1
    assert symplectic_uniqueness_holds(sc21)


@pytest.mark.parametrize("n, m", [(1, 2), (3, 1), (3, 2), (4, 1)])
def test_uniqueness_beyond_the_smallest_algebra(n, m):
    # the invariant 1-forms are the line of Theta, and the closed invariant
    # even 2-forms the line of dTheta
    sc = constants_for(n, m)
    assert canonical_line(sc, invariant_forms(sc, 1)) is None
    assert symplectic_uniqueness_holds(sc)


def test_production_callers_skip_the_evaluation_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluation oracle or elimination called")

    for mod in (forms, symplectic, bundles):
        for name in ("exterior_derivative", "_evaluation_sum"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    sc = constants_for(2, 1)
    omega = canonical_symplectic(sc)
    built, cert = analyze(sc, canonical_two_form(sc).scale(2))
    assert built is not None and cert.ok
    conn = rank_one_connection(sc, canonical_one_form(sc))
    assert all(f.is_zero() for row in conn.curvature() for f in row)
    assert conn.bianchi_holds()
    conn.covariant_derivative([canonical_one_form(sc)])
    # the factorization is kept: a Hamiltonian field runs no elimination
    for name in ("factor", "solve_unique", "inverse"):
        monkeypatch.setattr(linalg, name, refuse)
    for a in range(sc.dim):
        field = omega.hamiltonian_field(sc.basis.elements[a])
        assert field.coords == DerivationVector.basis(sc, a).coords


def test_canonical_symplectic_raises_when_the_form_is_refused(sc21, monkeypatch):
    monkeypatch.setattr(symplectic, "analyze", lambda sc, form: (None, "refused"))
    with pytest.raises(AssertionError, match="not symplectic: refused"):
        canonical_symplectic(sc21)
