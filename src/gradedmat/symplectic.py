"""Graded symplectic structure and Poisson bracket.

An even closed 2-form is symplectic when  iota_(D_M) omega + dM = 0  has
exactly one derivation solution D_M for every matrix M.  The solve runs
over first-slot contractions against the basis derivations: the columns
iota_(bd_B) omega are vectorized as 1-forms and the coordinate vector of
D_M is the unique preimage of -dM.  That contraction system is factored
once per form (``linalg.factor``, one elimination of its tagged columns);
the rank test, the probes and every Hamiltonian field reuse that echelon,
and each field is returned only after it solves the whole system
exactly.  The differentials dM and d omega come from the kernel
route (``exterior_derivative_generators``); the evaluation sum is left to
the verify suites and the tests.

The canonical example is d Theta; its Hamiltonian map is M -> ad M and
its Poisson bracket is the graded commutator, both of which the tests pin
down exactly.  Uniqueness up to scalar is realized as a kernel
computation: every symplectic form is invariant under all Hamiltonian
fields, and Hamiltonian fields exhaust the derivations, so symplectic
candidates live in the space of closed invariant even 2-forms, which is
computed exactly and is one-dimensional.
"""
from __future__ import annotations

from math import lcm
from typing import List, NamedTuple, Optional, Tuple

from . import linalg
from .constants import StructureConstants
from .forms import (
    DerivationVector, GradedForm, canonical_one_form, evaluate,
    exterior_derivative_generators, interior_product,
)
from .formspace import FormBasis, d_matrix, form_to_sparse, kernel_forms, lie_matrix
from .matrices import GradedMatrix


def canonical_two_form(sc: StructureConstants) -> GradedForm:
    """d of the canonical 1-form; the reference symplectic structure."""
    return exterior_derivative_generators(sc, canonical_one_form(sc))


class SymplecticCertificate(NamedTuple):
    """Outcome of the symplectic test, with the failing stage if any.

    Its repr, which the errors below print, names every field and its value.
    """

    degree_ok: bool
    even: bool
    closed: bool
    contraction_rank: int
    expected_rank: int
    consistent: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.degree_ok and self.even and self.closed
            and self.contraction_rank == self.expected_rank and self.consistent
        )


class SymplecticForm:
    """A certified symplectic form with its factored contraction system."""

    def __init__(self, sc: StructureConstants, form: GradedForm,
                 _trusted: Optional[Tuple] = None):
        if _trusted is None:
            built, cert = analyze(sc, form)
            if built is None:
                raise ValueError(f"form is not symplectic: {cert}")
            _trusted = built._system
        self.sc = sc
        self.form = form
        self._system = _trusted

    def hamiltonian_field(self, mat: GradedMatrix) -> DerivationVector:
        """The unique derivation with  iota_D omega = -dM."""
        sc = self.sc
        system, basis, den = self._system
        rhs, rhs_den = _minus_differential(sc, mat, basis)
        x, x_den = system.solve(rhs)
        # x solves the contraction columns times den (one reduction of -dM
        # against the factored echelon), so D = den x / (x_den rhs_den)
        return DerivationVector(sc.basis, tuple((b, part, den * y) for b, part, y in x),
                                x_den * rhs_den)

    def poisson_bracket(self, m1: GradedMatrix, m2: GradedMatrix) -> GradedMatrix:
        """omega(D_M, D_M') for the two Hamiltonian fields."""
        d1 = self.hamiltonian_field(m1)
        d2 = self.hamiltonian_field(m2)
        return evaluate(self.form, [d1, d2])


def _minus_differential(sc: StructureConstants, mat: GradedMatrix, basis: FormBasis
                        ) -> Tuple[List[Tuple[int, int, int]], int]:
    """-dM over the 1-form basis, as (row, part, numerator) entries and their
    denominator: the right-hand side for the field of M."""
    dm = exterior_derivative_generators(sc, GradedForm.from_matrix(sc, mat))
    entries, den = form_to_sparse(dm, basis)
    return [(i, part, -y) for i, part, y in entries], den


def _contraction_system(sc: StructureConstants, form: GradedForm):
    """The factored contraction system, the 1-form basis of its rows, and the
    denominator ``den`` its columns are numerators over: column b holds
    iota_(bd_b) omega times ``den``."""
    basis = FormBasis(sc, 1)
    images = [form_to_sparse(interior_product(DerivationVector.basis(sc, b), form), basis)
              for b in range(sc.dim)]
    den = lcm(*(q for _, q in images))
    columns = [[(i, part, y * (den // q)) for i, part, y in entries]
               for entries, q in images]
    return linalg.factor(columns), basis, den


def analyze(
    sc: StructureConstants, form: GradedForm
) -> Tuple[Optional[SymplecticForm], SymplecticCertificate]:
    """Run the full symplectic test; return the certified form if it passes."""
    degree_ok = form.degree == 2
    even = degree_ok and form.homogeneous_parity() == 0
    closed = degree_ok and exterior_derivative_generators(sc, form).is_zero()
    if not degree_ok:
        return None, SymplecticCertificate(False, False, False, 0, sc.dim, False,
                                           note="degree must be 2")
    system, basis, den = _contraction_system(sc, form)
    rank = system.rank
    consistent = True
    note = ""
    if rank == sc.dim:
        probes = [sc.basis.elements[a] for a in range(sc.dim)]
        probes.append(GradedMatrix.identity(sc.n, sc.m))
        for mat in probes:
            try:
                system.solve(_minus_differential(sc, mat, basis)[0])
            except ValueError:
                consistent = False
                note = "contraction system inconsistent for a basis matrix"
                break
    cert = SymplecticCertificate(degree_ok, even, closed, rank, sc.dim, consistent,
                                 note=note)
    if not cert.ok:
        return None, cert
    return SymplecticForm(sc, form, _trusted=(system, basis, den)), cert


def is_symplectic(sc: StructureConstants, form: GradedForm) -> bool:
    return analyze(sc, form)[0] is not None


def canonical_symplectic(sc: StructureConstants) -> SymplecticForm:
    built, cert = analyze(sc, canonical_two_form(sc))
    if built is None:
        raise AssertionError(f"the canonical two-form is not symplectic: {cert}")
    return built


# ======================================================================
# Uniqueness up to scalar
# ======================================================================


def closed_invariant_even_two_forms(sc: StructureConstants) -> List[GradedForm]:
    """Exact basis of {omega even 2-form : d omega = 0, all L_bd omega = 0}.

    Every symplectic structure lies in this space, since it is invariant
    under its own Hamiltonian fields and those exhaust the derivations.
    The stack runs over the weight-0 labels, where every invariant form lies.
    """
    basis = FormBasis(sc, 2).zero_weight()
    return kernel_forms([d_matrix(basis)] + [lie_matrix(basis, a) for a in range(sc.dim)])


def symplectic_uniqueness_holds(sc: StructureConstants) -> bool:
    """The closed invariant even 2-forms are exactly the multiples of dTheta."""
    space = closed_invariant_even_two_forms(sc)
    return len(space) == 1 and space[0].is_nonzero_multiple_of(canonical_two_form(sc))
