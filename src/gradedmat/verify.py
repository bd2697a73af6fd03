"""The checks of ``gradedmat verify``, each identity written once.

An identity is a function of its inputs that returns None when it holds
and a short counterexample when it does not; the suites, the acceptance
criteria and the unit tests all call it, each on its own samples.  Where
callers use both routes of d, the route is the argument ``d``: the kernel
``exterior_derivative_generators`` or the oracle ``exterior_derivative``.
A parity argument is the declared parity of the form or matrix before
it.  Flatness and the Bianchi identity stay in ``bundles``
(``fm_is_zero``, ``Connection.bianchi_holds``).  A suite draws every
sample of a check before it evaluates one, so the seed fixes every draw.
"""
from __future__ import annotations

import random
from itertools import permutations, product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .bundles import (
    conjugated_rho, connection_form_from_rho, fm_is_zero, rank_one_connection,
    rho_is_flat, rho_map_injective,
)
from .constants import StructureConstants, verify_appendix
from .forms import (
    DerivationVector, GradedForm, _d_tuple, canonical_one_form,
    derivation_bracket, evaluate, exterior_derivative, exterior_derivative_generators,
    frame_form, frame_forms_from_differentials, interior_product, lie_derivative,
    wedge, wedge_form_matrix, wedge_matrix_form,
)
from .formspace import FormBasis, basis_form, d_matrix, invariant_forms
from .indexset import commutation_factor
from .matrices import GradedMatrix, graded_commutator
from .report import VerificationReport
from .sampling import random_even_invertible, random_form, random_homogeneous_matrix
from .symplectic import (
    SymplecticForm, analyze, canonical_two_form, symplectic_uniqueness_holds,
)

Route = Callable[[StructureConstants, GradedForm], GradedForm]


def _sign(x: int, y: int) -> int:
    """(-1)^(xy): the sign of moving an object of parity x past one of parity y."""
    return -1 if (x and y) else 1


# ---- The sign rule for permuting homogeneous arguments ----
def crossing_count(sigma: Sequence[int], degrees: Sequence[int],
                   flip: bool = False) -> Optional[str]:
    """commutation_factor is one sign per crossing: -1 for two odd letters.

    The word is sorted by adjacent swaps.  ``flip`` negates every crossing
    sign, a wrong rule that the sign suite must catch.
    """
    word = list(sigma)
    counted = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            x, y = word[i], word[i + 1]
            if x > y:
                step = _sign(degrees[x], degrees[y])
                counted *= -step if flip else step
                word[i], word[i + 1] = y, x
                changed = True
    formula = commutation_factor(sigma, degrees)
    if formula == counted:
        return None
    return f"sigma={sigma} parities={degrees} formula={formula} crossings={counted}"


def composition_rule(sigma: Sequence[int], tau: Sequence[int],
                     degrees: Sequence[int]) -> Optional[str]:
    """gamma(sigma tau) = gamma(sigma) gamma(tau), the degrees permuted by sigma for tau."""
    p = len(sigma)
    composed = tuple(sigma[tau[i]] for i in range(p))
    pulled = tuple(degrees[sigma[i]] for i in range(p))
    rhs = commutation_factor(sigma, degrees) * commutation_factor(tau, pulled)
    ok = commutation_factor(composed, degrees) == rhs
    return None if ok else f"sigma={sigma} tau={tau} parities={degrees}"


# ---- The graded Cartan calculus ----
def d_squared(sc: StructureConstants, w: GradedForm, d: Route) -> Optional[str]:
    """d d w = 0."""
    return None if d(sc, d(sc, w)).is_zero() else f"d d w != 0 at degree {w.degree}"


def d_squared_on_labels(basis: FormBasis) -> Iterator[Optional[str]]:
    """d d = 0 on each label of ``basis``, generator route: one case per label.

    d d (E_rc theta^I) = 0 says that the column kernel kills column
    (I, r, c) of d_p.  Building and normalising the two forms d w and d d w
    per label checks nothing more, so the integer columns of ``d_matrix``
    are read and the kernel (``_d_tuple``) is applied to each of them again,
    summed in ints keyed by (tuple, unit): no form is built and no basis of
    degree p+2 is enumerated.
    """
    sc = basis.sc
    out = FormBasis(sc, basis.p + 1)
    for lab, col in zip(basis, d_matrix(basis).columns):
        sums: Dict[Tuple[Tuple[int, ...], int], int] = {}
        for i, v in col.items():
            t, u = out.split(i)
            moved, frame = _d_tuple(sc, out.tuples[t])
            for table, key, sign in moved:
                f = sign * v
                for r, x in table[u]:
                    sums[key, r] = sums.get((key, r), 0) + f * x
            for key, x in frame:
                sums[key, u] = sums.get((key, u), 0) + v * x
        yield f"label={lab}" if any(sums.values()) else None


def d_commutes_with_lie(sc: StructureConstants, a: int, w: GradedForm,
                        d: Route) -> Optional[str]:
    """d L_a w = L_a d w."""
    da = DerivationVector.basis(sc, a)
    ok = d(sc, lie_derivative(sc, da, w)) == lie_derivative(sc, da, d(sc, w))
    return None if ok else f"a={a} degree {w.degree}"


def contraction_anticommutation(sc: StructureConstants, a: int, b: int,
                                w: GradedForm) -> Optional[str]:
    """i_a i_b w = -(-1)^(|a||b|) i_b i_a w."""
    da, db = DerivationVector.basis(sc, a), DerivationVector.basis(sc, b)
    lhs = interior_product(da, interior_product(db, w))
    rhs = interior_product(db, interior_product(da, w)).scale(
        -_sign(sc.parity(a), sc.parity(b))
    )
    return None if lhs == rhs else f"a={a} b={b} degree {w.degree}"


def homotopy_formula(sc: StructureConstants, a: int, w: GradedForm, parity: int,
                     d: Route) -> Optional[str]:
    """i_a d w + d i_a w = (-1)^(|a||w|) L_a w; a 0-form has no d i_a w."""
    da = DerivationVector.basis(sc, a)
    lhs = interior_product(da, d(sc, w))
    if w.degree:
        lhs = lhs + d(sc, interior_product(da, w))
    ok = lhs == lie_derivative(sc, da, w).scale(_sign(sc.parity(a), parity))
    return None if ok else f"a={a} degree {w.degree} parity {parity}"


def mixed_relation(sc: StructureConstants, a: int, b: int, w: GradedForm,
                   parity: int) -> Optional[str]:
    """L_a i_b w - i_b L_a w = (-1)^(|a||w|) i_[a,b] w."""
    da, db = DerivationVector.basis(sc, a), DerivationVector.basis(sc, b)
    lhs = lie_derivative(sc, da, interior_product(db, w)) \
        - interior_product(db, lie_derivative(sc, da, w))
    rhs = interior_product(derivation_bracket(sc, da, db), w).scale(
        _sign(sc.parity(a), parity)
    )
    return None if lhs == rhs else f"a={a} b={b} degree {w.degree} parity {parity}"


def d_leibniz(sc: StructureConstants, w1: GradedForm, w2: GradedForm,
              d: Route) -> Optional[str]:
    """d(w1 ^ w2) = dw1 ^ w2 + (-1)^p1 w1 ^ dw2, p1 the degree of w1."""
    lhs = d(sc, wedge(w1, w2))
    rhs = wedge(d(sc, w1), w2) + wedge(w1, d(sc, w2)).scale((-1) ** w1.degree)
    return None if lhs == rhs else f"degrees ({w1.degree}, {w2.degree})"


def lie_leibniz(sc: StructureConstants, a: int, w1: GradedForm, parity1: int,
                w2: GradedForm) -> Optional[str]:
    """L_a(w1 ^ w2) = L_a w1 ^ w2 + (-1)^(|a||w1|) w1 ^ L_a w2."""
    da = DerivationVector.basis(sc, a)
    lhs = lie_derivative(sc, da, wedge(w1, w2))
    rhs = wedge(lie_derivative(sc, da, w1), w2) \
        + wedge(w1, lie_derivative(sc, da, w2)).scale(_sign(sc.parity(a), parity1))
    return None if lhs == rhs else f"a={a} degrees ({w1.degree}, {w2.degree})"


def contraction_leibniz(sc: StructureConstants, a: int, w1: GradedForm,
                        w2: GradedForm, parity2: int) -> Optional[str]:
    """i_a(w1 ^ w2) = (-1)^(|a||w2|) i_a w1 ^ w2 + (-1)^p1 w1 ^ i_a w2.

    A 0-form has no contraction term; two 0-forms leave nothing to check.
    """
    p1, p2 = w1.degree, w2.degree
    if not p1 + p2:
        return None
    da = DerivationVector.basis(sc, a)
    lhs = interior_product(da, wedge(w1, w2))
    rhs = GradedForm.zero(sc, p1 + p2 - 1)
    if p1:
        rhs = rhs + wedge(interior_product(da, w1), w2).scale(
            _sign(sc.parity(a), parity2)
        )
    if p2:
        rhs = rhs + wedge(w1, interior_product(da, w2)).scale((-1) ** p1)
    return None if lhs == rhs else f"a={a} degrees ({p1}, {p2})"


# ---- The canonical 1-form Theta ----
def theta_invariance(sc: StructureConstants) -> Optional[str]:
    """L_a Theta = 0 for every basis derivation."""
    theta = canonical_one_form(sc)
    for a in range(sc.dim):
        if not lie_derivative(sc, DerivationVector.basis(sc, a), theta).is_zero():
            return f"a={a}"
    return None


def structure_equation(sc: StructureConstants, d: Route) -> Optional[str]:
    """d Theta = Theta ^ Theta."""
    theta = canonical_one_form(sc)
    return None if d(sc, theta) == wedge(theta, theta) else "d Theta != Theta ^ Theta"


def element_structure_equation(sc: StructureConstants, mat: GradedMatrix,
                               d: Route) -> Optional[str]:
    """d M = [Theta, M] = Theta M - M Theta for the 0-form M."""
    theta = canonical_one_form(sc)
    ok = d(sc, GradedForm.from_matrix(sc, mat)) == (
        wedge_form_matrix(theta, mat) - wedge_matrix_form(mat, theta))
    return None if ok else "d M != [Theta, M]"


def canonical_line(sc: StructureConstants, space: List[GradedForm]) -> Optional[str]:
    """The invariant 1-forms ``space`` span exactly the line of Theta."""
    if len(space) != 1:
        return f"the invariant 1-forms have dimension {len(space)}"
    if not space[0].is_nonzero_multiple_of(canonical_one_form(sc)):
        return "the invariant 1-form is not a nonzero multiple of Theta"
    return None


def frame_inversion(sc: StructureConstants) -> Optional[str]:
    """Each frame 1-form is rebuilt from the element differentials."""
    rebuilt = frame_forms_from_differentials(sc)
    for a in range(sc.dim):
        if rebuilt[a] != frame_form(sc, a):
            return f"frame index {a}"
    return None


# ---- The symplectic structure d Theta and its Poisson bracket ----
def hamiltonian_scaling(sc: StructureConstants, omega: GradedForm, c) -> Optional[str]:
    """For omega = d Theta: c omega is symplectic, with the field bd_a / c for
    E_a, compared as c times the field against bd_a."""
    scaled, _ = analyze(sc, omega.scale(c))
    if scaled is None:
        return f"scale {c} rejected"
    for a in range(sc.dim):
        field = scaled.hamiltonian_field(sc.basis.elements[a])
        if field.scale(c) != DerivationVector.basis(sc, a):
            return f"scale {c} element {a}"
    return None


def poisson_commutator(sc: StructureConstants, sym: SymplecticForm) -> Optional[str]:
    """{E_a, E_b} = [E_a, E_b] for every pair of basis elements.

    Each element's Hamiltonian field is solved once, and omega is evaluated
    on the pairs of fields, which is what ``poisson_bracket`` does per pair.
    """
    fields = [sym.hamiltonian_field(e) for e in sc.basis.elements]
    for a, ea in enumerate(sc.basis.elements):
        for b, eb in enumerate(sc.basis.elements):
            if evaluate(sym.form, [fields[a], fields[b]]) != graded_commutator(ea, eb):
                return f"pair ({a}, {b})"
    return None


def poisson_leibniz(sym: SymplecticForm, ma: GradedMatrix, pa: int,
                    mb: GradedMatrix, pb: int, mc: GradedMatrix) -> Optional[str]:
    """{A, BC} = {A, B} C + (-1)^(|A||B|) B {A, C}; pa, pb the parities of A, B."""
    lhs = sym.poisson_bracket(ma, mb @ mc)
    rhs = sym.poisson_bracket(ma, mb) @ mc \
        + (mb @ sym.poisson_bracket(ma, mc)).scale(_sign(pa, pb))
    return None if lhs == rhs else f"parities ({pa}, {pb})"


def hamiltonian_invariance(sc: StructureConstants, sym: SymplecticForm,
                           mat: GradedMatrix) -> Optional[str]:
    """L_X omega = 0 for the Hamiltonian field X of ``mat``."""
    ok = lie_derivative(sc, sym.hamiltonian_field(mat), sym.form).is_zero()
    return None if ok else "L_X omega != 0"


# ---- Suites ----
def _homogeneous_form(rng: random.Random, sc: StructureConstants, low: int,
                      high: int):
    """A random form of degree in [low, high] and its parity, drawn in that order."""
    p = rng.randint(low, high)
    parity = rng.randint(0, 1)
    return random_form(rng, sc, p, parity=parity), parity


def suite_commutation_signs(flip: bool = False) -> VerificationReport:
    """The sign rule for permuting homogeneous arguments, checked two ways."""
    rep = VerificationReport("gamma_factor")
    rep.add("identity permutation is neutral", all(
        commutation_factor(tuple(range(p)), degs) == 1
        for p in range(1, 5)
        for degs in product((0, 1), repeat=p)
    ))
    rep.check("matches the adjacent-swap crossing count", (
        crossing_count(sigma, degs, flip)
        for p in range(1, 5)
        for degs in product((0, 1), repeat=p)
        for sigma in permutations(range(p))
    ))
    rep.check("composition rule", (
        composition_rule(sigma, tau, degs)
        for p in (2, 3)
        for degs in product((0, 1), repeat=p)
        for sigma in permutations(range(p))
        for tau in permutations(range(p))
    ))
    return rep


def suite_cartan(sc: StructureConstants, seed: int) -> VerificationReport:
    """Differential, Lie derivative and contraction identities, seeded."""
    rng = random.Random(seed)
    rep = VerificationReport("cartan")
    gen = exterior_derivative_generators

    bases = []
    for p in range(3):
        basis = FormBasis(sc, p)
        if len(basis) > 400:
            # positions sort as their labels do, and are drawn as the labels would be
            basis = basis.restricted(sorted(rng.sample(range(len(basis)), 120)))
        bases.append(basis)
    # d d on a basis monomial is zero exactly when the kernel kills its
    # column of d_p, so the check reads integer columns and builds no form
    rep.check("d twice kills basis monomials (generator route, degree <= 2)", (
        case for basis in bases for case in d_squared_on_labels(basis)
    ), note=f"{sum(map(len, bases))} monomials")

    seeded = [random_form(rng, sc, p) for p in range(3) for _ in range(4)]
    rep.check("d twice kills seeded forms (evaluation route, degree <= 2)",
              (d_squared(sc, w, exterior_derivative) for w in seeded))

    picked = []
    for p in range(3):
        all_labels = FormBasis(sc, p)
        picked.extend(rng.sample(all_labels, min(10, len(all_labels))))
    rep.check("evaluation and generator differentials agree on seeded monomials", (
        f"label={lab}" for lab in picked
        if exterior_derivative(sc, basis_form(sc, lab))
        != gen(sc, basis_form(sc, lab))
    ))

    # a tuple's entries are drawn left to right: degree, form, a
    samples = [(random_form(rng, sc, rng.randint(0, 2)), rng.randrange(sc.dim))
               for _ in range(8)]
    rep.check("d commutes with Lie derivatives",
              (d_commutes_with_lie(sc, a, w, gen) for w, a in samples))

    samples = [(random_form(rng, sc, rng.randint(2, 3)), rng.randrange(sc.dim),
                rng.randrange(sc.dim)) for _ in range(8)]
    rep.check("contraction anticommutation",
              (contraction_anticommutation(sc, a, b, w) for w, a, b in samples))

    samples = [(*_homogeneous_form(rng, sc, 1, 2), rng.randrange(sc.dim))
               for _ in range(8)]
    rep.check("contraction-differential homotopy",
              (homotopy_formula(sc, a, w, par, gen) for w, par, a in samples))

    samples = [(*_homogeneous_form(rng, sc, 1, 2), rng.randrange(sc.dim),
                rng.randrange(sc.dim)) for _ in range(8)]
    rep.check("mixed Lie-contraction relation",
              (mixed_relation(sc, a, b, w, par) for w, par, a, b in samples))

    pairs = []
    for _ in range(6):
        p1, p2 = rng.randint(0, 2), rng.randint(0, 1)
        par1, par2 = rng.randint(0, 1), rng.randint(0, 1)
        w1 = random_form(rng, sc, p1, parity=par1)
        w2 = random_form(rng, sc, p2, parity=par2)
        pairs.append((w1, par1, w2, par2, rng.randrange(sc.dim)))
    rep.check("differential Leibniz rule",
              (d_leibniz(sc, w1, w2, gen) for w1, _, w2, _, _ in pairs))
    rep.check("Lie derivative Leibniz rule",
              (lie_leibniz(sc, a, w1, par1, w2) for w1, par1, w2, _, a in pairs))
    rep.check("contraction Leibniz rule",
              (contraction_leibniz(sc, a, w1, w2, par2) for w1, _, w2, par2, a in pairs))
    return rep


def suite_canonical_form(sc: StructureConstants) -> VerificationReport:
    rep = VerificationReport("canonical_form")
    rep.check("every basis Lie derivative kills the canonical form",
              [theta_invariance(sc)])
    rep.check("d of the canonical form equals its square",
              [structure_equation(sc, exterior_derivative)])
    rep.check("generator-route differential agrees on the canonical form",
              [structure_equation(sc, exterior_derivative_generators)])
    rep.check("d of each basis element is the bracket with the canonical form", (
        f"element={a}" for a, mat in enumerate(sc.basis.elements)
        if element_structure_equation(sc, mat, exterior_derivative_generators)
    ))
    space = invariant_forms(sc, 1)
    rep.check("invariant 1-forms are exactly the canonical line",
              [canonical_line(sc, space)],
              note=f"solution space dimension {len(space)}")
    return rep


def suite_frame_inversion(sc: StructureConstants) -> VerificationReport:
    rep = VerificationReport("frame_inversion")
    rep.check("frame forms rebuilt from element differentials", [frame_inversion(sc)])
    return rep


def suite_symplectic(sc: StructureConstants, seed: int) -> VerificationReport:
    rng = random.Random(seed)
    rep = VerificationReport("symplectic_poisson")
    omega = canonical_two_form(sc)

    sym, cert = analyze(sc, omega)
    rep.add("canonical 2-form is symplectic", sym is not None and cert.ok,
            note=f"contraction rank {cert.contraction_rank}/{cert.expected_rank}")
    if sym is None:
        return rep

    rep.check("hamiltonian fields of basis elements are scaled basis derivations",
              (hamiltonian_scaling(sc, omega, c) for c in (1, 2, -3)))
    rep.check("poisson bracket of basis elements is the graded commutator",
              [poisson_commutator(sc, sym)])

    triples = []
    for _ in range(4):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        ma = random_homogeneous_matrix(rng, sc.n, sc.m, pa)
        mb = random_homogeneous_matrix(rng, sc.n, sc.m, pb)
        mc = random_homogeneous_matrix(rng, sc.n, sc.m, rng.randint(0, 1))
        triples.append((ma, pa, mb, pb, mc))
    rep.check("poisson Leibniz rule on seeded homogeneous triples",
              (poisson_leibniz(sym, *triple) for triple in triples))

    mats = [random_homogeneous_matrix(rng, sc.n, sc.m, rng.randint(0, 1))
            for _ in range(4)]
    rep.check("hamiltonian fields preserve the form",
              (hamiltonian_invariance(sc, sym, mat) for mat in mats))

    degenerate = GradedForm.of(sc, 2, {(0, 1): GradedMatrix.identity(sc.n, sc.m)})
    _, bad_cert = analyze(sc, degenerate)
    rep.add("degenerate 2-form is rejected", not bad_cert.ok,
            note=f"contraction rank {bad_cert.contraction_rank}/{bad_cert.expected_rank}")

    if (sc.n, sc.m) == (2, 1):
        rep.add("closed invariant even 2-forms are multiples of the canonical one",
                symplectic_uniqueness_holds(sc))
    return rep


def suite_bianchi(sc: StructureConstants, seed: int) -> VerificationReport:
    rng = random.Random(seed)
    rep = VerificationReport("bianchi")
    theta = canonical_one_form(sc)

    conn = rank_one_connection(sc, theta)
    rep.add("canonical connection is flat", fm_is_zero(conn.curvature()))
    rep.add("bianchi identity for the canonical connection", conn.bianchi_holds())

    doubled = rank_one_connection(sc, theta.scale(2))
    curv = doubled.curvature()
    nonzero = sum(0 if f.is_zero() else 1 for row in curv for f in row)
    rep.add("doubled connection is not flat", nonzero > 0,
            note=f"{nonzero} nonzero curvature entries")
    rep.add("bianchi identity for the doubled connection",
            doubled.bianchi_holds())

    g = random_even_invertible(rng, sc.n, sc.m)
    rho = conjugated_rho(sc, g)
    flat = rho_is_flat(sc, rho)
    inj = rho_map_injective(sc, rho)
    rep.add("conjugated coefficient family is flat and injective", flat and inj)
    conj = rank_one_connection(sc, connection_form_from_rho(sc, rho))
    rep.add("conjugated connection has zero curvature", fm_is_zero(conj.curvature()))
    return rep


def run_verify(sc: StructureConstants, seed: int, flip: bool) -> List[VerificationReport]:
    return [
        suite_commutation_signs(flip=flip),
        verify_appendix(sc),
        suite_cartan(sc, seed),
        suite_canonical_form(sc),
        suite_frame_inversion(sc),
        suite_symplectic(sc, seed),
        suite_bianchi(sc, seed),
    ]
