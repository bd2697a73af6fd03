"""Acceptance gate: one test per release criterion, exact arithmetic only.

Every check here is an equality of exact scalars, forms, or integer ranks;
there are no tolerances anywhere.  Each test prints one summary line so a
plain ``pytest -v -s tests/test_acceptance.py`` reads as a checklist, and
each asserts its own wall-clock budget.
"""
import json
import random
import subprocess
import sys
import time

from gradedmat import linalg
from gradedmat.bundles import (
    conjugated_rho,
    connection_form_from_rho,
    fm_is_zero,
    is_graded_free,
    rank_one_connection,
)
from gradedmat.cohomology import betti_numbers, body_map_matrix, differential_matrix
from gradedmat.constants import verify_appendix
from gradedmat.formspace import (
    FormBasis,
    basis_form,
    invariant_forms,
    vector_to_form,
)
from gradedmat.forms import (
    GradedForm,
    canonical_one_form,
    exterior_derivative,
    exterior_derivative_generators,
    wedge_matrix_form,
)
from gradedmat.matrices import GradedMatrix
from gradedmat.sampling import random_even_invertible, random_form
from gradedmat.symplectic import (
    analyze,
    canonical_two_form,
    is_symplectic,
    symplectic_uniqueness_holds,
)
from gradedmat.verify import (
    canonical_line,
    contraction_anticommutation,
    contraction_leibniz,
    d_commutes_with_lie,
    d_leibniz,
    d_squared,
    element_structure_equation,
    frame_inversion,
    hamiltonian_scaling,
    homotopy_formula,
    lie_leibniz,
    mixed_relation,
    poisson_commutator,
    structure_equation,
    theta_invariance,
)
from tests.ce_oracle import ce_oracle, ordinary_sl_basis
from tests.helpers import (
    brute_force_free,
    clear_denominators,
    column_values,
    idempotent_cover_connection,
    sparse_values,
)


def conclude(num, desc, failures, t0, budget):
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < budget
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} "
        f"({elapsed:.1f}s, budget {budget}s)"
    )
    if failures:
        line += f"; first failure: {failures[0]}"
    print(line)
    assert not failures, f"criterion {num}: {len(failures)} failed, first: {failures[0]}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_structure_constant_identities(sc21, sc31, sc20, sc30):
    t0 = time.monotonic()
    failures = []
    for sc in (sc21, sc31, sc20, sc30):
        rep = verify_appendix(sc)
        for c in rep.failures():
            failures.append(f"({sc.n}|{sc.m}) {c.name}: {c.counterexample}")
    conclude(1, "structure constant identity catalog at four sizes",
             failures, t0, 60)


def test_criterion_2_cartan_calculus(sc21):
    t0 = time.monotonic()
    failures = []
    rng = random.Random(0)
    dim = sc21.dim
    gen = exterior_derivative_generators

    # d squares to zero on every theta-monomial basis form of degree <= 3.
    # The generator route carries the full sweep.  The cached differential
    # matrices are the column kernel's (formspace.d_matrix); their
    # composites cover the same ground completely through degree 2, and
    # criterion 3 ties every one of their columns to the values route.
    # Seeded degree-3 columns are then checked by the values route at
    # degree 4, and seeded degree-4 monomials pin the two routes against
    # each other at the one degree where only the sweep's inner step runs.
    for p in range(0, 4):
        for lab in FormBasis(sc21, p):
            if d_squared(sc21, basis_form(sc21, lab), gen):
                failures.append(f"d.d != 0 (generators) at {lab}")
    for p in range(0, 3):
        outer = differential_matrix(sc21, p + 1).matrix
        inner = differential_matrix(sc21, p).matrix
        if not outer.compose_is_zero(inner):
            failures.append(f"d.d != 0 (values) at degree {p}")
    data3 = differential_matrix(sc21, 3)
    for j in [rng.randrange(data3.dim) for _ in range(40)]:
        col = column_values(data3.matrix, j)
        w4 = vector_to_form(col, FormBasis(sc21, 4))
        if not exterior_derivative(sc21, w4).is_zero():
            failures.append(f"d.d != 0 (values) at degree-3 column {j}")
    labels4 = FormBasis(sc21, 4)
    for lab in rng.sample(labels4, 40):
        w = basis_form(sc21, lab)
        if exterior_derivative(sc21, w) != exterior_derivative_generators(sc21, w):
            failures.append(f"degree-4 route mismatch at {lab}")

    # d commutes with every Lie derivative on 20 seeded homogeneous
    # samples per degree
    for p in range(0, 4):
        for _ in range(20):
            w = random_form(rng, sc21, p, parity=rng.randint(0, 1))
            a = rng.randrange(dim)
            if d_commutes_with_lie(sc21, a, w, gen):
                failures.append(f"L d != d L at p={p} a={a}")

    # contraction anticommutation, the homotopy formula, and the mixed
    # contraction relation, on 20 seeded homogeneous samples per degree
    for p in range(0, 4):
        for _ in range(20):
            wpar = rng.randint(0, 1)
            w = random_form(rng, sc21, p, parity=wpar)
            a, b = rng.randrange(dim), rng.randrange(dim)
            if p >= 2 and contraction_anticommutation(sc21, a, b, w):
                failures.append(f"contraction anticommutation p={p}")
            if homotopy_formula(sc21, a, w, wpar, gen):
                failures.append(f"homotopy formula p={p} a={a}")
            if p >= 1 and mixed_relation(sc21, a, b, w, wpar):
                failures.append(f"mixed relation p={p} a={a} b={b}")

    # the homotopy formula on seeded basis monomials
    all_labels = [
        lab for p in range(1, 4) for lab in FormBasis(sc21, p)
    ]
    for lab in rng.sample(all_labels, 40):
        w = basis_form(sc21, lab)
        a = rng.randrange(dim)
        if homotopy_formula(sc21, a, w, w.homogeneous_parity(), gen):
            failures.append(f"homotopy formula at monomial {lab}")

    # the three Leibniz rules on 20 seeded homogeneous pairs per total
    # degree
    for total in range(0, 4):
        for _ in range(20):
            p1 = rng.randint(0, total)
            p2 = total - p1
            par1, par2 = rng.randint(0, 1), rng.randint(0, 1)
            w1 = random_form(rng, sc21, p1, parity=par1)
            w2 = random_form(rng, sc21, p2, parity=par2)
            a = rng.randrange(dim)
            if d_leibniz(sc21, w1, w2, gen):
                failures.append(f"derivative Leibniz p1={p1} p2={p2}")
            if lie_leibniz(sc21, a, w1, par1, w2):
                failures.append(f"Lie Leibniz p1={p1} p2={p2} a={a}")
            if contraction_leibniz(sc21, a, w1, w2, par2):
                failures.append(f"contraction Leibniz p1={p1} p2={p2}")

    conclude(2, "Cartan calculus identities at (2|1)", failures, t0, 120)


def test_criterion_3_derivative_route_agreement(sc21, sc20):
    t0 = time.monotonic()
    failures = []
    routes = (
        ("values", exterior_derivative),
        ("generators", exterior_derivative_generators),
    )
    for sc in (sc21, sc20):
        for p in range(0, 4):
            data = differential_matrix(sc, p)
            out = FormBasis(sc, p + 1)
            for j, lab in enumerate(data.matrix.basis):
                w = basis_form(sc, lab)
                for name, route in routes:
                    got = sparse_values(route(sc, w), out)
                    if got != column_values(data.matrix, j):
                        failures.append(
                            f"({sc.n}|{sc.m}) p={p} label {lab}: {name} route"
                        )
    conclude(3, "differential matrix columns equal the values and generator "
                "derivative routes on all basis forms through degree 3",
             failures, t0, 120)


def test_criterion_4_canonical_form_suite(sc21, sc31):
    t0 = time.monotonic()
    failures = []
    for sc in (sc21, sc31):
        tag = f"({sc.n}|{sc.m})"
        checks = [
            theta_invariance(sc),
            structure_equation(sc, exterior_derivative),
            canonical_line(sc, invariant_forms(sc, 1)),
            frame_inversion(sc),
        ]
        failures += [f"{tag} {bad}" for bad in checks if bad]
        for a, mat in enumerate(sc.basis.elements):
            if element_structure_equation(sc, mat, exterior_derivative):
                failures.append(f"{tag} dE_{a} != [Theta, E_{a}]")
    conclude(4, "canonical 1-form: invariance, structure equation, "
                "uniqueness, frame inversion at (2|1) and (3|1)",
             failures, t0, 300)


def test_criterion_5_cohomology_matches_classical_oracle(sc21, sc20):
    t0 = time.monotonic()
    failures = []
    want = ce_oracle(ordinary_sl_basis(2), 3)
    if want != [1, 0, 0, 1]:
        failures.append(f"oracle betti {want}")
    shapes = []
    for sc in (sc21, sc20):
        got = betti_numbers(sc, 3)
        if got != want:
            failures.append(f"({sc.n}|{sc.m}) betti {got} != {want}")
        top = differential_matrix(sc, 3)
        shapes.append(f"{top.matrix.nrows}x{top.matrix.ncols}")
    conclude(5, "betti numbers equal the classical oracle at (2|1) and "
                f"(2|0); largest exact rank {shapes[0]}", failures, t0, 1800)


def test_criterion_6_body_projection(sc21, sc20):
    t0 = time.monotonic()
    failures = []
    blk = sc20.dim

    def survives(lab):
        key, r, c = lab
        return all(i < blk for i in key) and r < 2 and c < 2

    # chain map on every basis form of degree <= 3, straight off the
    # cached differential matrices of both complexes
    for p in range(0, 4):
        up = differential_matrix(sc21, p)
        down = differential_matrix(sc20, p)
        up_out, body_out = FormBasis(sc21, p + 1), FormBasis(sc20, p + 1)
        for j, lab in enumerate(up.matrix.basis):
            col = column_values(up.matrix, j)
            lhs = {}
            for i, v in col.items():
                out_lab = up_out[i]
                if survives(out_lab):
                    lhs[body_out.index(out_lab)] = v
            if survives(lab):
                rhs = column_values(down.matrix, down.matrix.basis.index(lab))
            else:
                rhs = {}
            if lhs != rhs:
                failures.append(f"chain map breaks at p={p} label {lab}")
    # exact surjectivity in every degree
    for p in range(0, 4):
        bm = body_map_matrix(sc21, sc20, p)
        if bm.rank() != len(FormBasis(sc20, p)):
            failures.append(f"body map not surjective at p={p}")
    conclude(6, "body projection is a surjective chain map", failures, t0, 300)


def test_criterion_7_symplectic_structure(sc21):
    t0 = time.monotonic()
    failures = []
    omega = canonical_two_form(sc21)
    if not is_symplectic(sc21, omega):
        failures.append("dTheta not certified symplectic")
    for c in (1, 2, -3):
        bad = hamiltonian_scaling(sc21, omega, c)
        if bad:
            failures.append(f"hamiltonian field: {bad}")
    bad = poisson_commutator(sc21, analyze(sc21, omega)[0])
    if bad:
        failures.append(f"poisson bracket {bad}")
    if not symplectic_uniqueness_holds(sc21):
        failures.append("closed invariant even 2-forms exceed the dTheta line")
    conclude(7, "symplectic certificate, Hamiltonian fields, Poisson "
                "bracket, uniqueness at (2|1)", failures, t0, 300)


def test_criterion_8_connections_and_curvature(sc21):
    t0 = time.monotonic()
    failures = []
    th = canonical_one_form(sc21)
    constructed = []

    conn = rank_one_connection(sc21, th)
    constructed.append(("theta", conn))
    if not fm_is_zero(conn.curvature()):
        failures.append("alpha = Theta is not flat")

    for seed in (1, 2, 3):
        g = random_even_invertible(random.Random(seed), 2, 1)
        rho = conjugated_rho(sc21, g)
        conn = rank_one_connection(sc21, connection_form_from_rho(sc21, rho))
        constructed.append((f"conjugated seed {seed}", conn))
        if not fm_is_zero(conn.curvature()):
            failures.append(f"conjugated connection (seed {seed}) not flat")

    conn = rank_one_connection(sc21, th.scale(2))
    constructed.append(("2 Theta", conn))
    if fm_is_zero(conn.curvature()):
        failures.append("alpha = 2 Theta reported flat")

    conn = idempotent_cover_connection(sc21, random.Random(71))
    constructed.append(("idempotent cover", conn))
    if fm_is_zero(conn.curvature()):
        failures.append("idempotent-cover connection reported flat")

    for name, conn in constructed:
        if not conn.bianchi_holds():
            failures.append(f"Bianchi identity fails for {name}")

    for r in range(11):
        for s in range(11):
            if is_graded_free(2, 1, r, s) != brute_force_free(2, 1, r, s):
                failures.append(f"freeness mismatch at (r,s)=({r},{s})")

    conclude(8, "flat and non-flat connections, Bianchi identity, "
                "graded freeness", failures, t0, 300)


def test_criterion_9_deterministic_reports(tmp_path):
    t0 = time.monotonic()
    failures = []
    outs = []
    for i in (0, 1):
        path = tmp_path / f"verify{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gradedmat", "verify", "--n", "2",
             "--m", "1", "--seed", "0", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            failures.append(f"run {i} exited {proc.returncode}: {proc.stderr}")
            continue
        outs.append(path.read_bytes())
    if len(outs) == 2:
        if outs[0] != outs[1]:
            failures.append("reports differ between runs")
        report = json.loads(outs[0])
        if not report["passed"]:
            failures.append("verification report failed")
        if len(report["config"]["build"]) != 12:
            failures.append("missing build identifier")
    conclude(9, "verification reports are byte-identical across runs",
             failures, t0, 300)


def universal_image_rank(sc, d):
    """The rank of a (x) b -> a db over all pairs of matrix units."""
    basis = FormBasis(sc, 1)
    k = sc.n + sc.m
    units = [GradedMatrix.unit(sc.n, sc.m, i, j) for i in range(k) for j in range(k)]
    rows = []
    for b in units:
        db = d(sc, GradedForm.from_matrix(sc, b))
        for a in units:
            coords = sparse_values(wedge_matrix_form(a, db), basis)
            rows.append(clear_denominators({i: v.re for i, v in coords.items()}))
    return linalg.exact_rank(rows, len(basis))


def without_theta_0(d):
    """A broken d: the route with the theta^0 terms of its output dropped."""
    def broken(sc, form):
        out = d(sc, form)
        return GradedForm.of(sc, out.degree,
                             {k: v for k, v in out.coeffs.items() if 0 not in k})
    return broken


def test_criterion_10_universality_of_the_first_order_calculus(sc21, sc12, sc31, sc20):
    t0 = time.monotonic()
    failures = []
    routes = (
        ("values", exterior_derivative),
        ("generators", exterior_derivative_generators),
    )
    # the rank of the map with the theta^0 terms of db dropped
    cases = ((sc21, 63), (sc12, 63), (sc31, 224), (sc20, 8))
    for sc, broken_rank in cases:
        big_n = sc.n + sc.m
        one_forms = (big_n ** 2 - 1) * big_n ** 2
        ident = GradedForm.from_matrix(sc, GradedMatrix.identity(sc.n, sc.m))
        for name, d in routes:
            tag = f"({sc.n}|{sc.m}) {name} route"
            # onto the 1-forms, so the kernel has dimension N^2 and holds
            # A (x) 1 because d1 = 0: the kernel is exactly A (x) 1
            rank = universal_image_rank(sc, d)
            if rank != one_forms:
                failures.append(f"{tag}: rank {rank} of {one_forms}")
            if not d(sc, ident).is_zero():
                failures.append(f"{tag}: d1 != 0")
            broken = universal_image_rank(sc, without_theta_0(d))
            if broken != broken_rank:
                failures.append(f"{tag}: d without theta^0 has rank {broken}")
    conclude(10, "a (x) b -> a db maps onto the 1-forms with kernel A (x) 1 "
                 "at (2|1), (1|2), (3|1) and (2|0), on both routes of d",
             failures, t0, 120)
