"""Command-line driver: computations and verifications as reproducible runs.

Every command emits one report, as JSON (default) or CSV, to --out or
stdout.  Fixed flags and an unchanged source tree give byte-identical
bytes; the build identifier ties a report to the sources that made it.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
cap exceeded: n + m above ``MATRIX_SIZE_CAP`` (checked first), or a
differential whose run would hold more than ``HELD_LABELS_CAP`` labels;
``cohomology`` then reports the degrees it built.

``cohomology`` ranks each differential through the weight grading
(``cohomology.ChainDegreeData``): the zero-weight block by exact
elimination with its modular check, every other weight by a checked Cartan
homotopy, with d_p d_(p-1) = 0 checked as well.  A failed check exits 1,
naming the degree and the label on stderr, with no report.
"""
from __future__ import annotations

import argparse
import hashlib
import random
import sys
from contextlib import nullcontext
from itertools import permutations, product
from pathlib import Path
from typing import List, Optional, Sequence

from . import jsonio
from .bundles import (
    conjugated_rho,
    connection_form_from_rho,
    flat_curvature_coefficients,
    rank_one_connection,
    rho_is_flat,
    rho_map_injective,
)
from .cohomology import (
    MATRIX_SIZE_CAP,
    CertificateError,
    DifferentialTooLarge,
    chain_degrees,
)
from .constants import StructureConstants, constants_for, verify_appendix
from .forms import (
    DerivationVector,
    GradedForm,
    canonical_one_form,
    derivation_bracket,
    differential_of_element,
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
from .formspace import FormBasis, basis_form, invariant_forms
from .indexset import commutation_factor
from .matrices import GradedMatrix, graded_commutator
from .report import VerificationReport
from .sampling import (
    random_even_invertible,
    random_form,
    random_homogeneous_matrix,
)
from .scalars import Scalar
from .symplectic import (
    analyze,
    canonical_two_form,
    symplectic_uniqueness_holds,
)


def build_identifier() -> str:
    """Truncated digest of the package sources, for report provenance."""
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _config_obj(args, **extra) -> dict:
    out = {
        "command": args.command,
        "n": args.n,
        "m": args.m,
        "seed": args.seed,
        "build": build_identifier(),
    }
    out.update(extra)
    return out


def _emit(args, obj: dict, csv_header: Sequence[str], csv_rows: List[list]) -> None:
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        if args.format == "json":
            jsonio.dump(obj, fh)
        else:
            fh.write(jsonio.csv_text(csv_header, csv_rows))


# ======================================================================
# Verification suites
# ======================================================================


def _crossing_count_factor(sigma, degrees, flip: bool) -> int:
    # operational definition: sort the permuted word by adjacent swaps and
    # collect one sign per crossing
    word = list(sigma)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                x, y = word[i], word[i + 1]
                step = -1 if (degrees[x] and degrees[y]) else 1
                sign *= -step if flip else step
                word[i], word[i + 1] = y, x
                changed = True
    return sign


def suite_commutation_signs(flip: bool = False) -> VerificationReport:
    """The sign rule for permuting homogeneous arguments, checked two ways."""
    rep = VerificationReport("gamma_factor")

    ok = all(
        commutation_factor(tuple(range(p)), degs) == 1
        for p in range(1, 5)
        for degs in product((0, 1), repeat=p)
    )
    rep.add("identity permutation is neutral", ok)

    bad = None
    for p in range(1, 5):
        for degs in product((0, 1), repeat=p):
            for sigma in permutations(range(p)):
                formula = commutation_factor(sigma, degs)
                counted = _crossing_count_factor(sigma, degs, flip)
                if formula != counted and bad is None:
                    bad = (
                        f"sigma={sigma} parities={degs} "
                        f"formula={formula} crossings={counted}"
                    )
    rep.add("matches the adjacent-swap crossing count", bad is None, bad)

    bad = None
    for p in (2, 3):
        for degs in product((0, 1), repeat=p):
            for sigma in permutations(range(p)):
                for tau in permutations(range(p)):
                    st = tuple(sigma[tau[i]] for i in range(p))
                    pulled = tuple(degs[sigma[i]] for i in range(p))
                    lhs = commutation_factor(st, degs)
                    rhs = commutation_factor(sigma, degs) * commutation_factor(
                        tau, pulled
                    )
                    if lhs != rhs and bad is None:
                        bad = f"sigma={sigma} tau={tau} parities={degs}"
    rep.add("composition rule", bad is None, bad)
    return rep


def suite_cartan(sc: StructureConstants, seed: int) -> VerificationReport:
    """Differential, Lie derivative and contraction identities, seeded."""
    rng = random.Random(seed)
    rep = VerificationReport("cartan")

    labels = []
    for p in range(3):
        degree_labels = FormBasis(sc, p)
        if len(degree_labels) > 400:
            degree_labels = sorted(rng.sample(degree_labels, 120))
        labels.extend(degree_labels)
    bad = None
    for lab in labels:
        w = basis_form(sc, lab)
        dd = exterior_derivative_generators(
            sc, exterior_derivative_generators(sc, w)
        )
        if not dd.is_zero() and bad is None:
            bad = f"label={lab}"
    rep.add(
        "d twice kills basis monomials (generator route, degree <= 2)",
        bad is None,
        bad,
        note=f"{len(labels)} monomials",
    )

    ok = True
    for p in range(3):
        for _ in range(4):
            w = random_form(rng, sc, p)
            if not exterior_derivative(sc, exterior_derivative(sc, w)).is_zero():
                ok = False
    rep.add("d twice kills seeded forms (evaluation route, degree <= 2)", ok)

    ok = True
    for p in range(3):
        all_labels = FormBasis(sc, p)
        for lab in rng.sample(all_labels, min(10, len(all_labels))):
            w = basis_form(sc, lab)
            if exterior_derivative(sc, w) != exterior_derivative_generators(sc, w):
                ok = False
    rep.add("evaluation and generator differentials agree on seeded monomials", ok)

    ok = True
    for _ in range(8):
        p = rng.randint(0, 2)
        w = random_form(rng, sc, p)
        a = rng.randrange(sc.dim)
        da = DerivationVector.basis(sc, a)
        lhs = exterior_derivative_generators(sc, lie_derivative(sc, da, w))
        rhs = lie_derivative(sc, da, exterior_derivative_generators(sc, w))
        if lhs != rhs:
            ok = False
    rep.add("d commutes with Lie derivatives", ok)

    ok = True
    for _ in range(8):
        p = rng.randint(2, 3)
        w = random_form(rng, sc, p)
        a, b = rng.randrange(sc.dim), rng.randrange(sc.dim)
        da, db = DerivationVector.basis(sc, a), DerivationVector.basis(sc, b)
        lhs = interior_product(da, interior_product(db, w))
        rhs = interior_product(db, interior_product(da, w)).scale(
            1 if (sc.parity(a) and sc.parity(b)) else -1
        )
        if lhs != rhs:
            ok = False
    rep.add("contraction anticommutation", ok)

    ok = True
    for _ in range(8):
        p = rng.randint(1, 2)
        wpar = rng.randint(0, 1)
        w = random_form(rng, sc, p, parity=wpar)
        a = rng.randrange(sc.dim)
        da = DerivationVector.basis(sc, a)
        lhs = interior_product(da, exterior_derivative_generators(sc, w)) \
            + exterior_derivative_generators(sc, interior_product(da, w))
        rhs = lie_derivative(sc, da, w).scale(
            -1 if (sc.parity(a) and wpar) else 1
        )
        if lhs != rhs:
            ok = False
    rep.add("contraction-differential homotopy", ok)

    ok = True
    for _ in range(8):
        p = rng.randint(1, 2)
        wpar = rng.randint(0, 1)
        w = random_form(rng, sc, p, parity=wpar)
        a, b = rng.randrange(sc.dim), rng.randrange(sc.dim)
        da, db = DerivationVector.basis(sc, a), DerivationVector.basis(sc, b)
        lhs = lie_derivative(sc, da, interior_product(db, w)) \
            - interior_product(db, lie_derivative(sc, da, w))
        rhs = interior_product(derivation_bracket(sc, da, db), w).scale(
            -1 if (sc.parity(a) and wpar) else 1
        )
        if lhs != rhs:
            ok = False
    rep.add("mixed Lie-contraction relation", ok)

    d_ok = lie_ok = iota_ok = True
    for _ in range(6):
        p1, p2 = rng.randint(0, 2), rng.randint(0, 1)
        par1, par2 = rng.randint(0, 1), rng.randint(0, 1)
        w1 = random_form(rng, sc, p1, parity=par1)
        w2 = random_form(rng, sc, p2, parity=par2)
        a = rng.randrange(sc.dim)
        da = DerivationVector.basis(sc, a)
        pa = sc.parity(a)

        lhs = exterior_derivative_generators(sc, wedge(w1, w2))
        rhs = wedge(exterior_derivative_generators(sc, w1), w2) \
            + wedge(w1, exterior_derivative_generators(sc, w2)).scale((-1) ** p1)
        d_ok = d_ok and lhs == rhs

        lhs = lie_derivative(sc, da, wedge(w1, w2))
        rhs = wedge(lie_derivative(sc, da, w1), w2) \
            + wedge(w1, lie_derivative(sc, da, w2)).scale(
                -1 if (pa and par1) else 1
            )
        lie_ok = lie_ok and lhs == rhs

        if p1 + p2 >= 1:
            lhs = interior_product(da, wedge(w1, w2))
            rhs = GradedForm.zero(sc, p1 + p2 - 1)
            if p1 >= 1:
                rhs = rhs + wedge(interior_product(da, w1), w2).scale(
                    -1 if (pa and par2) else 1
                )
            if p2 >= 1:
                rhs = rhs + wedge(w1, interior_product(da, w2)).scale((-1) ** p1)
            iota_ok = iota_ok and lhs == rhs
    rep.add("differential Leibniz rule", d_ok)
    rep.add("Lie derivative Leibniz rule", lie_ok)
    rep.add("contraction Leibniz rule", iota_ok)
    return rep


def suite_canonical_form(sc: StructureConstants) -> VerificationReport:
    rep = VerificationReport("canonical_form")
    theta = canonical_one_form(sc)

    ok = all(
        lie_derivative(sc, DerivationVector.basis(sc, a), theta).is_zero()
        for a in range(sc.dim)
    )
    rep.add("every basis Lie derivative kills the canonical form", ok)

    square = wedge(theta, theta)
    rep.add(
        "d of the canonical form equals its square",
        exterior_derivative(sc, theta) == square,
    )
    rep.add(
        "generator-route differential agrees on the canonical form",
        exterior_derivative_generators(sc, theta) == square,
    )

    bad = None
    for a in range(sc.dim):
        mat = sc.basis.elements[a]
        target = wedge_form_matrix(theta, mat) - wedge_matrix_form(mat, theta)
        if differential_of_element(sc, a) != target and bad is None:
            bad = f"element={a}"
    rep.add("d of each basis element is the bracket with the canonical form",
            bad is None, bad)

    space = invariant_forms(sc, 1)
    ok = len(space) == 1
    if ok:
        gen = space[0]
        key = next(iter(gen.coeffs))
        i, j, x = gen.coeffs[key].nonzeros()[0]
        ratio = x / theta.coeffs[key][i, j]
        ok = bool(ratio) and gen == theta.scale(ratio)
    rep.add(
        "invariant 1-forms are exactly the canonical line",
        ok,
        note=f"solution space dimension {len(space)}",
    )
    return rep


def suite_frame_inversion(sc: StructureConstants) -> VerificationReport:
    rep = VerificationReport("frame_inversion")
    rebuilt = frame_forms_from_differentials(sc)
    bad = None
    for a in range(sc.dim):
        if rebuilt[a] != frame_form(sc, a) and bad is None:
            bad = f"frame index {a}"
    rep.add("frame forms rebuilt from element differentials", bad is None, bad)
    return rep


def suite_symplectic(sc: StructureConstants, seed: int) -> VerificationReport:
    rng = random.Random(seed)
    rep = VerificationReport("symplectic_poisson")
    omega = canonical_two_form(sc)

    sym, cert = analyze(sc, omega)
    rep.add(
        "canonical 2-form is symplectic",
        sym is not None and cert.ok,
        note=f"contraction rank {cert.contraction_rank}/{cert.expected_rank}",
    )
    if sym is None:
        return rep

    bad = None
    for c in (1, 2, -3):
        scaled, _ = analyze(sc, omega.scale(c))
        if scaled is None:
            bad = f"scale {c} rejected"
            break
        inv = Scalar.of(1) / Scalar.of(c)
        for a in range(sc.dim):
            field = scaled.hamiltonian_field(sc.basis.elements[a])
            if field != DerivationVector.basis(sc, a).scale(inv):
                bad = f"scale {c} element {a}"
                break
        if bad:
            break
    rep.add("hamiltonian fields of basis elements are scaled basis derivations",
            bad is None, bad)

    bad = None
    for a in range(sc.dim):
        for b in range(sc.dim):
            lhs = sym.poisson_bracket(sc.basis.elements[a], sc.basis.elements[b])
            rhs = graded_commutator(sc.basis.elements[a], sc.basis.elements[b])
            if lhs != rhs and bad is None:
                bad = f"pair ({a}, {b})"
    rep.add("poisson bracket of basis elements is the graded commutator",
            bad is None, bad)

    ok = True
    for _ in range(4):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        ma = random_homogeneous_matrix(rng, sc.n, sc.m, pa)
        mb = random_homogeneous_matrix(rng, sc.n, sc.m, pb)
        mc = random_homogeneous_matrix(rng, sc.n, sc.m, rng.randint(0, 1))
        lhs = sym.poisson_bracket(ma, mb @ mc)
        rhs = sym.poisson_bracket(ma, mb) @ mc \
            + (mb @ sym.poisson_bracket(ma, mc)).scale(
                -1 if (pa and pb) else 1
            )
        ok = ok and lhs == rhs
    rep.add("poisson Leibniz rule on seeded homogeneous triples", ok)

    ok = True
    for _ in range(4):
        mat = random_homogeneous_matrix(rng, sc.n, sc.m, rng.randint(0, 1))
        field = sym.hamiltonian_field(mat)
        ok = ok and lie_derivative(sc, field, omega).is_zero()
    rep.add("hamiltonian fields preserve the form", ok)

    degenerate = GradedForm.of(
        sc, 2, {(0, 1): GradedMatrix.identity(sc.n, sc.m)}
    )
    _, bad_cert = analyze(sc, degenerate)
    rep.add(
        "degenerate 2-form is rejected",
        not bad_cert.ok,
        note=f"contraction rank {bad_cert.contraction_rank}/{bad_cert.expected_rank}",
    )

    if (sc.n, sc.m) == (2, 1):
        rep.add(
            "closed invariant even 2-forms are multiples of the canonical one",
            symplectic_uniqueness_holds(sc),
        )
    return rep


def suite_bianchi(sc: StructureConstants, seed: int) -> VerificationReport:
    rng = random.Random(seed)
    rep = VerificationReport("bianchi")
    theta = canonical_one_form(sc)

    conn = rank_one_connection(sc, theta)
    rep.add("canonical connection is flat", all(
        f.is_zero() for row in conn.curvature() for f in row
    ))
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
    rep.add("conjugated connection has zero curvature", all(
        f.is_zero() for row in conj.curvature() for f in row
    ))
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


# ======================================================================
# Commands
# ======================================================================


def cmd_constants(args) -> int:
    sc = constants_for(args.n, args.m)
    obj = {"config": _config_obj(args), "constants": jsonio.constants_obj(sc)}
    _emit(args, obj, ["tensor", "a", "b", "c", "value"],
          jsonio.constants_csv_rows(sc))
    return 0


def cmd_verify(args) -> int:
    sc = constants_for(args.n, args.m)
    if not sc.dim:
        raise ValueError(f"sl({args.n}|{args.m}) is zero: it has no derivations to verify")
    reports = run_verify(sc, args.seed, args.flip_commutation_sign)
    obj = {
        "config": _config_obj(args),
        "passed": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }
    rows = [
        [r.title, c.name, "true" if c.passed else "false", c.counterexample or ""]
        for r in reports
        for c in r.checks
    ]
    _emit(args, obj, ["suite", "check", "passed", "counterexample"], rows)
    return 0 if obj["passed"] else 1


def cmd_cohomology(args) -> int:
    if args.max_degree < 0:
        raise ValueError(f"--max-degree must be nonnegative, got {args.max_degree}")
    sc = constants_for(args.n, args.m)
    degrees = []
    capped = None
    try:
        for data, b in chain_degrees(sc, args.max_degree):
            degrees.append({"p": data.p, "dim": data.dim, "rank": data.rank(),
                            "kernel_dim": data.kernel_dim(), "betti": b})
    except DifferentialTooLarge as exc:
        capped = str(exc)
    except CertificateError as exc:
        print(f"gradedmat cohomology: {exc}", file=sys.stderr)
        return 1
    obj = {
        "config": _config_obj(args, max_degree=args.max_degree),
        "betti": [d["betti"] for d in degrees],
        "degrees": degrees,
    }
    if capped:
        obj["cap_exceeded"] = capped
    _emit(args, obj, ["p", "dim", "rank", "kernel_dim", "betti"],
          [list(d.values()) for d in degrees])
    return 3 if capped else 0


def cmd_flat(args) -> int:
    sc = constants_for(args.n, args.m)
    rng = random.Random(args.seed)
    zero = GradedMatrix.zero(sc.n, sc.m)
    g = random_even_invertible(rng, sc.n, sc.m)
    experiments = [
        ("theta", [zero for _ in range(sc.dim)]),
        ("scaled_2x", [e.scale(-1) for e in sc.basis.elements]),
        ("conjugated", conjugated_rho(sc, g)),
    ]
    results = []
    for name, rho in experiments:
        coeffs = flat_curvature_coefficients(sc, rho)
        nonzero = sum(0 if mat.is_zero() else 1 for row in coeffs for mat in row)
        results.append({
            "name": name,
            "flat": nonzero == 0,
            "nonzero_coefficient_pairs": nonzero,
        })
    obj = {"config": _config_obj(args), "experiments": results}
    rows = [[r["name"], r["nonzero_coefficient_pairs"],
             "true" if r["flat"] else "false"] for r in results]
    _emit(args, obj, ["experiment", "nonzero_entries", "flat"], rows)
    return 0


# ======================================================================
# Entry point
# ======================================================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedmat",
        description="Exact graded differential calculus over block-graded "
                    "matrix algebras.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=2,
                        help="upper diagonal block size (default 2)")
    common.add_argument("--m", type=int, default=1,
                        help="lower diagonal block size (default 1)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all sampled checks (default 0)")
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("constants", parents=[common],
                   help="basis table and structure tensors")
    verify = sub.add_parser("verify", parents=[common],
                            help="run every verification suite")
    verify.add_argument("--flip-commutation-sign", action="store_true",
                        help=argparse.SUPPRESS)
    coh = sub.add_parser("cohomology", parents=[common],
                         help="chain ranks and Betti numbers")
    coh.add_argument("--max-degree", type=int, default=3,
                     help="highest cohomology degree to report (default 3)")
    sub.add_parser("flat", parents=[common],
                   help="flat-connection experiments")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "constants": cmd_constants,
        "verify": cmd_verify,
        "cohomology": cmd_cohomology,
        "flat": cmd_flat,
    }
    if args.n + args.m > MATRIX_SIZE_CAP:
        print(f"gradedmat {args.command}: n + m = {args.n + args.m} is above "
              f"the cap of {MATRIX_SIZE_CAP}", file=sys.stderr)
        return 3
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"gradedmat {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
