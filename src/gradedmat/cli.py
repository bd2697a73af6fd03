"""Command-line driver: argument parsing, the four commands and their reports.

``constants``, ``verify``, ``cohomology`` and ``flat`` each build one
report; the checks that ``verify`` runs live in ``gradedmat.verify``.
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
import gc
import random
import sys
import zlib
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Sequence

from . import jsonio
from .bundles import conjugated_rho, flat_curvature_coefficients
from .cohomology import (
    MATRIX_SIZE_CAP,
    CertificateError,
    DifferentialTooLarge,
    chain_degrees,
)
from .constants import constants_for
from .matrices import GradedMatrix
from .sampling import random_even_invertible
from .verify import run_verify


def build_identifier() -> str:
    """Checksum of the package sources, for report provenance.

    CRC-32 and Adler-32 run over each ``*.py`` file's name and then its
    bytes, in sorted order; the identifier is their 12 leading hex digits.
    It tells builds apart and is no security digest: ``zlib`` is used
    because ``hashlib`` would load OpenSSL into every command.
    """
    root = Path(__file__).resolve().parent
    crc, adler = 0, 1
    for path in sorted(root.glob("*.py")):
        for chunk in (path.name.encode(), path.read_bytes()):
            crc = zlib.crc32(chunk, crc)
            adler = zlib.adler32(chunk, adler)
    return f"{crc:08x}{adler:08x}"[:12]


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
# Commands
# ======================================================================


def cmd_constants(args) -> int:
    tables = jsonio.constants_obj(constants_for(args.n, args.m))
    obj = {"config": _config_obj(args), "constants": tables}
    _emit(args, obj, ["tensor", "a", "b", "c", "value"],
          jsonio.constants_csv_rows(tables))
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


def run() -> int:
    """The process entry of ``python -m gradedmat`` and the ``gradedmat``
    script: ``main()`` on ``sys.argv``, after ``gc.freeze()``.

    By now every module of the package is imported, and what the import
    built lives until the process exits.  Frozen, the collector never walks
    it again: not in a collection during the command, nor in the full
    collections of interpreter shutdown.  Reference counting still frees
    it.  ``main`` itself never freezes, so a library caller that runs
    commands in its own process keeps normal collection of its objects.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
