"""The benchmark's workloads and the reference check for each report.

Definitions that a reader may want to compare across commits (the command,
why it was chosen, the reference digest and the predicted layer map) live
in ``workloads.json`` beside this file; this module turns them into
commands and checks.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence

SPEC = json.loads((Path(__file__).with_name("workloads.json")).read_text())
WORKLOADS = SPEC["workloads"]


def command(name: str, seed: int, extra: Sequence[str] = ()) -> List[str]:
    """gradedmat arguments of a workload for one seed."""
    args = list(WORKLOADS[name]["args"])
    if WORKLOADS[name]["seeded"]:
        args += ["--seed", str(seed)]
    return args + list(extra)


def digest(report: dict, seed: int) -> str:
    """sha256 of the report with its build id (a hash of the package
    sources) masked and the seed put back to 0."""
    out = json.loads(json.dumps(report))
    out["config"]["build"] = "*"
    if out["config"].get("seed") == seed:
        out["config"]["seed"] = 0
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _facts(name: str, report: dict) -> Optional[str]:
    """The answers the paper's results fix, checked one by one."""
    if name == "cohomology-2-1":
        got = (report["betti"], [d["dim"] for d in report["degrees"]],
               [d["rank"] for d in report["degrees"]])
        want = ([1, 0, 0, 1], [9, 72, 288, 792], [8, 64, 224, 567])
        return None if got == want else f"betti/dims/ranks {got} != {want}"
    if name == "verify-2-1":
        checks = sum(len(s["checks"]) for s in report["suites"])
        got = (report["passed"], len(report["suites"]), checks)
        return None if got == (True, 7, 53) else f"passed/suites/checks {got}"
    if name == "flat-3-2":
        got = [(e["name"], e["flat"], e["nonzero_coefficient_pairs"])
               for e in report["experiments"]]
        want = [("theta", True, 0), ("scaled_2x", False, 248),
                ("conjugated", True, 0)]
        return None if got == want else f"experiments {got} != {want}"
    return f"no reference for workload {name}"


def check(name: str, seed: int, exit_code: int, stdout: str) -> Optional[str]:
    """None when the run gave the reference answer, else why it did not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(report, dict) or not isinstance(report.get("config"), dict):
        return "report has no config object"
    want_seed = seed if WORKLOADS[name]["seeded"] else 0
    if report["config"].get("seed") != want_seed:
        return f"report seed {report['config'].get('seed')} != {want_seed}"
    try:
        bad = _facts(name, report)
    except (KeyError, TypeError):
        return "report lacks a field the reference has"
    if bad:
        return bad
    got = digest(report, want_seed)
    if got != WORKLOADS[name]["digest"]:
        return f"report digest {got[:12]} differs from the reference"
    return None
