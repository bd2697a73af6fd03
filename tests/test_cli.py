import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gradedmat import cli, cohomology
from gradedmat.cli import main
from gradedmat.cohomology import MATRIX_SIZE_CAP


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "gradedmat", *argv],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_constants_report_is_deterministic(tmp_path):
    first = run_cli("constants", "--n", "2", "--m", "1", check=True)
    second = run_cli("constants", "--n", "2", "--m", "1", check=True)
    assert first.stdout == second.stdout
    obj = json.loads(first.stdout)
    cfg = obj["config"]
    assert (cfg["n"], cfg["m"], cfg["command"]) == (2, 1, "constants")
    assert len(cfg["build"]) == 12
    assert int(cfg["build"], 16) >= 0
    cons = obj["constants"]
    assert (cons["dim"], cons["even_dim"], cons["odd_dim"]) == (8, 4, 4)
    assert [5, 7, 3, "1/2"] in cons["bracket"]
    assert len(cons["basis"]) == 8
    # --out writes the same bytes instead of printing
    out = tmp_path / "c.json"
    proc = run_cli("constants", "--n", "2", "--m", "1", "--out", str(out),
                   check=True)
    assert proc.stdout == ""
    assert out.read_text() == first.stdout


def test_build_identifier_follows_the_source_bytes_and_names(tmp_path):
    package = tmp_path / "gradedmat"
    shutil.copytree(Path(cli.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))

    def identifier():
        proc = subprocess.run(
            [sys.executable, "-c",
             "from gradedmat.cli import build_identifier; print(build_identifier())"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(tmp_path)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    first = identifier()
    assert re.fullmatch(r"[0-9a-f]{12}", first)
    assert identifier() == first
    source = package / "report.py"
    text = source.read_bytes()
    assert text.endswith(b"\n")
    source.write_bytes(text[:-1] + b" ")  # one byte: the last newline
    changed = identifier()
    assert changed != first
    source.write_bytes(text)
    assert identifier() == first
    (package / "__main__.py").rename(package / "__maim__.py")
    assert identifier() not in (first, changed)


def test_constants_csv_contains_frozen_row():
    proc = run_cli("constants", "--n", "2", "--m", "1", "--format", "csv",
                   check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "tensor,a,b,c,value"
    assert "bracket,5,7,3,1/2" in lines


def test_equal_split_is_rejected():
    proc = run_cli("constants", "--n", "2", "--m", "2")
    assert proc.returncode == 2
    assert "not supported" in proc.stderr


def test_verify_refuses_an_algebra_with_no_derivations(capsys):
    # sl(1|0) is zero: no suite has a derivation to sample or check
    assert main(["verify", "--n", "1", "--m", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("gradedmat verify: sl(1|0) is zero: it has no derivations "
                   "to verify\n")
    for command in ("cohomology", "flat", "constants"):
        assert main([command, "--n", "1", "--m", "0"]) == 0, command
        out, err = capsys.readouterr()
        assert json.loads(out)["config"]["command"] == command
        assert err == ""


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_unwritable_out_path_is_reported():
    proc = run_cli("constants", "--n", "2", "--m", "0",
                   "--out", "/nonexistent/dir/table.json")
    assert proc.returncode == 2
    assert "No such file or directory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cohomology_betti_for_default_split():
    proc = run_cli("cohomology", "--n", "2", "--m", "1", "--max-degree", "3",
                   check=True)
    obj = json.loads(proc.stdout)
    assert obj["betti"] == [1, 0, 0, 1]
    assert [d["dim"] for d in obj["degrees"]] == [9, 72, 288, 792]
    assert [d["rank"] for d in obj["degrees"]] == [8, 64, 224, 567]


def test_cohomology_csv_for_even_only_algebra():
    proc = run_cli("cohomology", "--n", "2", "--m", "0", "--max-degree", "3",
                   "--format", "csv", check=True)
    assert proc.stdout.splitlines() == [
        "p,dim,rank,kernel_dim,betti",
        "0,4,3,1,1",
        "1,12,9,3,0",
        "2,12,3,9,0",
        "3,4,0,4,1",
    ]


def test_cohomology_over_the_cap_gives_partial_report(monkeypatch, capsys):
    # through degree 4 (2|0) holds 4 (1 + 3 + 3 + 1) + 5 = 37 labels, d_4 42
    monkeypatch.setattr(cohomology, "HELD_LABELS_CAP", 39)
    assert main(["cohomology", "--n", "2", "--m", "0", "--max-degree", "4"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert "d at degree 4" in obj["cap_exceeded"]
    assert obj["betti"] == [1, 0, 0, 1]
    assert len(obj["degrees"]) == 4


def test_cohomology_at_2_1_through_degree_5():
    proc = run_cli("cohomology", "--n", "2", "--m", "1", "--max-degree", "5",
                   check=True)
    obj = json.loads(proc.stdout)
    assert obj["betti"] == [1, 0, 0, 1, 0, 0]
    assert "cap_exceeded" not in obj


def test_negative_max_degree_is_usage_error():
    proc = run_cli("cohomology", "--n", "2", "--m", "0", "--max-degree", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "gradedmat cohomology: --max-degree must be nonnegative, got -1"
    ]


def test_cohomology_refuses_oversized_differential_with_partial_report():
    proc = run_cli("cohomology", "--n", "5", "--m", "2", "--max-degree", "3")
    assert proc.returncode == 3
    obj = json.loads(proc.stdout)
    assert "d at degree 2" in obj["cap_exceeded"]
    assert "dense array" not in obj["cap_exceeded"]
    assert obj["betti"] == [1, 0]
    assert [d["dim"] for d in obj["degrees"]] == [49, 2352]


@pytest.mark.parametrize("command", [
    ["cohomology", "--max-degree", "1"],
    ["verify"],
])
def test_oversized_algebra_is_refused_up_front(command, capsys):
    start = time.perf_counter()
    code = main(command + ["--n", "40", "--m", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"gradedmat {command[0]}: n + m = 41 is above the cap of {MATRIX_SIZE_CAP}"
    ]


def test_size_cap_admits_the_documented_algebras(capsys):
    # (3|2) is the largest cohomology run in the docs; (6|1) must stay admitted
    assert MATRIX_SIZE_CAP >= 7
    assert main(["constants", "--n", "6", "--m", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["constants"]["dim"] == 48


def test_cohomology_runs_without_numpy():
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from gradedmat.cli import main; "
        "sys.exit(main(['cohomology', '--n', '2', '--m', '1', '--max-degree', '3']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["betti"] == [1, 0, 0, 1]


def test_sign_flip_hook_is_caught():
    proc = run_cli("verify", "--n", "2", "--m", "1", "--seed", "0",
                   "--flip-commutation-sign")
    assert proc.returncode == 1
    obj = json.loads(proc.stdout)
    assert obj["passed"] is False
    gamma = obj["suites"][0]
    assert gamma["title"] == "gamma_factor"
    assert not gamma["passed"]
    failing = [c for c in gamma["checks"] if not c["passed"]]
    assert failing
    assert "sigma=(1, 0)" in failing[0]["counterexample"]
    # the mutation stays inside the sign suite: real math is untouched
    assert all(s["passed"] for s in obj["suites"][1:])


def test_flat_experiments_frozen():
    proc = run_cli("flat", "--n", "2", "--m", "1", "--seed", "0", check=True)
    obj = json.loads(proc.stdout)
    by_name = {e["name"]: e for e in obj["experiments"]}
    assert set(by_name) == {"theta", "scaled_2x", "conjugated"}
    assert by_name["theta"]["flat"] is True
    assert by_name["theta"]["nonzero_coefficient_pairs"] == 0
    assert by_name["scaled_2x"]["flat"] is False
    assert by_name["scaled_2x"]["nonzero_coefficient_pairs"] == 38
    assert by_name["conjugated"]["flat"] is True
    second = run_cli("flat", "--n", "2", "--m", "1", "--seed", "0", check=True)
    assert second.stdout == proc.stdout


# ---- report bytes pinned to the benchmark's reference digests ----------
#
# perfbench/workloads.json records, per workload, the sha256 of the report
# as canonical JSON with config.build (a checksum of the sources) masked and
# the seed put back to 0.  Running the same commands here catches a change
# that reorders or rewrites report bytes before any benchmark run.

WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json")
    .read_text()
)["workloads"]


@pytest.mark.parametrize("name", ["cohomology-2-1", "verify-2-1", "flat-3-2"])
def test_report_matches_the_reference_digest(name, capsys):
    spec = WORKLOADS[name]
    argv = list(spec["args"]) + (["--seed", "0"] if spec["seeded"] else [])
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    report["config"]["build"] = "*"
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == spec["digest"]
