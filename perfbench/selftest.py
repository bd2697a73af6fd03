"""Self-test of the benchmark itself (takes about five minutes).

Usage: python3 perfbench/selftest.py [--workload NAME ...]

* The metric names of BENCHMARK.json, workloads.json and the tracer agree.
* Two traced processes per workload, same seed: every count repeats
  exactly, every per-layer metric is nonzero where workloads.json says the
  workload exercises it and zero where it predicts zero.  A zero where a
  nonzero is predicted is how a missed name rebinding shows.
* Negative control: ``verify --flip-commutation-sign`` exits 1 and the
  benchmark counts it as a failed run.

Exit code 0 when every check holds.
"""
from __future__ import annotations

import argparse
import sys

import run
import workloads

# Filled in by run.py from the benchmark process, not by the traced process.
HOST_SIDE = {"host.ref_s", "trace.overhead_ratio"}
# Derived only from counts, so they must repeat exactly too.
EXACT_UNITS = {"count", "bytes-computed"}
EXACT_RATIOS = {"forms.eval_hit_ratio", "linalg.modular_agree_ratio"}


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    problems = []

    spec = run.benchmark_spec()
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(layer_units) != set(workloads.SPEC["layers"]):
        problems.append("per_layer of BENCHMARK.json and layers of workloads.json differ")
    if not {w["name"] for w in spec["workloads"]} <= set(names):
        problems.append("BENCHMARK.json names a workload workloads.json lacks")

    run.warm_bytecode()
    for name in args.workload or names:
        cmd = workloads.command(name, 0)
        first, second = (run.run_process(cmd, "trace", run.RUN_LIMIT_S) for _ in range(2))
        for res in (first, second):
            why = run.failure(name, 0, res)
            if why:
                problems.append(f"{name}: traced process failed: {why}")
        if problems:
            break
        a, b = first["sidecar"]["layers"], second["sidecar"]["layers"]
        for metric, unit in layer_units.items():
            if metric in HOST_SIDE:
                continue
            if metric not in a:
                problems.append(f"{name}: tracer does not report {metric}")
                continue
            if (unit in EXACT_UNITS or metric in EXACT_RATIOS) and a[metric] != b[metric]:
                problems.append(f"{name}: {metric} differs: {a[metric]} vs {b[metric]}")
            layer = workloads.SPEC["layers"][metric]
            if name in layer["nonzero_on"] and not a[metric]:
                problems.append(f"{name}: {metric} is 0, predicted nonzero")
            if name in layer["zero_on"] and a[metric]:
                problems.append(f"{name}: {metric} is {a[metric]}, predicted 0")
        print(f"{name}: traced twice, {len(problems)} problems so far", flush=True)

    control = workloads.SPEC["negative_control"]
    if not problems and (args.workload is None or control["workload"] in args.workload):
        res = run.measure(control["workload"], 0, 0, False, control["extra_args"])
        exit_code = res["samples"][0]["exit_code"]
        if exit_code != 1 or len(res["failures"]) != 1:
            problems.append(
                f"negative control: exit {exit_code}, failures {res['failures']}"
            )
        else:
            print(f"negative control counted as failed: {res['failures'][0]}")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
