"""Run the benchmark N times per workload and report each metric's spread.

Usage: python3 perfbench/spread.py [--workload NAME ...] [--runs 10]
                                   [--first-seed 0] [--out FILE]

By default the workloads of BENCHMARK.json; --workload may name any of
workloads.json.  Runs ``perfbench/run.py --trace 0`` once per seed, one run
at a time, and prints for every metric the run prints (fail_ratio aside)
the median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread: the distance between the quartiles as a share of the
median.  A spread of a metric gated in BENCHMARK.json is flagged when it
exceeds a third of the metric's bound, and the exit code is then 1; the
printed-only metrics are shown for comparison.  --traced adds one ``--trace 1`` run per workload and
keeps its per-layer metrics.  --out writes the host, every run's metrics
and the summary as JSON, the form of perfbench/baseline.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    every = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(every))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also record one --trace 1 run per workload")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    out = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    steady = True
    def bench(name: str, seed: int, trace: int):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        return proc, json.loads(proc.stdout.strip().splitlines()[-1])

    for name in args.workload or names:
        runs, units = [], {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc, result = bench(name, seed, 0)
            printed = run.metric_lines(proc.stdout)
            printed.pop("fail_ratio", None)
            units.update((k, m["unit"]) for k, m in printed.items())
            values = {k: m["value"] for k, m in printed.items()}
            runs.append({"seed": seed, "exit_code": proc.returncode,
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(f"{name} seed={seed} exit={proc.returncode} "
                  + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
        summary = {}
        gated = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric in dict.fromkeys(k for r in runs for k in r["metrics"]):
            vals = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            bound = gated.get(metric)
            ok = bound is None or share < bound / 3
            steady = steady and ok
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": share, "unit": units[metric]}
            print(f"  {metric:<15} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
                  f"spread={share:.4f}"
                  + (f" bound/3={bound / 3:.4f}" if bound else " (not gated)")
                  + ("" if ok else "  TOO WIDE"))
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        out["workloads"][name] = {"runs": runs, "summary": summary}
        if attempted:
            print(f"  fail_ratio={failed / attempted:.4f} ({failed}/{attempted})")
            out["workloads"][name]["fail_ratio"] = failed / attempted
        if args.traced:
            proc, result = bench(name, args.first_seed, 1)
            steady = steady and result["correct"]
            out["workloads"][name]["per_layer"] = {
                "seed": args.first_seed, "exit_code": proc.returncode,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"  traced run: exit={proc.returncode} "
                  f"overhead={result['metrics']['trace.overhead_ratio']['value']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
