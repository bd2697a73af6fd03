"""gradedmat benchmark: fresh CLI processes, checked answers, per-layer trace.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of perfbench/workloads.json, or ``all`` to run every
workload in turn.  A run is a closed loop with one client: it starts one
``python -m gradedmat`` process (through perfbench/child.py), waits for it to
exit, checks its report against the workload's reference, and starts the
next only if that one is predicted to end within S seconds; at least one
process runs.  Set-up is the package import plus the command's one
``constants_for`` call, timed inside the command.  One 0.3 s sample per
run is too noisy to gate (its quartile spread over ten runs was 0.07-0.21)
and a command of these workloads runs once per run, so within a few
seconds more the same command is started again in ``setup`` mode, which
ends it as soon as that call returns; setup_s is the median over all of
these processes.

Host drift: on a shared host the CPU speed a process gets swings by tens of
percent within a minute, and a probe timed only before and after a command
does not follow it.  So a fixed pure-Python Fraction/dict loop is timed
just before each process starts, about once a second while it runs (every
0.1 s in a set-up-only process; the process is stopped by SIGSTOP, so
nothing runs beside the probe) and just after it exits.  ``wall_ref`` is the command's wall time over the mean of
its probes.  ``setup_s`` is the set-up time scaled by NOMINAL_PROBE_S over
the mean of the probes taken from just before the start to the first one
after the set-up ended: seconds on a host where the probe takes
NOMINAL_PROBE_S.  The stopped intervals are taken out of wall_s and
setup_s.

--trace 0 prints the end-to-end metrics: wall_ref, setup_s and peak_rss_mb
(gated, listed in BENCHMARK.json) and wall_s, host.ref_s, setup_raw_s (not
drift-corrected), setup_command_s (the command's own set-up samples only)
and fail_ratio (printed only), each the median over the run's processes.
--trace 1 runs one untraced and one traced command and prints the
per-layer metrics of the traced one; trace.overhead_ratio is the ratio of
their wall_ref.  Every metric is printed as a line ``  name value unit``
(read back by ``metric_lines``); the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of the last run, spans included, stay in .perfbench_run/.  The exit
code is 0 when every report was correct, 1 when one was not, and 2 when the
checkout has no gradedmat sources to run.

Never run this alongside the test suite or another benchmark run: both are
CPU-bound on a small host and disturb each other's timings.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".perfbench_run"
# One run, set-up included, must end well inside three minutes; a process
# still running at the limit is killed and counted as failed.
RUN_LIMIT_S = 165.0
RESERVE_S = 5.0
SETUP_BUDGET_S = 5.0
PROBE_EVERY_S = 1.0
# A set-up-only process lasts about 0.4 s, and on a shared host the CPU
# speed swings within that; probes every 0.1 s inside it follow the swings
# (on a shared 2-core x86_64 host, over sixteen 6-sample runs, this cut the
# spread of setup_s from 0.061 to 0.024, against the 1 s cadence).
SETUP_PROBE_EVERY_S = 0.1
# About the probe's median time on the host the baseline was made on.
NOMINAL_PROBE_S = 0.025


def host_probe() -> float:
    """Seconds for a fixed pure-Python Fraction/dict loop (about 30 ms)."""
    t = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 8000):
        acc += Fraction(i % 13 - 6, i % 7 + 1)
        table[i % 251] = acc
    return perf_counter() - t


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing, so traced counts repeat exactly between runs
    env["PYTHONHASHSEED"] = "0"
    return env


def warm_bytecode() -> None:
    """Write the bytecode cache first, so no timed process pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
        check=True, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
    )


def _unpaused(spans, pauses) -> float:
    """Total length of ``spans`` outside the ``pauses`` intervals."""
    total = 0.0
    for a, b in spans:
        total += b - a
        for p, q in pauses:
            total -= max(0.0, min(b, q) - max(a, p))
    return total


def _setup_probe(probes, setup_end: float) -> float:
    """Mean of the probes from just before the process started to the first
    one taken after its set-up ended."""
    before = [dur for at, dur in probes if at <= setup_end]
    after = [dur for at, dur in probes if at > setup_end]
    return statistics.fmean(before + after[:1])


def run_process(args: list, mode: str, timeout: float) -> dict:
    """One child.py process (MODE plain, trace or setup).

    The host is probed just before the process starts, about once a second
    (every SETUP_PROBE_EVERY_S in ``setup`` mode) while it is stopped, and
    just after it exits.  The result holds the
    wall time and the set-up time with the stopped intervals taken out, the
    drift-corrected set-up time, the probe times, peak RSS, exit code and
    report.
    """
    RUN_DIR.mkdir(exist_ok=True)
    sidecar = RUN_DIR / "sidecar.json"
    out_path, err_path = RUN_DIR / "stdout.txt", RUN_DIR / "stderr.txt"
    sidecar.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(sidecar), mode, "--", *args]
    probes, pauses = [], []  # probes: (perf_counter when taken, seconds)
    every = SETUP_PROBE_EVERY_S if mode == "setup" else PROBE_EVERY_S
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        probes.append((perf_counter(), host_probe()))
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_env())
        deadline = start + timeout
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            timed_out = False
            while True:
                wait = min(deadline - perf_counter(), every)
                if poller.poll(max(int(wait * 1000), 0)):
                    break
                if perf_counter() >= deadline:
                    proc.kill()
                    timed_out = True
                    break
                stopped = perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                info = os.waitid(os.P_PID, proc.pid,
                                 os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if info.si_code != os.CLD_STOPPED:
                    break
                probes.append((stopped, host_probe()))
                os.kill(proc.pid, signal.SIGCONT)
                pauses.append((stopped, perf_counter()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        end = perf_counter()
        probes.append((end, host_probe()))
    side = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    setup_raw_s = setup_s = None
    if side:
        spans = side["setup_spans"]
        setup_raw_s = _unpaused(spans, pauses)
        setup_probe = _setup_probe(probes, max(b for _, b in spans))
        setup_s = setup_raw_s * NOMINAL_PROBE_S / setup_probe
    return {
        "mode": mode,
        "wall_s": _unpaused([(start, end)], pauses),
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_s,
        "probes": [dur for _, dur in probes],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
        "sidecar": side,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def failure(name: str, seed: int, res: dict):
    """Why a process counts as failed, or None."""
    if res["timed_out"]:
        return f"killed at the {RUN_LIMIT_S:.0f} s run limit"
    if res["mode"] == "setup":
        why = f"exit code {res['exit_code']}" if res["exit_code"] else None
        if why is None and len(res["sidecar"].get("setup_spans", ())) != 2:
            why = "set-up did not reach the constants_for call"
    else:
        why = workloads.check(name, seed, res["exit_code"], res["stdout"])
    if why is None and res["setup_s"] is None:
        why = "no timings from the process"
    return why


def measure(name: str, seed: int, seconds: float, trace: bool, extra=()) -> dict:
    """One run of one workload: its processes and failures.

    Untraced, command processes repeat while the next is predicted to end
    within ``seconds``; then, while it fits in SETUP_BUDGET_S, the command
    is repeated in ``setup`` mode, so setup_s is a median of several
    samples even when the command runs once.  Traced, one untraced process
    is followed by one traced process, so the tracing overhead is measured
    in the same run.
    """
    start = perf_counter()
    args = workloads.command(name, seed, extra)
    samples, failures = [], []
    budget = min(seconds, RUN_LIMIT_S - RESERVE_S)

    def attempt(mode: str) -> bool:
        res = run_process(args, mode, start + RUN_LIMIT_S - RESERVE_S - perf_counter())
        samples.append(res)
        why = failure(name, seed, res)
        if why:
            failures.append(f"{mode}: {why}")
        return why is None

    if trace:
        if attempt("plain"):
            attempt("trace")
        return {"samples": samples, "failures": failures}
    while attempt("plain"):
        if perf_counter() - start + samples[-1]["wall_s"] > budget:
            break
    if failures:
        return {"samples": samples, "failures": failures}
    begun, predicted = perf_counter(), samples[-1]["setup_raw_s"]
    while perf_counter() - begun + predicted <= SETUP_BUDGET_S:
        took = perf_counter()
        if not attempt("setup"):
            break
        predicted = perf_counter() - took
    return {"samples": samples, "failures": failures}


def _wall_ref(res: dict) -> float:
    return res["wall_s"] / statistics.fmean(res["probes"])


def end_to_end(samples: list) -> dict:
    """Medians over the run: wall time, wall_ref, peak RSS, probe time and
    own set-up time of the command processes; set-up time of every
    process."""
    plain = [s for s in samples if s["mode"] == "plain"]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in plain),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_ref": statistics.median(_wall_ref(s) for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        "host.ref_s": statistics.median(p for s in plain for p in s["probes"]),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in samples),
        "setup_command_s": statistics.median(s["setup_s"] for s in plain),
    }


def per_layer(samples: list) -> dict:
    plain, traced = samples
    out = dict(traced["sidecar"]["layers"])
    out["host.ref_s"] = statistics.median(plain["probes"])
    out["trace.overhead_ratio"] = _wall_ref(traced) / _wall_ref(plain)
    return out


def report(name: str, seed: int, trace: bool, run: dict) -> dict:
    """Print one workload's metrics; return its JSON result.

    Only the metrics BENCHMARK.json lists go into the JSON result; the other
    values (and fail_ratio) are printed after them for the reader.
    """
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    samples = run["samples"]
    attempted, failed = len(samples), len(run["failures"])
    modes = [s["mode"] for s in samples]
    print(f"{name} seed={seed} trace={int(trace)} processes="
          + ",".join(f"{modes.count(m)} {m}" for m in dict.fromkeys(modes)))
    for why in run["failures"]:
        print(f"  FAILED {why}")
    values = {}
    if not failed:
        values = per_layer(samples) if trace else end_to_end(samples)
    units = {m["name"]: m["unit"] for m in wanted}
    units.update({"wall_s": "s", "wall_ref": "ratio", "host.ref_s": "s",
                  "setup_raw_s": "s", "setup_command_s": "s"})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    lines = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    lines += [(k, v, units[k]) for k, v in values.items() if k not in metrics]
    lines.append(("fail_ratio", failed / attempted, "ratio"))
    for key, value, unit in lines:
        print(f"  {key:<30} {value!r:>24} {unit}")
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / "last-run.json").write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace, "values": values,
        "failures": run["failures"],
        "samples": [{k: v for k, v in s.items() if k != "stdout"} for s in samples],
    }, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def metric_lines(stdout: str) -> dict:
    """Every metric a one-workload run printed as ``  name value unit``,
    the printed-only ones and fail_ratio included, as {name: {value, unit}}."""
    metrics = {}
    for line in stdout.splitlines():
        fields = line.split()
        if line.startswith("  ") and len(fields) == 3:
            try:
                metrics[fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
            except ValueError:
                pass
    return metrics


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradedmat" / "cli.py").is_file():
        print(f"perfbench: no gradedmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm_bytecode()

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        run = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, bool(args.trace), run)
        sys.stdout.flush()
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
