"""Runs one ``python -m gradedmat`` command inside the benchmark's process.

Usage: child.py SIDECAR MODE -- <gradedmat arguments>

MODE is ``plain``, ``trace`` or ``setup``.  The package's own ``__main__``
runs through ``runpy``, so the command takes the same path as
``python -m gradedmat``; its report goes to stdout unchanged.  Before it
runs, this file times the package import and wraps
``constants.constants_for`` (rebound everywhere it was imported) to time the
command's one set-up call.  ``trace`` also installs the tracer.  ``setup``
runs the same command but ends it as soon as that set-up call returns, so
the set-up can be sampled several times in a run.  On exit the set-up
intervals (start and end on the system-wide ``perf_counter`` clock, so the
benchmark can relate them to its host probes and take out the time it kept
the process stopped) and, traced, the per-layer metrics go to SIDECAR as
JSON, and the spans to SIDECAR.spans.
"""
import json
import runpy
import sys
from time import perf_counter

MODES = ("plain", "trace", "setup")


class SetupDone(BaseException):
    """Ends a ``setup`` process once the command's set-up call returns; a
    BaseException, so the command's own error handling lets it through."""


def main() -> int:
    sidecar, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in MODES:
        raise SystemExit("usage: child.py SIDECAR plain|trace|setup -- ARGS...")

    t = perf_counter()
    import gradedmat.cli  # noqa: F401  (imports every module of the package)
    setup_spans = [(t, perf_counter())]
    import_s = setup_spans[0][1] - t

    from layertrace import Tracer, rebind

    def timed(fn):
        def constants_for(n, m):
            t = perf_counter()
            result = fn(n, m)
            setup_spans.append((t, perf_counter()))
            if mode == "setup":
                raise SetupDone
            return result
        return constants_for

    rebind("constants", "constants_for", timed)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()

    code = 0
    sys.argv = ["gradedmat", *argv]
    try:
        runpy.run_module("gradedmat", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except SetupDone:
        pass
    sys.stdout.flush()

    out = {
        "exit_code": code,
        "import_s": import_s,
        "setup_spans": setup_spans,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(import_s)
        tracer.write_spans(sidecar + ".spans")
    with open(sidecar, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
