"""Outside-in tracer for one gradedmat process.

Wraps the public functions of each gradedmat module from outside the
package, so nothing under ``src/`` changes.  A wrapped name is rebound in
every gradedmat module that holds it, because modules import names with
``from .x import y`` and a rebinding of the defining module alone would miss
those call sites.

Two kinds of wrapper:

* span targets record (name, start, end, parent) for every call, kept in
  flat arrays in memory and summarised when the process ends;
* count targets are the hot leaves (millions of calls per run), where a
  span per call would cost more than the work, so only calls are counted.

Spans are timed on the process's CPU clock (``time.process_time``): the
benchmark stops the process about once a second to probe the host, and CPU
time does not advance while it is stopped.  For this single-threaded,
CPU-bound program CPU time and wall time agree.

A span's self time is its duration minus the durations of its direct
children.  Every ``*_s`` metric is self time, except the stage metrics
``cohomology.build_s.d<p>`` and ``cohomology.rank_s``, which are the whole
duration of that stage (building d_p, ranking the differentials).
"""
from __future__ import annotations

import itertools
import json
import sys
from array import array
from time import process_time

# (module, attribute or Class.method, span name).  Several targets may
# share a span name; their self times add up.
SPAN_TARGETS = [
    ("constants", "constants_for", "constants.compute"),
    ("constants", "compute_constants", "constants.compute"),
    ("constants", "verify_appendix", "constants.verify_appendix"),
    ("basis", "HomogeneousBasis.expand", "basis.expand"),
    ("matrices", "graded_commutator", "matrices.commutator"),
    ("forms", "exterior_derivative", "forms.d_eval"),
    ("forms", "exterior_derivative_generators", "forms.d_gen"),
    ("forms", "lie_derivative", "forms.lie"),
    ("forms", "wedge", "forms.wedge"),
    ("forms", "interior_product", "forms.interior"),
    ("formspace", "matrix_of_map", "formspace.matrix_of_map"),
    ("formspace", "LinearMapMatrix.int_rows", "linalg.int_rows"),
    ("cohomology", "differential_matrix", "cohomology.build"),
    ("cohomology", "ChainDegreeData.rank", "cohomology.rank"),
    ("cohomology", "ChainDegreeData.kernel_dim", "cohomology.rank"),
    ("linalg", "exact_rank", "linalg.exact_rank"),
    ("linalg", "modular_rank", "linalg.modular_rank"),
    ("linalg", "sparse_kernel", "linalg.kernel"),
    ("linalg", "verify_kernel", "linalg.kernel"),
    ("linalg", "solve_unique", "linalg.solve"),
    ("symplectic", "analyze", "symplectic.analyze"),
    ("symplectic", "SymplecticForm.hamiltonian_field", "symplectic.hamiltonian"),
    ("symplectic", "symplectic_uniqueness_holds", "symplectic.uniqueness"),
    ("bundles", "Connection.curvature", "bundles.curvature"),
    ("bundles", "Connection.bianchi_holds", "bundles.curvature"),
    ("bundles", "flat_curvature_coefficients", "bundles.flat_coeffs"),
    ("cli", "_emit", "cli.emit"),
]

# Hot leaves: counted, never spanned.
COUNT_TARGETS = [
    ("scalars", "Scalar.__init__", "scalars.objects"),
    ("matrices", "GradedMatrix.__matmul__", "matrices.matmul_calls"),
    ("indexset", "canonicalize", "indexset.canonicalize_calls"),
    ("forms", "evaluate_on_basis", "forms.eval_calls"),
]


def _modules():
    return {
        name: mod for name, mod in sys.modules.items()
        if name == "gradedmat" or name.startswith("gradedmat.")
    }


def rebind(module: str, attr: str, make):
    """Replace ``module.attr`` by ``make(original)`` wherever it is bound."""
    mods = _modules()
    owner = mods["gradedmat." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    orig = getattr(owner, attr)
    wrapped = make(orig)
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


class Tracer:
    """Spans and counts for one process; ``install`` once after import."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.calls: dict = {}
        self.counters: dict = {}
        self.eval_hits = itertools.count()
        self.formspace_columns = 0
        self.formspace_nnz = 0
        self.d3_nnz = 0
        self.modular_results: list = []
        self.modular_agree = 0
        self.modular_tried = 0
        self.modular_bytes = 0

    # ---- installation -----------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPAN_TARGETS:
            post = getattr(self, "_post_" + attr.replace(".", "_"), None)
            rebind(module, attr, lambda fn, a=attr, n=name, p=post:
                     self._span_wrapper(fn, a, n, p))
        for module, attr, name in COUNT_TARGETS:
            rebind(module, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, fn, attr, name, post):
        calls = self.calls.setdefault(attr, itertools.count())
        per_degree = attr == "differential_matrix"
        fixed_id = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        tick = calls.__next__

        def wrapper(*args, **kwargs):
            tick()
            if per_degree:
                p = args[1] if len(args) > 1 else kwargs["p"]
                sid = self._name_id(f"{name}.d{p}")
            else:
                sid = fixed_id
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = process_time()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counter = self.counters.setdefault(name, itertools.count())
        tick = counter.__next__
        if name != "forms.eval_calls":
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
        else:
            hit = self.eval_hits.__next__

            def wrapper(*args, **kwargs):
                tick()
                result = fn(*args, **kwargs)
                if not result.is_zero():
                    hit()
                return result
        return wrapper

    # ---- post hooks: counts read off results -------------------------

    def _post_matrix_of_map(self, args, kwargs, result):
        self.formspace_columns += len(result.columns)
        self.formspace_nnz += sum(len(col) for col in result.columns)

    def _post_differential_matrix(self, args, kwargs, result):
        if result.p == 3:
            self.d3_nnz = sum(len(col) for col in result.matrix.columns)

    def _post_modular_rank(self, args, kwargs, result):
        rows, ncols = args[0], args[1]
        self.modular_results.append(result)
        self.modular_bytes = max(self.modular_bytes, len(rows) * ncols * 8)

    def _post_exact_rank(self, args, kwargs, result):
        mods, self.modular_results = self.modular_results, []
        self.modular_tried += len(mods)
        self.modular_agree += sum(1 for r in mods if r == result)

    # ---- summary -------------------------------------------------------

    @staticmethod
    def _count(counter) -> int:
        # itertools.count reports how often it was advanced as its next value
        return next(counter)

    def self_times(self) -> dict:
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out: dict = {}
        total: dict = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + dur[i] - child[i]
            total[name] = total.get(name, 0.0) + dur[i]
        return {"self": out, "total": total}

    def metrics(self, import_s: float) -> dict:
        times = self.self_times()
        self_s, total_s = times["self"], times["total"]
        calls = {attr: self._count(c) for attr, c in self.calls.items()}
        counts = {name: self._count(c) for name, c in self.counters.items()}
        evals = counts["forms.eval_calls"]
        hits = self._count(self.eval_hits)
        out = {
            "scalars.objects": counts["scalars.objects"],
            "matrices.matmul_calls": counts["matrices.matmul_calls"],
            "matrices.commutator_calls": calls["graded_commutator"],
            "matrices.commutator_s": self_s.get("matrices.commutator", 0.0),
            "basis.expand_calls": calls["HomogeneousBasis.expand"],
            "basis.expand_s": self_s.get("basis.expand", 0.0),
            "constants.compute_s": self_s.get("constants.compute", 0.0),
            "constants.verify_appendix_s": self_s.get("constants.verify_appendix", 0.0),
            "indexset.canonicalize_calls": counts["indexset.canonicalize_calls"],
            "forms.d_eval_calls": calls["exterior_derivative"],
            "forms.d_eval_s": self_s.get("forms.d_eval", 0.0),
            "forms.d_gen_calls": calls["exterior_derivative_generators"],
            "forms.d_gen_s": self_s.get("forms.d_gen", 0.0),
            "forms.lie_calls": calls["lie_derivative"],
            "forms.lie_s": self_s.get("forms.lie", 0.0),
            "forms.wedge_s": self_s.get("forms.wedge", 0.0),
            "forms.interior_s": self_s.get("forms.interior", 0.0),
            "forms.eval_calls": evals,
            "forms.eval_hit_ratio": hits / evals if evals else 0.0,
            "formspace.columns": self.formspace_columns,
            "formspace.nnz": self.formspace_nnz,
            "formspace.matrix_of_map_s": self_s.get("formspace.matrix_of_map", 0.0),
        }
        for p in range(4):
            out[f"cohomology.build_s.d{p}"] = total_s.get(f"cohomology.build.d{p}", 0.0)
        out.update({
            "cohomology.rank_s": total_s.get("cohomology.rank", 0.0),
            "cohomology.d3.nnz": self.d3_nnz,
            "linalg.int_rows_s": self_s.get("linalg.int_rows", 0.0),
            "linalg.exact_rank_s": self_s.get("linalg.exact_rank", 0.0),
            "linalg.modular_rank_s": self_s.get("linalg.modular_rank", 0.0),
            "linalg.modular_agree_ratio": (
                self.modular_agree / self.modular_tried if self.modular_tried else 0.0
            ),
            "linalg.kernel_s": self_s.get("linalg.kernel", 0.0),
            "linalg.solve_s": self_s.get("linalg.solve", 0.0),
            "linalg.modular_bytes": self.modular_bytes,
            "symplectic.analyze_s": self_s.get("symplectic.analyze", 0.0),
            "symplectic.hamiltonian_calls": calls["SymplecticForm.hamiltonian_field"],
            "symplectic.uniqueness_s": self_s.get("symplectic.uniqueness", 0.0),
            "bundles.curvature_s": self_s.get("bundles.curvature", 0.0),
            "bundles.flat_coeffs_s": self_s.get("bundles.flat_coeffs", 0.0),
            "cli.import_s": import_s,
            "cli.emit_s": self_s.get("cli.emit", 0.0),
        })
        return out

    def write_spans(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([
                    self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i],
                ]) + "\n")
