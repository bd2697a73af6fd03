"""Every function and method in ``src/gradedmat`` has a reason to be there.

A def is kept when a command runs it, when it is named API (``API`` below,
listed in the README "Layout" section), or when ``perfbench/layertrace.py``
wraps it by name.  Reachability is read off the source by name: the roots
are ``cli.main``, module-level code (class bodies, decorators and default
values included), every dunder method, ``API`` and the tracer's targets;
a reached def reaches every def named like a name or attribute it refers
to.  Code that only the tests call belongs in ``tests/reference.py``.
Only ``constants`` reads or writes the constants' ``cache``, with one
named exception.
"""
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

from tests.helpers import tracer_targets

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gradedmat"
README = ROOT / "README.md"

# The statements of the paper and the names a caller of the library uses
# beyond what the commands run, as "module.function" or "module.Class.method".
API = (
    "basis.body_adapted_basis",
    "bundles.Connection.covariant_derivative",
    "bundles.is_graded_free",
    "cohomology.adapted_constants_for",
    "cohomology.betti_numbers",
    "cohomology.body_h_map_injective",
    "cohomology.body_map_forms",
    "cohomology.body_map_matrix",
    "cohomology.body_vector_field",
    "cohomology.cocycle_representatives",
    "cohomology.ensure_body_adapted",
    "forms.DerivationVector.coords",
    "formspace.LinearMapMatrix.compose_is_zero",
    "formspace.LinearMapMatrix.from_images",
    "matrices.body",
    "matrices.body_block_is_first",
    "matrices.embed_body",
    "report.VerificationReport.failures",
    "report.VerificationReport.summary",
    "symplectic.canonical_symplectic",
    "symplectic.is_symplectic",
)


def source_defs(sources=None):
    """{"module.name" or "module.Class.name": def node}, and the module-level
    code of every module, which runs on import; ``sources`` are (module,
    source text) pairs, by default the modules of ``src/gradedmat``."""
    if sources is None:
        sources = [(path.stem, path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defs, module_code = {}, []
    for stem, text in sources:
        for stmt in ast.parse(text).body:
            if isinstance(stmt, ast.ClassDef):
                module_code += stmt.bases + stmt.decorator_list
                members = [(f"{stem}.{stmt.name}.", item) for item in stmt.body]
            else:
                members = [(f"{stem}.", stmt)]
            for prefix, item in members:
                if isinstance(item, ast.FunctionDef):
                    defs[prefix + item.name] = item
                    module_code += item.decorator_list + item.args.defaults
                else:
                    module_code.append(item)
    return defs, module_code


def reached_defs(defs, module_code, roots):
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rsplit(".", 1)[1], set()).add(key)

    def named(nodes, cls=None):
        """The defs that ``nodes`` refer to: ``self.<name>`` in a method of
        class ``cls`` is ``cls.<name>`` when ``cls`` defines it, and every
        other name and attribute is each def of that name."""
        out = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out |= by_name.get(sub.id, set())
                elif isinstance(sub, ast.Attribute):
                    own = f"{cls}.{sub.attr}"
                    if (cls and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                            and own in defs):
                        out.add(own)
                    else:
                        out |= by_name.get(sub.attr, set())
        return out

    todo = {key for key in roots if key in defs} | named(module_code) | {
        key for key in defs if re.fullmatch(r"__\w+__", key.rsplit(".", 1)[1])}
    reached = set()
    while todo:
        key = todo.pop()
        reached.add(key)
        cls = key.rsplit(".", 1)[0] if key.count(".") == 2 else None
        todo |= named([defs[key]], cls) - reached
    return reached


def test_every_def_is_reached_from_a_command_the_api_or_the_tracer():
    defs, module_code = source_defs()
    assert "cli.main" in defs and len(defs) > 300
    assert [name for name in API if name not in defs] == []
    traced = [f"{module}.{attr}" for module, attr in tracer_targets()]
    reached = reached_defs(defs, module_code, ["cli.main", *API, *traced])
    assert sorted(set(defs) - reached) == []


def test_the_walk_leaves_out_what_nothing_refers_to():
    """Without the API and tracer roots, API and tracer-pinned defs are
    unreached, while ``cli.main`` still reaches the commands' code."""
    defs, module_code = source_defs()
    reached = reached_defs(defs, module_code, ["cli.main"])
    assert {"symplectic.is_symplectic", "forms.evaluate_on_basis",
            "linalg.solve_unique"}.isdisjoint(reached)
    assert {"cohomology.chain_degrees", "forms.exterior_derivative_generators",
            "verify.run_verify"} <= reached
    # a method called only through ``self`` in another class that defines
    # the same name is not reached through that call
    defs, module_code = source_defs([("m", (
        "class A:\n"
        "    def f(self): pass\n"
        "    def g(self): return self.f()\n"
        "class B:\n"
        "    def f(self): pass\n"
        "A().g()\n"))])
    assert reached_defs(defs, module_code, []) == {"m.A.f", "m.A.g"}


def test_every_tracer_target_resolves_after_importing_the_cli():
    """The tracer rebinds each target by name; a move or rename fails here."""
    targets = tracer_targets()
    assert len(targets) > 20
    code = (
        "import json, sys\n"
        "import gradedmat.cli\n"
        "missing = []\n"
        "for module, attr in json.loads(sys.argv[1]):\n"
        "    *classes, name = attr.split('.')\n"
        "    try:\n"
        "        owner = sys.modules['gradedmat.' + module]\n"
        "        for cls in classes:\n"
        "            owner = getattr(owner, cls)\n"
        "        found = vars(owner)[name] if classes else getattr(owner, name)\n"
        "    except (KeyError, AttributeError):\n"
        "        found = None\n"
        "    if not callable(found):\n"
        "        missing.append(module + '.' + attr)\n"
        "print(json.dumps(missing))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(targets)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def cache_uses(path):
    """"module.function:line" of each read or write of an attribute named
    ``cache`` in ``path``; "module:line" at module level."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        where = path.stem
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            where += "." + stmt.name
        out += [f"{where}:{node.lineno}" for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute) and node.attr == "cache"]
    return out


def test_only_the_constants_memo_touches_their_cache():
    """What is derived from the constants is memoised by ``constants.derived``.
    The one other entry is ``ensure_body_adapted``'s: it remembers a passed
    check about a second constants object, keyed by that object's id."""
    exempt = "cohomology.ensure_body_adapted:"
    uses = [use for path in sorted(SRC.glob("*.py")) if path.stem != "constants"
            for use in cache_uses(path)]
    assert [use for use in uses if not use.startswith(exempt)] == []
    assert any(use.startswith(exempt) for use in uses)


def test_the_readme_lists_the_api():
    layout = README.read_text().split("## Layout", 1)[1]
    listed = {f"{module}.{name}"
              for module, names in re.findall(r"^- `(\w+)`: (.+)$", layout, re.M)
              for name in re.findall(r"`([\w.]+)`", names)}
    assert listed == set(API)
