"""Guards on names other code relies on.

Every name a module lists in `__all__` must exist, and every nclfun
name the benchmark traces or imports must still resolve, so a deletion
that would break `perfbench/` fails here too.  The other way round,
every module-level def and class must have a user.  The benchmark
files are read as syntax trees, never run.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import nclfun

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module, qualname):
    obj = importlib.import_module(f"nclfun.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def test_every_all_entry_exists():
    missing = []
    for info in pkgutil.iter_modules(nclfun.__path__):
        mod = importlib.import_module(f"nclfun.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ())
                    if not hasattr(mod, n)]
    assert not missing


def _benchmark_names():
    """(module, qualname) of every nclfun name the benchmark traces or
    imports."""
    table = next(
        ast.literal_eval(node.value) for node in ast.walk(_tree("tracer.py"))
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "NAME_TABLE" for t in node.targets))
    assert table
    names = list(table)
    for node in ast.walk(_tree("workloads.py")):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("nclfun.")):
            module = node.module.split(".", 1)[1]
            names += [(module, alias.name) for alias in node.names]
    return names


def test_benchmark_names_resolve():
    missing = [f"{m}.{q}" for m, q in _benchmark_names()
               if not callable(_resolve(m, q))]
    assert not missing


def test_no_dead_module_level_helpers():
    """Every module-level def and class of nclfun is named in the
    package outside its own definition (a word match), listed in an
    `__all__`, or traced or imported by the benchmark.  A helper that
    nothing calls fails here: it leaves the package or moves to the
    tests."""
    texts = {}
    kept = {(m, q.split(".")[0]) for m, q in _benchmark_names()}
    for info in pkgutil.iter_modules(nclfun.__path__):
        mod = importlib.import_module(f"nclfun.{info.name}")
        texts[info.name] = Path(mod.__file__).read_text()
        kept |= {(info.name, n) for n in getattr(mod, "__all__", ())}
    dead = []
    for module, text in texts.items():
        lines = text.splitlines()
        others = [t for m, t in texts.items() if m != module]
        for node in ast.parse(text).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or (module, node.name) in kept):
                continue
            rest = lines[:node.lineno - 1] + lines[node.end_lineno:]
            if not re.search(rf"\b{node.name}\b", "\n".join(rest + others)):
                dead.append(f"{module}.{node.name}")
    assert not dead
