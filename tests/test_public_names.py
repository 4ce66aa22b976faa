"""Guards on names other code relies on.

Every name a module lists in `__all__` must exist, and every nclfun
name the benchmark traces or imports must still resolve, so a deletion
that would break `perfbench/` fails here too.  The benchmark files are
read as syntax trees, never run.
"""

import ast
import importlib
import pkgutil
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


def test_benchmark_names_resolve():
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
    missing = [f"{m}.{q}" for m, q in names if not callable(_resolve(m, q))]
    assert not missing
