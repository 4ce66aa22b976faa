"""Guards on names other code relies on.

Every name a module lists in `__all__` must exist, and every nclfun
name the benchmark traces or imports must still resolve, so a deletion
that would break `perfbench/` fails here too.  The other way round,
every module-level def and class and every method must have a user,
and every parameter with a default must be passed by some call in the
package, the benchmark or the demos.  The package imports nothing outside the
standard library, and only in module headers.  The benchmark files are read as syntax trees, never
run.
"""

import ast
import importlib
import pkgutil
import re
import sys
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


PACKAGE = Path(nclfun.__file__).parent
# parameters no caller is expected to pass: the console-script entry
# point takes its argv from sys.argv
ENTRY_POINTS = {("cli", "main", "argv")}


def _package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _outside_texts():
    """The source of every benchmark and demo file."""
    return [path.read_text()
            for folder in (PERFBENCH, PERFBENCH.parent / "demos")
            for path in sorted(folder.glob("*.py"))]


def _decorators(fn):
    return {getattr(d, "id", None) for d in fn.decorator_list}


def test_no_dead_methods():
    """Every method of an nclfun class, dunders aside, has a user in the
    package outside its own def, in the benchmark or in the demos.  A
    classmethod counts only where it is named as `Cls.name` or
    `cls.name`, a property wherever `.name` is read, and any other
    method only where it is called, as `.name(`: an attribute of the
    same name on some other object is no use.  A method that only the
    tests call fails here: it leaves the package, and the tests keep a
    helper of their own."""
    texts = {path.stem: path.read_text()
             for path in sorted(PACKAGE.glob("*.py"))}
    others = _outside_texts()
    dead = []
    for module, text in texts.items():
        lines = text.splitlines()
        rest_of_package = [t for m, t in texts.items() if m != module]
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("__")):
                    continue
                kind = _decorators(fn)
                if "classmethod" in kind:
                    use = rf"\b(?:{cls.name}|cls)\.{fn.name}\b"
                elif "property" in kind:
                    use = rf"\.{fn.name}\b"
                else:
                    use = rf"\.{fn.name}\("
                rest = lines[:fn.lineno - 1] + lines[fn.end_lineno:]
                if not re.search(use,
                                 "\n".join(rest + rest_of_package + others)):
                    dead.append(f"{module}.{cls.name}.{fn.name}")
    assert not dead


def _defaulted_parameters(tree):
    """(name, parameter, positional index or None) of every parameter
    with a default, for each def of the module.  Methods drop their
    first parameter (the package has no static methods), and __init__
    goes by its class's name."""
    out = []
    owners = {id(fn): node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for fn in node.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        owner = owners.get(id(fn))
        name = owner.name if owner and fn.name == "__init__" else fn.name
        a = fn.args
        first = len(a.args) - len(a.defaults)
        out += [(name, arg.arg, i - bool(owner))
                for i, arg in enumerate(a.args) if i >= first]
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((name, arg.arg, None))
    return out


def _calls(trees):
    """callee name -> list of (positional count, keyword names) over every
    call in the trees; a *args or **kwargs passes everything."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            kwds = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in kwds else kwds))
    return calls


def test_every_defaulted_parameter_is_passed_somewhere():
    """A parameter with a default that no call in the package, the
    benchmark or the demos ever passes has one value in use, and should
    be a constant.  A call passes it by keyword, or by more positional
    arguments than the parameter's index."""
    package = _package_trees()
    others = [ast.parse(text) for text in _outside_texts()]
    calls = _calls(list(package.values()) + others)
    unused = []
    for module, tree in package.items():
        for name, param, index in _defaulted_parameters(tree):
            if (module, name, param) in ENTRY_POINTS:
                continue
            if not any(kwds is None or param in kwds
                       or (index is not None and npos > index)
                       for npos, kwds in calls.get(name, ())):
                unused.append(f"{module}.{name}({param})")
    assert not unused


def test_package_imports_only_the_standard_library():
    """nclfun runs on the standard library alone (pyproject.toml lists no
    dependencies): every import is relative or of a stdlib module."""
    foreign = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [f"{module}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_imports_sit_at_module_level():
    """No def or class of the package imports anything: each module
    names what it uses in its header."""
    nested = set()
    for module, tree in _package_trees().items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                nested |= {f"{module}:{node.lineno}"
                           for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not nested, sorted(nested)
