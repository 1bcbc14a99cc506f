"""Package surface: every public name is re-exported by ``sladoa``, no
module, test file or function imports a name it never uses, and
importing the package leaves the process-pool stack and the writers'
modules unloaded."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sladoa

MODULES = sorted(m.name for m in pkgutil.iter_modules(sladoa.__path__))
SOURCES = sorted(Path(sladoa.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_reexported(name):
    module = importlib.import_module(f"sladoa.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if getattr(sladoa, n, None) is not getattr(module, n)]
    assert not missing, f"sladoa does not re-export {missing}"


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"] + TESTS,
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    # a module-level import must be used in the module, and a function's
    # own import in that function
    tree = ast.parse(path.read_text())
    unused = sorted(_imported(tree.body) - _used(tree))
    unused += sorted(f"{fn.name}: {name}" for fn in ast.walk(tree)
                     if isinstance(fn, _FUNCTIONS)
                     for name in _imported(_scope_nodes(fn)) - _used(fn))
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    # numpy is the one dependency; scipy may be installed, but users of
    # the package need not have it
    allowed = set(sys.stdlib_module_names) | {"numpy", "sladoa"}
    tree = ast.parse(path.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    stray = sorted({n for n in names if n.split(".")[0] not in allowed})
    assert not stray, f"{path.name} imports {stray}"


def _imported(nodes):
    return {alias.asname or alias.name.split(".")[0] for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def _used(scope):
    return {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}


# Modules that only a parallel sweep or a sweep writer uses.
_DEFERRED = ("concurrent.futures", "multiprocessing", "json", "csv")

_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy

def deferred():
    return sorted(m for m in sys.modules for d in {deferred!r}
                  if m == d or m.startswith(d + "."))

before = set(deferred())
import sladoa, sladoa.cli
print(" ".join(sorted(set(deferred()) - before)))
cfg = sladoa.ExperimentConfig(
    geometry=sladoa.build_nested(2, 2), thetas=(-0.3, 0.4),
    method="vws-ca-rmusic", a=0, snapshots=100, snr_db=10.0, axis="snr",
    axis_values=(0.0, 10.0), trials=4, seed=5)
serial = sladoa.rmse_sweep(cfg)
print(" ".join(sorted(set(deferred()) - before)))
parallel = sladoa.rmse_sweep(cfg, workers=2)
print("concurrent.futures.process" in sys.modules)
print((parallel.rmse, parallel.fills) == (serial.rmse, serial.fills))
""".format(deferred=_DEFERRED)


def test_import_defers_pool_stack_and_writers():
    # a fresh interpreter, so modules that this session's tests loaded
    # do not hide what importing the package loads
    src = str(Path(sladoa.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    on_import, after_serial, pool_loaded, equal = proc.stdout.split("\n")[:4]
    assert on_import == "", f"import sladoa loads {on_import}"
    assert after_serial == "", f"a serial sweep loads {after_serial}"
    assert pool_loaded == "True"
    assert equal == "True"


PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench")
                   .glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(scope):
    """The nodes of one scope, without descending into nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def _package_reads(scope, bound=()):
    """(module, name) pairs a scope takes from the package: each
    ``from sladoa[.m] import X``, and each attribute read off a name the
    scope, or an enclosing one, binds by importing it from the package
    (``import sladoa; sladoa.X``, ``from sladoa import cli; cli.X``)."""
    nodes = list(_scope_nodes(scope))
    bound = dict(bound)
    for node in nodes:                  # a local of the same name shadows
        if isinstance(node, ast.arg):
            bound.pop(node.arg, None)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.pop(node.id, None)
    reads = set()
    for node in nodes:
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "sladoa"):
            for alias in node.names:
                reads.add((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names
                         if a.name.split(".")[0] == "sladoa")
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.add((bound[node.value.id], node.attr))
        elif isinstance(node, _FUNCTIONS):
            reads |= _package_reads(node, bound)
    return reads


def _exists(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_files_found():
    assert {"run.py", "tracing.py", "workloads.py"} <= {p.name for p in PERFBENCH}


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_benchmark_reads_only_existing_names(path):
    reads = _package_reads(ast.parse(path.read_text()))
    missing = sorted(f"{m}.{n}" for m, n in reads if not _exists(m, n))
    assert not missing, f"{path.name} reads missing names {missing}"
