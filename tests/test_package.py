"""Package surface: every public name is re-exported by ``sladoa``, and
no module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sladoa

MODULES = sorted(m.name for m in pkgutil.iter_modules(sladoa.__path__))
SOURCES = sorted(Path(sladoa.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_reexported(name):
    module = importlib.import_module(f"sladoa.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if getattr(sladoa, n, None) is not getattr(module, n)]
    assert not missing, f"sladoa does not re-export {missing}"


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(imported - used)
    assert not unused, f"{path.name}: unused imports {unused}"



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
