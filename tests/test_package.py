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
