"""The public surface: every module star-imports, and every name the
package re-exports is declared in its module's ``__all__``, so a deletion
cannot leave a stale entry behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rolekit


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(rolekit.__path__)))
def test_star_import_succeeds(module):
    exec(f"from rolekit.{module} import *", {})


def test_reexports_are_declared_in_module_all():
    tree = ast.parse(Path(rolekit.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    undeclared = [f"{module}.{name}" for module, name in reexports
                  if name not in importlib.import_module(
                      f"rolekit.{module}").__all__]
    assert undeclared == []
