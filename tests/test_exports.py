"""Every name in a module's __all__ exists, so a deletion that leaves a
stale export fails here and not at the first `from mjtheta.x import *`;
and every name a module imports is used there or exported, so a deletion
leaves no import behind."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import mjtheta

MODULES = [name for name in ["mjtheta"] + [
    f"mjtheta.{m.name}" for m in pkgutil.iter_modules(mjtheta.__path__)]
    if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_exports():
    assert "mjtheta.series" in MODULES and "mjtheta.mocktheta" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def imported_but_unused(source):
    """Names an import binds in `source` that no expression reads and its
    __all__ does not list."""
    tree = ast.parse(source)
    bound, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(bound - read - exported)


def test_unused_import_check_sees_them():
    assert imported_but_unused(
        "import os.path\nfrom math import gcd, isqrt as r\n"
        "from .x import y\n__all__ = ['y']\nprint(r)\n") == ["gcd", "os"]


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(mjtheta.__path__[0]).glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert imported_but_unused(path.read_text()) == []
