"""Every name in a module's __all__ exists, so a deletion that leaves a
stale export fails here and not at the first `from mjtheta.x import *`;
every name a module, test, demo or tool imports is used there or
exported, so a deletion leaves no import behind; every error class is
raised somewhere in the package, so a deletion leaves no error behind;
every private function of the package is read outside its own definition,
so a deletion leaves no helper behind; and every module imports only from
the layers below it."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import mjtheta
from mjtheta import errors

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


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(pathlib.Path(mjtheta.__path__[0]).glob("*.py")) + sorted(
    p for d in ("tests", "demos", "tools") for p in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert imported_but_unused(path.read_text()) == []


def raised_names(source):
    """Names read in the exceptions that `raise` statements in `source`
    raise."""
    return {n.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise) and node.exc is not None
            for n in ast.walk(node.exc) if isinstance(n, ast.Name)}


def test_raise_check_sees_them():
    assert raised_names(
        "raise A(f(x)) from None\nraise\ny = B\n"
        "try:\n    pass\nexcept C:\n    raise\n") == {"A", "f", "x"}


def test_every_error_class_is_raised():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.MJTError)
               and obj is not errors.MJTError}
    raised = set().union(*(raised_names(p.read_text()) for p in SOURCES
                           if p.parent.name == "mjtheta"))
    assert sorted(classes - raised) == []


def unread_private_functions(sources):
    """Names of the private functions (`_name`, not dunder) defined in
    `sources` that no expression reads outside their own definitions, as
    a name or as an attribute."""
    defined, read = set(), set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.startswith("_") and \
                        not child.name.endswith("__"):
                    defined.add(child.name)
                visit(child, inside | {child.name})
                continue
            if isinstance(child, ast.Name) and child.id not in inside:
                read.add(child.id)
            elif isinstance(child, ast.Attribute) and \
                    child.attr not in inside:
                read.add(child.attr)
            visit(child, inside)

    for source in sources:
        visit(ast.parse(source), frozenset())
    return sorted(defined - read)


def test_unread_private_function_check_sees_them():
    assert unread_private_functions([
        "def _a(n):\n    return _a(n - 1)\n"
        "def _b():\n    pass\n"
        "class C:\n    def _c(self):\n        pass\n"
        "    def __eq__(self, o):\n        return self._c()\n",
        "from .x import _b\nprint(_b)\n"]) == ["_a"]


def test_every_private_function_is_read():
    assert unread_private_functions(
        p.read_text() for p in SOURCES if p.parent.name == "mjtheta") == []


def csv_reader_calls(source):
    """The number of calls of csv.reader in `source`."""
    return sum(isinstance(node, ast.Call) and ast.unparse(node.func) ==
               "csv.reader" for node in ast.walk(ast.parse(source)))


def test_csv_reader_call_check_sees_them():
    assert csv_reader_calls("import csv\ncsv.reader(f)\nr = csv.reader\n"
                            "list(csv.reader(x for x in g))\n") == 2


def test_one_reader_of_csv_records():
    # the packaged tables and --data files are read by one function
    assert sum(csv_reader_calls(p.read_text()) for p in SOURCES
               if p.parent.name == "mjtheta") == 1


def fixture_reads(source):
    """The number of reads of a `.fixture` attribute in `source`."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "fixture"
               for node in ast.walk(ast.parse(source)))


def test_fixture_read_check_sees_them():
    assert fixture_reads("t = lam.fixture\nfixture = 1\n"
                         "f(get('2').fixture, x.fixtures)\n") == 2


def test_verifiers_read_no_fixture():
    # a verifier's table comes from catalog.table_for, not its own choice
    package = pathlib.Path(mjtheta.__path__[0])
    assert [fixture_reads((package / f"{name}.py").read_text())
            for name in ("borcherds", "mocktheta")] == [0, 0]


# the package's modules, lowest layer first
LAYERS = ["errors", "arith", "cyclo", "series", "eta", "jacobi", "catalog",
          "mocktheta", "borcherds", "cli"]


def package_imports(source):
    """The package modules that `source` imports from by relative import,
    at module or function level."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
    return out


def test_package_import_check_sees_them():
    assert package_imports(
        "import os\nfrom .a import b\nfrom . import c\n"
        "def f():\n    from .d.e import g\n") == {"a", "c", "d"}


def test_imports_follow_the_layers():
    package = pathlib.Path(mjtheta.__path__[0])
    # the package root only re-exports
    assert sorted(p.stem for p in package.glob("*.py")
                  if p.stem != "__init__") == sorted(LAYERS)
    for i, name in enumerate(LAYERS):
        imported = package_imports((package / f"{name}.py").read_text())
        assert imported <= set(LAYERS[:i]), (name, imported)
    # tables and streams hold rationals: no irrational value reaches them
    assert [name for name in ("jacobi", "catalog", "mocktheta")
            if "cyclo" in package_imports(
                (package / f"{name}.py").read_text())] == []


def test_the_cyclotomic_field_is_retired():
    # a root of unity is a stream term's turn, and the one irrational value
    # is x + y G_D: no field arithmetic is left to export or define
    from mjtheta import cyclo
    assert "ex" not in mjtheta.__all__ and not hasattr(mjtheta, "ex")
    assert [name for name in ("ex", "_descend", "_trace_down", "_lift",
                              "_embed_powers", "_conductor", "_poly_mul",
                              "_phi", "_reduce_mod_phi")
            if hasattr(cyclo, name)] == []
