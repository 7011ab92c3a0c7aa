"""Every name in a module's __all__ exists, so a deletion that leaves a
stale export fails here and not at the first `from mjtheta.x import *`."""

import importlib
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
