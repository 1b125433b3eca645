"""Public surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import fracstorm

MODULES = ["fracstorm"] + sorted(
    f"fracstorm.{info.name}" for info in pkgutil.iter_modules(fracstorm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
