"""Public surface: every name a module exports exists; pinned signatures."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", ["second_moment_white", "second_moment_colored"])
def test_second_moment_solver_signature_is_pinned(name):
    # the benchmark's reference solve calls these positionally
    from fracstorm import moments

    params = inspect.signature(getattr(moments, name)).parameters
    assert list(params) == ["params", "es", "u0", "l_sigma", "T", "nt", "plan"]
    assert params["plan"].default is None
