"""Public surface: every name a module exports exists; pinned signatures."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
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
    assert list(params) == ["params", "es", "u0", "l_sigma", "T", "nt", "plan", "lams"]
    assert params["plan"].default is None
    # a lam batch is keyword-only, so the seven positional parameters stay
    assert params["lams"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["lams"].default is None


def test_moment_field_surface_is_pinned():
    # the benchmark's reference solve reads .dense() of the returned field
    from fracstorm.moments import MomentField

    assert [f.name for f in dataclasses.fields(MomentField)] == ["times", "grid", "logs"]
    assert all(callable(getattr(MomentField, name)) for name in ("dense", "sup_log", "energy_log"))


@pytest.mark.parametrize("path", sorted(pathlib.Path(fracstorm.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    # what one module needs of another is public there; dunders such as
    # __version__ are public by convention
    private = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fracstorm"):
            private += [alias.name for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")]
        elif isinstance(node, ast.Import):
            private += [alias.name for alias in node.names if alias.name.startswith("fracstorm.")
                        and alias.name.split(".")[-1].startswith("_")]
    assert private == []
