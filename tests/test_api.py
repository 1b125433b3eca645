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
    assert list(params) == ["params", "es", "u0", "l_sigma", "T", "nt", "lams"]
    # a lam grid is keyword-only, so the six positional parameters stay
    assert params["lams"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["lams"].default is None


def test_excitation_sweep_signature_is_pinned():
    # one route, the linear-sigma Volterra solve: sigma enters as its slope,
    # as in the moment solvers, and no Monte Carlo knob is left
    from fracstorm.excitation import excitation_sweep

    params = inspect.signature(excitation_sweep).parameters
    assert list(params) == ["params", "es", "u0", "t", "lambda_grid", "functional", "nt",
                            "l_sigma"]
    assert [params[k].default for k in ("functional", "nt", "l_sigma")] == ["energy", 192, 1.0]


def test_simulate_exports_only_what_its_callers_use():
    # the commands, the checks and the benchmark build a sigma and a run and
    # call simulate_mild; the noise draw and the Riesz factor are its own
    from fracstorm import simulate

    assert simulate.__all__ == ["SigmaSpec", "table_sigma", "SimConfig", "MomentEstimate",
                                "simulate_mild"]


def test_moment_field_surface_is_pinned():
    # the benchmark's reference solve reads .dense() of the returned field
    from fracstorm.moments import MomentField

    assert [f.name for f in dataclasses.fields(MomentField)] == ["times", "grid", "logs"]
    assert all(callable(getattr(MomentField, name)) for name in ("dense", "sup_log", "energy_log"))


def test_moment_plan_fields_are_pinned():
    # the lam-free part of a solve: the reference solvers of the moment tests
    # read its tables, and the exact-rate and exact-value oracles planned in
    # the roadmap (D10, D13) are to build on them
    from fracstorm.moments import MomentPlan

    assert [f.name for f in dataclasses.fields(MomentPlan)] == [
        "es", "T", "nt", "eta", "times", "det", "cell_mass", "history", "riesz"]


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


@pytest.mark.parametrize("path", sorted(pathlib.Path(fracstorm.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # an unused import keeps a dead dependency and is compiled again at every
    # process start that writes no bytecode; a name in __all__ is used (it is
    # re-exported), and __future__ imports are directives
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(pathlib.Path(fracstorm.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_only_errors_states_the_integer_rule(path):
    # what counts as an integer argument (numbers.Integral, never a bool) is
    # errors.integer's rule; a module that restates it can drift from it
    if path.name == "errors.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "numbers"
             or isinstance(node, ast.Attribute) and node.attr == "Integral"]
    assert found == []
