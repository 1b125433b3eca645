"""Tests of the benchmark itself (not of fracstorm).

    python3 -m pytest -q -p no:cacheprovider perfbench/selftest.py

The file name keeps these out of the repository's own test run: they check
that every correctness check fails on a corrupted output, that metric names
are well formed, that no tracing wrapper survives a traced run, and that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.special import gamma as _gamma

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

import fracstorm.excitation  # noqa: E402
import fracstorm.moments  # noqa: E402
import fracstorm.simulate  # noqa: E402
from fracstorm.kernels import build_discrete_generator, eigen_system  # noqa: E402
from fracstorm.params import ModelParams, SpaceGrid  # noqa: E402


# --------------------------------------------------------------------------
# sweeps


def _sweep_summary(**over):
    summary = {"verdict": "PASS ±10%", "slope": 2.6666666636, "theory": 8.0 / 3.0,
               "log_value": list(np.linspace(5.0, 9000.0, 13))}
    summary.update(over)
    return summary


def test_sweep_check_accepts_a_good_sweep():
    assert checks.check_sweep(0, _sweep_summary(), 13) == []


@pytest.mark.parametrize("exit_code, over", [
    (0, {"slope": 3.0}),                                  # outside band, verdict says PASS
    (0, {"slope": 2.30}),
    (0, {"verdict": "FAIL ±10%"}),
    (0, {"log_value": [1.0] * 12 + [math.inf]}),
    (0, {"log_value": [1.0] * 12 + [math.nan]}),
    (0, {"log_value": [1.0] * 12}),                       # a lambda went missing
    (1, {}),
])
def test_sweep_check_fails_on_corrupted_output(exit_code, over):
    assert checks.check_sweep(exit_code, _sweep_summary(**over), 13)


# --------------------------------------------------------------------------
# Monte Carlo


def _mc_table(shift=0.0, rel_stderr=0.01, seed=0):
    rng = np.random.default_rng(seed)
    ref = np.cos(0.5 * np.pi * np.linspace(-0.98, 0.98, 64)) ** 2 + 0.1
    stderr = rel_stderr * ref
    mean = ref + stderr * rng.uniform(-1.0, 1.0, 64) + shift * ref
    return np.column_stack([np.linspace(-0.98, 0.98, 64), mean, stderr]), ref


def test_mc_check_accepts_a_good_run():
    table, ref = _mc_table()
    summary = {"blowups": 0, "replicates_used": 2000}
    assert checks.check_mc(0, summary, table, ref, 2000) == []


@pytest.mark.parametrize("shift", [0.06, -0.06])
def test_mc_check_fails_on_shifted_mean(shift):
    table, ref = _mc_table(shift=shift)
    summary = {"blowups": 0, "replicates_used": 2000}
    assert checks.check_mc(0, summary, table, ref, 2000)


@pytest.mark.parametrize("summary", [{"blowups": 3, "replicates_used": 1997},
                                     {"blowups": 0, "replicates_used": 1500}])
def test_mc_check_fails_on_lost_replicates(summary):
    table, ref = _mc_table()
    assert checks.check_mc(0, summary, table, ref, 2000)


# --------------------------------------------------------------------------
# history operators


def _history_outputs():
    p = worker.RENEWAL
    t = np.linspace(0.0, p["T"], p["nt"] + 1)
    f = checks.renewal_reference(t, p["rho"], p["kappa"], p["c1"])
    aux, _ = worker._history_grid()
    ts = aux[1:]
    return (np.column_stack([t, f]),
            np.stack([ts, ts ** 1.5 / _gamma(2.5)]))


def test_history_check_accepts_exact_outputs():
    renewal, integral = _history_outputs()
    assert checks.check_history(0, renewal, integral, worker.RENEWAL, 0.5) == []


def test_history_check_fails_on_wrong_renewal_value():
    renewal, integral = _history_outputs()
    renewal[-1, 1] *= 1.0 + 3e-5
    assert checks.check_history(0, renewal, integral, worker.RENEWAL, 0.5)


def test_history_check_fails_on_inexact_integral():
    renewal, integral = _history_outputs()
    integral[1, 100] *= 1.0 + 1e-11
    assert checks.check_history(0, renewal, integral, worker.RENEWAL, 0.5)


def test_history_check_fails_on_truncated_renewal():
    renewal, integral = _history_outputs()
    assert checks.check_history(0, renewal[:-1], integral, worker.RENEWAL, 0.5)


def test_unreadable_output_is_a_failure():
    missing = os.path.join(ROOT, ".perfbench-out", "selftest-missing")
    fails, _ = checks.check_rep("history-ops", missing, 0, worker.input_sizes("history-ops"))
    assert fails


# --------------------------------------------------------------------------
# metric names and BENCHMARK.json


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END) + list(tracer.METRICS)
    bench = _benchmark()
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        assert tracer.METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(tracer.METRICS)
    for m in bench["per_layer"]:
        assert m["unit"] == tracer.unit_of(m["name"])
    for m in bench["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_thread_budget_fits_nproc():
    blas = int(run.BLAS_ENV["OPENBLAS_NUM_THREADS"])
    assert worker.program_threads() * blas <= (os.cpu_count() or 1)


# --------------------------------------------------------------------------
# tracing


def _small_es():
    p = ModelParams(alpha=2.0, beta=0.5)
    grid = SpaceGrid(R=1.0, n=16)
    return p, eigen_system(build_discrete_generator(p, grid), grid)


def test_tracer_swaps_the_named_bindings_and_restores_them():
    originals = (fracstorm.moments.mittag_leffler,
                 fracstorm.excitation.second_moment_white,
                 fracstorm.simulate.apply_semigroup)
    with tracer.Tracer() as tr:
        assert fracstorm.moments.mittag_leffler is not originals[0]
        assert fracstorm.excitation.second_moment_white is not originals[1]
        assert fracstorm.simulate.apply_semigroup is not originals[2]
        assert tracer.installed_wrappers()
    assert not tr.missing
    assert tracer.installed_wrappers() == []
    assert (fracstorm.moments.mittag_leffler,
            fracstorm.excitation.second_moment_white,
            fracstorm.simulate.apply_semigroup) == originals


def test_tracer_restores_bindings_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("workload failed")
    assert tracer.installed_wrappers() == []


def test_self_time_is_span_minus_child_spans():
    p, es = _small_es()
    u0 = np.cos(0.5 * np.pi * es.grid.nodes)
    with tracer.Tracer() as tr:
        fracstorm.excitation.second_moment_white(p, es, u0, 1.0, 0.1, 8)
    outer = next(s for s in tr.spans if s.name == "moments.second_moment")
    children = [s for s in tr.spans if s.parent == outer.sid]
    assert {s.name for s in children} >= {"fracfun.mittag_leffler",
                                           "kernels.dirichlet_fractional_kernel"}
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["moments.second_moment.calls"] == 1
    assert math.isclose(metrics["moments.second_moment.s"], outer.duration)
    assert math.isclose(metrics["moments.second_moment.self_s"],
                        outer.duration - sum(s.duration for s in children))
    # ML calls nested under the kernel calls are counted once each, and the
    # layer total is not inflated by nesting.
    ml = [s for s in tr.spans if s.name == "fracfun.mittag_leffler"]
    assert metrics["fracfun.mittag_leffler.calls"] == len(ml)
    assert metrics["fracfun.mittag_leffler.s"] <= outer.duration


def test_spans_on_a_worker_thread_have_no_parent_on_another_thread():
    with tracer.Tracer() as tr:
        open_span = tr._current.set(-1)     # as if a span were open here
        try:
            thread = threading.Thread(
                target=lambda: fracstorm.moments.mittag_leffler(0.5, -np.ones(3)))
            thread.start()
            thread.join(timeout=30)
            fracstorm.moments.mittag_leffler(0.5, -np.ones(2))
        finally:
            tr._current.reset(open_span)
    assert not thread.is_alive()
    parents = {s.counts["points"]: s.parent for s in tr.spans}
    assert parents == {3: None, 2: -1}


def test_a_removed_binding_is_reported_absent_not_zero():
    metrics = tracer.layer_metrics([], missing=[("fracstorm.simulate", "simulate_mild")])
    assert "simulate.simulate_mild.s" not in metrics
    assert "simulate.blowups" not in metrics
    assert metrics["kernels.apply_semigroup.calls"] == 0


def test_traced_worker_leaves_no_wrapper_installed():
    out = os.path.join(ROOT, ".perfbench-out", "selftest-traced")
    shutil.rmtree(out, ignore_errors=True)
    rec = run._spawn("history-ops", 1, 0, out, trace=1)
    assert rec["status"] == 0
    assert rec["wrappers_left"] == 0 and rec["absent"] == []
    layers = rec["layers"]
    assert layers["fracfun.fractional_integral.evals"] == 12272
    assert layers["fracfun.caputo_derivative.s"] > 0.0
    assert layers["moments.renewal_volterra_solve.s"] > 0.0
    assert layers["simulate.simulate_mild.s"] == 0.0
    fails, _ = checks.check_rep("history-ops", out, rec["exit_code"],
                                worker.input_sizes("history-ops"))
    assert fails == []


# --------------------------------------------------------------------------
# refusing to run without the program


def test_benchmark_fails_without_the_program_sources():
    bare = os.path.join(ROOT, ".perfbench-out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "history-ops",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
