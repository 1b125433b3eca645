"""Correctness checks of the benchmark's workloads.

Each check takes what one repetition produced (the CLI's exit code and
artifacts, or the arrays ``worker.py`` saved) and returns a list of failure
messages; an empty list means the repetition produced a correct solution.
``run.py`` calls them after every timed region has ended, and counts a
repetition with any failure as one failed operation.

References are independent of the code path they check: closed forms
(the renewal resolvent, I^0.5 t), the Volterra moment solver for the Monte
Carlo run, and the fit band of the paper's index for the sweeps.
"""

import json
import math
import os

import numpy as np
from scipy.special import gamma as _gamma

#: Relative band around the theoretical index that the sweep verdict uses.
SWEEP_BAND = 0.10
SWEEP_VERDICT = "PASS ±10%"

#: Criterion 9's ten interior probes of the 64-cell grid.
MC_PROBES = np.linspace(8, 55, 10).astype(int)
#: Bound on max |z| over the probes, z = (MC mean - Volterra) / MC stderr.
#: Were z standard normal, a correct run would fail with probability
#: 10 * P(|z| > 4.5) = 6.8e-5.  At the commit that added this benchmark,
#: 22 seeds x 3 repetitions gave a largest max |z| of 2.61, and all 196
#: repetitions run (52 seeds) gave 3.53; none failed.  The MC stderr is about
#: 1% of the mean at the probes, so a mean shifted by 6% of itself fails.
MC_Z_BOUND = 4.5

RENEWAL_RTOL = 1e-5
RENEWAL_TMIN = 0.05
INTEGRAL_RTOL = 1e-12


def _read_csv(path):
    """Numeric body of a fracstorm CSV artifact (comment line, header, rows)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_sweep(exit_code, summary, count):
    """`fracstorm excite`: exit 0, verdict PASS ±10%, every log_value finite.

    The band is recomputed from the slope and the theory value, so a slope
    outside it fails even where the verdict text says PASS.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    fails = []
    if summary.get("verdict") != SWEEP_VERDICT:
        fails.append(f"verdict {summary.get('verdict')!r}")
    slope, theory = summary.get("slope"), summary.get("theory")
    if not (isinstance(slope, float) and isinstance(theory, float)
            and math.isfinite(slope) and theory > 0.0
            and abs(slope / theory - 1.0) <= SWEEP_BAND):
        fails.append(f"slope {slope} outside ±{SWEEP_BAND:.0%} of theory {theory}")
    logv = np.asarray(summary.get("log_value", []), dtype=float)
    if logv.size != count:
        fails.append(f"{logv.size} log values for {count} lambdas")
    if not np.all(np.isfinite(logv)):
        fails.append(f"{int(np.sum(~np.isfinite(logv)))} non-finite log values")
    return fails


def mc_reference():
    """Volterra second moment at T on mc-white's grid (n=64, nt=256, T=0.1)."""
    from fracstorm.kernels import build_discrete_generator, eigen_system
    from fracstorm.moments import second_moment_white
    from fracstorm.params import ModelParams, SpaceGrid

    p = ModelParams(alpha=2.0, beta=0.5, lam=1.0)
    grid = SpaceGrid(R=1.0, n=64)
    es = eigen_system(build_discrete_generator(p, grid), grid)
    u0 = np.cos(0.5 * np.pi * grid.nodes / grid.R)
    return second_moment_white(p, es, u0, 1.0, 0.1, 256).dense()[-1]


def mc_max_z(table, reference):
    """max |z| over MC_PROBES for a (x, second_moment, stderr) final-time table."""
    mean, stderr = table[:, 1], table[:, 2]
    z = np.abs(mean[MC_PROBES] - reference[MC_PROBES]) / stderr[MC_PROBES]
    return float(np.max(z)) if np.all(stderr[MC_PROBES] > 0.0) else math.inf


def check_mc(exit_code, summary, table, reference, replicates):
    """`fracstorm simulate`: exit 0, no blow-ups, MC mean within MC_Z_BOUND."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    fails = []
    if summary.get("blowups") != 0:
        fails.append(f"{summary.get('blowups')} blow-ups")
    if summary.get("replicates_used") != replicates:
        fails.append(f"{summary.get('replicates_used')} of {replicates} replicates used")
    z = mc_max_z(table, reference)
    if not z <= MC_Z_BOUND:
        fails.append(f"max |z| {z:.3f} over {MC_PROBES.size} probes > {MC_Z_BOUND}")
    return fails


def renewal_reference(t, rho, kappa, c1):
    """Closed-form resolvent c1 E_rho(kappa Gamma(rho) t^rho)."""
    from fracstorm.fracfun import mittag_leffler

    return c1 * mittag_leffler(rho, kappa * _gamma(rho) * t ** rho)


def check_history(exit_code, renewal, integral, renewal_params, order):
    """Renewal within RENEWAL_RTOL of its resolvent for t >= RENEWAL_TMIN, and
    I^order t within INTEGRAL_RTOL of t^(1+order)/Gamma(2+order) at every node
    (the product rule is exact for piecewise-linear data)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    fails = []
    t, f = renewal[:, 0], renewal[:, 1]
    if t.size != renewal_params["nt"] + 1:
        fails.append(f"renewal has {t.size} samples, expected {renewal_params['nt'] + 1}")
    keep = t >= RENEWAL_TMIN
    ref = renewal_reference(t[keep], renewal_params["rho"], renewal_params["kappa"],
                            renewal_params["c1"])
    rel = np.abs(f[keep] - ref) / ref
    if not (keep.any() and np.all(rel <= RENEWAL_RTOL)):
        fails.append(f"renewal max rel err {float(np.max(rel, initial=np.inf)):.3e} "
                     f"> {RENEWAL_RTOL:g}")
    ts, vals = integral
    exact = ts ** (1.0 + order) / _gamma(2.0 + order)
    rel = np.abs(vals - exact) / exact
    if not np.all(rel <= INTEGRAL_RTOL):
        fails.append(f"I^{order} t max rel err {float(np.max(rel)):.3e} > {INTEGRAL_RTOL:g}")
    return fails


def caputo_roundtrip_error(caputo):
    """max |D^b I^b t - t| at the evaluation points (reported, not gated)."""
    ts, vals = caputo
    return float(np.max(np.abs(vals - ts)))


def check_rep(workload, outdir, exit_code, sizes, reference=None):
    """Failures of one repetition, read from the artifacts in ``outdir``.

    Returns (failures, diagnostics).  A missing or unreadable artifact is a
    failure, never an exception.
    """
    try:
        if workload in ("white-sweep", "colored-sweep"):
            summary = _read_json(os.path.join(outdir, "excite.json"))
            return check_sweep(exit_code, summary, sizes["excite.count"]), {
                "slope": summary.get("slope"), "theory": summary.get("theory")}
        if workload == "mc-white":
            summary = _read_json(os.path.join(outdir, "simulate.json"))
            table = _read_csv(os.path.join(outdir, "simulate.csv"))
            return (check_mc(exit_code, summary, table, reference,
                             sizes["simulate.replicates"]),
                    {"max_z": mc_max_z(table, reference)})
        renewal = _read_csv(os.path.join(outdir, "renewal.csv"))
        integral = np.load(os.path.join(outdir, "integral.npy"))
        caputo = np.load(os.path.join(outdir, "caputo.npy"))
        return (check_history(exit_code, renewal, integral, sizes["renewal"],
                              sizes["fractional_integral_order"]),
                {"caputo_roundtrip_err": caputo_roundtrip_error(caputo)})
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"], {}
