"""Noise-excitation sweep driver: fits the growth index of E_t(lambda).

For the linear equation the second moment grows like
exp(c (lambda)^(2 alpha / (alpha - d beta)) t) under white noise and with
exponent 2 alpha / (alpha - gamma beta) under Riesz noise; the index is the
log lambda slope of log log E_t(lambda).  The limits hold as lambda -> inf,
and finite-lambda slopes creep upward slowly, so the fit uses only the top
decade of a grid spanning at least three decades (Volterra backend) and the
verdict windows are +-10-12%.

E_t(lambda) can be either the square-rooted energy (int_B M dx)^(1/2) or
sup_x M; the two differ by a bounded factor on the bounded domain, so both
carry the same index.  The evaluation time defaults to small t (the sweeps
here use t = 0.1): the index is t-independent in theory, and small t reaches
the asymptotic regime soonest.

The Monte Carlo backend cannot represent moments beyond roughly e^700 and is
restricted to a single decade of moderate lambda; it exists to cross-check
the Volterra backend on the overlap window, not to fit the index.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericsError
from .kernels import EigenSystem
from .moments import MomentField, MomentPlan, second_moment_colored, second_moment_white
from .simulate import SigmaSpec, SimConfig, check_threads, simulate_mild

__all__ = [
    "ExcitationFit",
    "theoretical_index",
    "excitation_sweep",
    "index_vs_position_check",
]

_FUNCTIONALS = ("energy", "sup")


@dataclass(frozen=True)
class ExcitationFit:
    """Result of a lambda sweep: log E_t per lambda and the top-window fit.

    ``fit_mask`` marks the points the slope was fitted on (top decade, after
    dropping any E_t <= 1); ``residuals`` are the fit residuals in
    log log E coordinates at those points.
    """

    lambdas: np.ndarray
    functional: str
    log_values: np.ndarray
    slope: float
    theory: float
    t: float
    method: str
    fit_mask: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise DomainError("ExcitationFit needs at least two lambdas")
        if np.any(lam < 1.0) or np.any(np.diff(lam) <= 0.0):
            raise DomainError("lambdas must be strictly increasing and >= 1")
        if self.functional not in _FUNCTIONALS:
            raise DomainError(f"functional must be one of {_FUNCTIONALS}")
        if not np.isfinite(self.slope):
            raise NumericsError(f"fitted slope is not finite: {self.slope}")
        if abs(self.slope) > 2.0 * self.theory:
            raise NumericsError(
                f"fitted slope {self.slope:.4g} outside sanity band "
                f"|slope| <= 2 * theory = {2.0 * self.theory:.4g}"
            )


def theoretical_index(alpha, beta, d_or_gamma, noise):
    """Growth index of E_t(lambda): 2a/(a - d b) (white) or 2a/(a - g b) (riesz).

    ``noise`` is 'white' or 'riesz' (a NoiseModel is also accepted);
    ``d_or_gamma`` is the spatial dimension for white noise and the Riesz
    exponent gamma for colored noise.
    """
    kind = getattr(noise, "kind", noise)
    if kind not in ("white", "riesz"):
        raise DomainError(f"noise must be 'white' or 'riesz', got {noise!r}")
    a, b, q = float(alpha), float(beta), float(d_or_gamma)
    den = a - q * b
    if den <= 0.0:
        label = "d" if kind == "white" else "gamma"
        raise DomainError(
            f"alpha - {label}*beta > 0 violated: alpha={a}, beta={b}, {label}={q}"
        )
    return 2.0 * a / den


def _check_lambda_grid(lambda_grid, method):
    lam = np.asarray(lambda_grid, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise DomainError("lambda grid must be a 1-d array with >= 2 points")
    if np.all(lam == lam[0]):
        raise NumericsError("degenerate regression: all lambda values equal")
    if np.any(lam < 1.0) or np.any(np.diff(lam) <= 0.0):
        raise DomainError("lambda grid must be strictly increasing and >= 1")
    if lam.size < 6:
        raise DomainError(f"lambda grid needs >= 6 points, got {lam.size}")
    ratios = lam[1:] / lam[:-1]
    if ratios.max() / ratios.min() - 1.0 > 1e-6:
        raise DomainError("lambda grid must be geometric (constant ratio)")
    span = lam[-1] / lam[0]
    if method == "volterra":
        if span < 1e3 * (1.0 - 1e-9):
            raise DomainError(
                f"volterra sweep needs >= 3 decades of lambda, got {span:.3g}x"
            )
    else:
        if span > 10.0 * (1.0 + 1e-9):
            raise DomainError(
                f"montecarlo sweep is limited to <= 1 decade of lambda, got {span:.3g}x"
            )
    return lam


def _fit_top_window(lambdas, log_values, theory):
    """Least-squares slope of log log E vs log lambda on the top decade.

    Points with E_t <= 1 (log log undefined) are dropped from the window;
    fewer than 4 surviving points is a fit error.
    """
    lam = np.asarray(lambdas, float)
    logv = np.asarray(log_values, float)
    window = lam >= lam[-1] / 10.0 * (1.0 - 1e-12)
    usable = window & np.isfinite(logv) & (logv > 0.0)
    if int(usable.sum()) < 4:
        raise NumericsError(
            "excitation fit window has fewer than 4 usable points "
            f"({int(usable.sum())} of {int(window.sum())} in the top decade had "
            "E_t > 1); increase lambda or t"
        )
    x = np.log(lam[usable])
    y = np.log(logv[usable])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    fit = float(slope)
    if not np.isfinite(fit):
        raise NumericsError("excitation slope fit produced a non-finite value")
    return fit, usable, residuals


def _theory_for(params):
    if params.noise.kind == "white":
        return theoretical_index(params.alpha, params.beta, params.d, "white")
    return theoretical_index(params.alpha, params.beta, params.noise.gamma, "riesz")


def _volterra_fields(params, es, u0, t, lambdas, nt, l_sigma, threads=1):
    """Moment fields for every lambda, sharing one MomentPlan across the sweep.

    Independent lambda cells may run on a thread pool (the solvers only read
    the shared plan); results are collected in grid order either way.
    """
    plan = MomentPlan.build(params, es, u0, t, nt)

    def solve(lam):
        p = replace(params, lam=float(lam))
        if p.noise.kind == "white":
            return second_moment_white(p, es, u0, l_sigma, t, nt, plan=plan)
        return second_moment_colored(p, es, u0, l_sigma, t, nt, plan=plan).diagonal_field()

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, lambdas))
    return [solve(lam) for lam in lambdas]


def _default_nt(method):
    return 192 if method == "volterra" else 128


def excitation_sweep(params, es, u0, t, lambda_grid, method="volterra",
                     functional="energy", nt=None, sigma=SigmaSpec(), replicates=400,
                     seed=0, threads=1):
    """Sweep lambda, compute log E_t(lambda), and fit the growth index.

    method 'volterra' solves the exact second-moment equation in log scale
    (lambda up to 1e6) and needs a linear ``sigma`` (default sigma(u) = u);
    'montecarlo' averages ``replicates`` simulate_mild replicates drawn from
    ``seed`` on es.grid and is restricted to one decade of moderate lambda.
    ``threads`` > 1 runs lambda cells (Volterra) or replicate chunks
    concurrently; the result is identical to the sequential sweep.
    """
    threads = check_threads(threads)
    if not isinstance(es, EigenSystem):
        raise DomainError("es must be an EigenSystem")
    if method not in ("volterra", "montecarlo"):
        raise DomainError(f"method must be 'volterra' or 'montecarlo', got {method!r}")
    if functional not in _FUNCTIONALS:
        raise DomainError(f"functional must be one of {_FUNCTIONALS}")
    if method == "volterra" and sigma.linear_slope is None:
        raise DomainError("the volterra sweep needs a linear sigma; "
                          "a table sigma runs only with method='montecarlo'")
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"t > 0 violated: t={t}")
    lam = _check_lambda_grid(lambda_grid, method)
    theory = _theory_for(params)
    nt = _default_nt(method) if nt is None else int(nt)

    if method == "volterra":
        fields = _volterra_fields(params, es, u0, t, lam, nt, sigma.linear_slope, threads)
    else:
        cfg = SimConfig(nt=nt, T=t, replicates=replicates, seed=seed, sigma=sigma)
        fields = []
        for lv in lam:
            est = simulate_mild(replace(params, lam=float(lv)), es, u0, cfg, threads=threads)
            fields.append(MomentField(times=est.times, grid=es.grid, values=est.mean,
                                      log_scale=np.zeros(nt + 1)))
    logv = np.array([f.energy_log() if functional == "energy" else f.sup_log()
                     for f in fields])

    slope, mask, residuals = _fit_top_window(lam, logv, theory)
    return ExcitationFit(
        lambdas=lam,
        functional=functional,
        log_values=logv,
        slope=slope,
        theory=theory,
        t=t,
        method=method,
        fit_mask=mask,
        residuals=residuals,
    )


def index_vs_position_check(params, es, u0, t, epsilon, lambda_grid=None, nt=None):
    """Fit the index pointwise at 5 interior probes and compare across probes.

    The index theorems are pointwise on the shrunken ball |x| <= R - epsilon;
    this re-fits the slope from M(t, x_probe) per probe (one Volterra solve
    per lambda, shared across probes) and reports the spread, plus the
    energy-functional slope from the same solves.
    """
    t = float(t)
    if t <= 0.0:
        raise DomainError(f"t > 0 violated: t={t}")
    R = es.grid.R
    eps = float(epsilon)
    if not (0.0 < eps <= R):
        raise DomainError(f"epsilon in (0, R] violated: epsilon={epsilon}")
    if lambda_grid is None:
        top = 1e6 if params.noise.kind == "white" else 1e5
        npts = 13 if params.noise.kind == "white" else 10
        lambda_grid = np.geomspace(1e2, top, npts)
    lam = _check_lambda_grid(lambda_grid, "volterra")
    theory = _theory_for(params)
    nt = _default_nt("volterra") if nt is None else int(nt)

    half = max(R - eps, 0.0)
    targets = np.linspace(-half, half, 5)
    nodes = es.grid.nodes
    idx = sorted(set(int(np.argmin(np.abs(nodes - xt))) for xt in targets))

    fields = _volterra_fields(params, es, u0, t, lam, nt, l_sigma=1.0)
    logM = np.array([f.log_values()[-1] for f in fields])   # (nlam, nx)
    energy = np.array([f.energy_log() for f in fields])

    slopes = []
    for i in idx:
        s, _, _ = _fit_top_window(lam, logM[:, i], theory)
        slopes.append(s)
    energy_slope, _, _ = _fit_top_window(lam, energy, theory)
    center = int(np.argmin(np.abs(nodes)))
    s_center, _, _ = _fit_top_window(lam, logM[:, center], theory)

    slopes = np.asarray(slopes)
    return {
        "probes": nodes[idx],
        "slopes": slopes,
        "max_deviation": float(slopes.max() - slopes.min()),
        "energy_slope": float(energy_slope),
        "center_slope": float(s_center),
        "center_vs_energy": float(abs(s_center - energy_slope)),
        "theory": float(theory),
        "t": t,
    }
