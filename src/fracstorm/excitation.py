"""Noise-excitation sweep driver: fits the growth index of E_t(lambda).

For the linear equation the second moment grows like
exp(c (lambda)^(2 alpha / (alpha - d beta)) t) under white noise and with
exponent 2 alpha / (alpha - gamma beta) under Riesz noise; the index is the
log lambda slope of log log E_t(lambda).  The limits hold as lambda -> inf,
and finite-lambda slopes creep upward slowly, so the fit uses only the top
decade of a grid spanning at least three decades (Volterra route) and the
verdict windows are +-10-12%.

E_t(lambda) can be either the square-rooted energy (int_B M dx)^(1/2) or
sup_x M; the two differ by a bounded factor on the bounded domain, so both
carry the same index.  The evaluation time defaults to small t (the sweeps
here use t = 0.1): the index is t-independent in theory, and small t reaches
the asymptotic regime soonest.

The route comes from sigma.  A linear sigma(u) = l u has a closed Volterra
equation for the second moment, solved in one solver call over the whole
grid.  Any other sigma (a table) has no such equation and runs Monte Carlo,
which cannot represent moments beyond roughly e^700 and is restricted to a
single decade of moderate lambda; only it uses threads.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericsError, integer, number
from .kernels import EigenSystem
from .moments import MomentField, second_moment_colored, second_moment_white
from .simulate import SigmaSpec, SimConfig, simulate_mild

__all__ = [
    "ExcitationFit",
    "theoretical_index",
    "excitation_sweep",
]

_FUNCTIONALS = ("energy", "sup")


@dataclass(frozen=True)
class ExcitationFit:
    """Result of a lambda sweep: log E_t per lambda and the top-window fit.

    ``method`` is the route the sweep took, 'volterra' or 'montecarlo';
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
    label = "d" if kind == "white" else "gamma"
    a, b = number("alpha", alpha, 0.0, 2.0, "right"), number("beta", beta, 0.0, 1.0, "right")
    q = number(label, d_or_gamma, 0.0, np.inf)
    den = a - q * b
    if den <= 0.0:
        raise DomainError(
            f"alpha - {label}*beta > 0 violated: alpha={a}, beta={b}, {label}={q}"
        )
    return 2.0 * a / den


def _check_lambda_grid(lambda_grid, method):
    lam = np.asarray(lambda_grid, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise DomainError("lambda grid must be a 1-d array with >= 2 points")
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


def excitation_sweep(params, es, u0, t, lambda_grid, functional="energy", nt=None,
                     sigma=SigmaSpec(), replicates=400, seed=0, threads=1):
    """Sweep lambda, compute log E_t(lambda), and fit the growth index.

    The route comes from ``sigma``.  A linear sigma (default sigma(u) = u)
    runs 'volterra': the exact second-moment equation in log scale, lambda
    up to 1e6, solved in one solver call on the calling thread.  A table
    sigma runs 'montecarlo', its only route: ``replicates`` simulate_mild
    replicates drawn from ``seed`` on es.grid, on one decade of moderate
    lambda; ``threads`` > 1 runs replicate chunks concurrently, with the
    result of the sequential sweep.
    """
    threads = integer("threads", threads, 1)
    if not isinstance(es, EigenSystem):
        raise DomainError("es must be an EigenSystem")
    if functional not in _FUNCTIONALS:
        raise DomainError(f"functional must be one of {_FUNCTIONALS}")
    method = "montecarlo" if sigma.linear_slope is None else "volterra"
    t = number("t", t, 0.0, np.inf)
    lam = _check_lambda_grid(lambda_grid, method)
    white = params.noise.kind == "white"
    theory = theoretical_index(params.alpha, params.beta, 1 if white else params.noise.gamma,
                               params.noise)
    # an nt given is checked where it is used, by the solver's plan or SimConfig
    nt = (192 if method == "volterra" else 128) if nt is None else nt

    if method == "volterra":
        solve = second_moment_white if white else second_moment_colored
        fields = solve(params, es, u0, sigma.linear_slope, t, nt, lams=lam)
    else:
        cfg = SimConfig(nt=nt, T=t, replicates=replicates, seed=seed, sigma=sigma)
        fields = []
        for lv in lam:
            est = simulate_mild(replace(params, lam=float(lv)), es, u0, cfg, threads=threads)
            with np.errstate(divide="ignore"):    # a vanishing moment's log is -inf
                fields.append(MomentField(times=est.times, grid=es.grid, logs=np.log(est.mean)))
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
