"""Cross-module validation suite with a deterministic plain-text report.

``CHECKS`` is the only implementation of every shipped check; ``fracstorm
validate`` and ``tests/test_acceptance.py`` both run it (one check alone:
``pytest tests/test_acceptance.py -k <name>``).  Each public module contributes
a group of checks; each check re-derives a property the implementation must
satisfy and reports a measured number, the tolerance it is held to, and the
provenance of the expected value:

* ``closed-form``        -- compared against an exact analytic value,
* ``independent-oracle`` -- compared against a value from a genuinely
                            different computational route,
* ``self-consistency``   -- two internal routes or resolutions must agree,
* ``definition``         -- a structural property that must hold exactly.

A check's ``criterion`` names the acceptance criterion (1-10) it carries and
``budget`` its wall time in seconds, which only the tests enforce.  Golden
values come only from ``data/golden_kernels.csv``: a check whose ``golden``
names a row gets its expected value and tolerance.  ``format_report`` renders
results as bytes that depend only on (code, seed, only): no timings, fixed
float formatting, and slow statistical checks seed from the report seed.
"""

import csv
import importlib.resources
import json
import math
import zlib
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, integer
from . import quadrature
from .fracfun import (
    SampledFunction,
    caputo_derivative,
    fractional_integral,
    inverse_subordinator_density,
    mittag_leffler,
    stable_subordinator_density,
    subordinator_small_u_law,
    subordinator_tail_law,
)
from .kernels import (
    build_discrete_generator,
    dirichlet_fractional_kernel,
    dirichlet_kernel_subordination,
    eigen_system,
    estimate_floor_constant,
    fractional_free_kernel,
    free_kernel_l2,
    green_l2_constant,
    riesz_kernel_matrix,
    stable_density,
)
from .moments import (
    lower_series,
    lower_series_log,
    renewal_growth_exponent,
    renewal_volterra_solve,
    second_moment_colored,
    second_moment_white,
)
from .params import ModelParams, NoiseModel, SpaceGrid
from .simulate import SimConfig, simulate_mild
from .excitation import excitation_sweep, theoretical_index

__all__ = ["Check", "CHECKS", "CheckContext", "CheckResult", "GROUPS",
           "golden_table", "run_validation", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    """One validation outcome: measured value and the tolerance it met."""

    group: str
    name: str
    passed: bool
    measured: str
    tolerance: str
    provenance: str


def golden_table():
    """The packaged goldens: ``{"quantity:params": (expected, tolerance, provenance)}``."""
    text = importlib.resources.files(__package__).joinpath("data/golden_kernels.csv").read_text()
    return {f"{quantity}:{params}": (float(expected), float(tolerance), provenance)
            for quantity, params, expected, tolerance, provenance in csv.reader(text.splitlines()[1:])}


@dataclass(frozen=True)
class Check:
    """A registered check; ``fn`` returns ``(passed, measured, tolerance)``."""

    group: str
    name: str
    provenance: str
    criterion: int | None
    budget: float | None
    golden: str | None
    fn: Callable


_registry = []


def _register(group, name, provenance, criterion=None, budget=None, golden=None):
    def deco(fn):
        run = fn if golden is None else lambda ctx: fn(ctx, *golden_table()[golden][:2])
        _registry.append(Check(group, name, provenance, criterion, budget, golden, run))
        return fn
    return deco


def _num(x):
    """Single fixed float rendering so report bytes are reproducible."""
    return f"{float(x):.6g}"


def _residual(x):
    """'= x', or the bound '< 1e-13' where x's digits are roundoff."""
    return "< 1e-13" if float(x) < 1e-13 else f"= {_num(x)}"


class CheckContext:
    """Shared per-run state: seed, thread budget, and cached heavy objects."""

    def __init__(self, seed, threads):
        self.seed = int(seed)
        self.threads = int(threads)
        self._cache = {}

    def rng(self, tag):
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    def memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def eigen(self, alpha, n):
        def build():
            p = ModelParams(alpha=alpha, beta=0.5)    # nu = R = 1
            grid = SpaceGrid(R=p.R, n=n)
            return eigen_system(build_discrete_generator(p, grid), grid)
        return self.memo(("eigen", alpha, n), build)

    def bump(self, es):
        return np.cos(0.5 * np.pi * es.grid.nodes / es.grid.R)


# ---------------------------------------------------------------------------
# fracfun
# ---------------------------------------------------------------------------

@_register("fracfun", "ml-classical-exp", "closed-form", criterion=1, budget=0.25)
def _check_ml_exp(ctx):
    x = np.linspace(-5.0, 5.0, 201)
    err = float(np.max(np.abs(mittag_leffler(1.0, x) - np.exp(x))))
    return err <= 1e-12, f"max|E_1(x)-e^x| {_residual(err)}", "<= 1e-12"


@_register("fracfun", "ml-half-golden", "closed-form", criterion=1, budget=0.25,
           golden="mittag_leffler:beta=0.5;x=-1")
def _check_ml_half(ctx, expected, tol):
    err = abs(float(mittag_leffler(0.5, -1.0)) - expected)
    return err <= tol, f"|E_1/2(-1) - golden| {_residual(err)}", f"<= {_num(tol)}"


@_register("fracfun", "subordinator-half-golden", "closed-form", criterion=1, budget=0.25,
           golden="subordinator_density:beta=0.5;u=1")
def _check_gsub_half(ctx, expected, tol):
    err = abs(float(stable_subordinator_density(0.5, 1.0)) - expected)
    return err <= tol, f"|g_1/2(1) - golden| {_residual(err)}", f"<= {_num(tol)}"


@_register("fracfun", "inverse-subordinator-golden", "closed-form", criterion=1, budget=0.25,
           golden="inverse_subordinator_density:beta=0.5;t=1;x=1")
def _check_invsub(ctx, expected, tol):
    err = abs(float(inverse_subordinator_density(0.5, 1.0, 1.0)) - expected)
    support = float(inverse_subordinator_density(0.5, 1.0, -1.0))
    ok = err <= tol and support == 0.0
    return ok, f"|f(1) - golden| {_residual(err)}, f(-1) = {_num(support)}", f"<= {_num(tol)}; = 0"


@_register("fracfun", "fractional-left-inverse", "definition", criterion=2, budget=5.0)
def _check_left_inverse(ctx, on_nodes=True):
    T = 2.0
    graded = T * (np.arange(4096 + 1) / 4096.0) ** 3
    uniform = np.linspace(0.0, T, 8192 + 1)
    aux = np.unique(np.concatenate([graded, uniform]))
    # g sampled on the integration nodes, or on 512 points (a kinked interpolant).
    samples = aux if on_nodes else np.linspace(0.0, T, 512)
    probes = np.linspace(0.0, T, 513 if on_nodes else 512)[1:]
    worst = 0.0
    for g in (lambda t: np.ones_like(t), lambda t: t, lambda t: t * t, np.sin):
        gs = SampledFunction(times=samples, values=g(samples))
        for beta in (0.3, 0.5, 0.8):
            ivals = np.zeros(aux.size)
            ivals[1:] = fractional_integral(gs, beta, aux[1:])
            inter = SampledFunction(times=aux, values=ivals)
            back = caputo_derivative(inter, beta, probes)
            worst = max(worst, float(np.max(np.abs(back - g(probes)))))
    return worst < 1e-4, f"max|D^b I^b g - g| = {_num(worst)}", "< 1e-4"


@_register("fracfun", "fractional-left-inverse-coarse", "definition")
def _check_left_inverse_coarse(ctx):
    return _check_left_inverse(ctx, on_nodes=False)


@_register("fracfun", "inverse-subordinator-normalization", "independent-oracle")
def _check_invsub_norm(ctx):
    worst = 0.0
    for beta in (0.3, 0.5, 0.8):
        for t in (0.1, 1.0, 10.0):
            val = quadrature.integrate_semi_infinite(
                lambda x: inverse_subordinator_density(beta, t, x), tol=1e-10)
            worst = max(worst, abs(val - 1.0))
    return worst <= 1e-6, f"max|int f - 1| {_residual(worst)}", "<= 1e-6"


@_register("fracfun", "laplace-ml-consistency", "self-consistency")
def _check_laplace_ml(ctx):
    worst = 0.0
    for beta in (0.5, 0.7):
        for mu in (0.5, 1.0, 5.0):
            lhs = quadrature.integrate_semi_infinite(
                lambda s: np.exp(-mu * s) * inverse_subordinator_density(beta, 1.0, s),
                tol=1e-10)
            rhs = float(mittag_leffler(beta, -mu))
            worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-6, f"max|Laplace f - E_b| {_residual(worst)}", "<= 1e-6"


@_register("fracfun", "ml-complete-monotone", "definition")
def _check_ml_monotone(ctx):
    x = np.linspace(0.0, 100.0, 2001)
    min_val, min_drop = np.inf, np.inf
    for beta in (0.3, 0.5, 0.8, 1.0):
        e = mittag_leffler(beta, -x)
        min_val = min(min_val, float(e.min()))
        min_drop = min(min_drop, float(np.min(-np.diff(e))))
    ok = min_val > 0.0 and min_drop > 0.0
    return ok, f"min E = {_num(min_val)}, min decrement = {_num(min_drop)}", "> 0; > 0"


@_register("fracfun", "subordinator-head-law", "self-consistency")
def _check_gsub_head(ctx):
    worst = 0.0
    for beta, u in ((0.3, 0.01), (0.5, 0.01), (0.7, 0.1)):
        g = float(stable_subordinator_density(beta, u))
        law = float(subordinator_small_u_law(beta, u))
        worst = max(worst, abs(g / law - 1.0))
    return worst < 0.05, f"max|density/law - 1| = {_num(worst)}", "< 0.05"


@_register("fracfun", "subordinator-tail-law", "self-consistency")
def _check_gsub_tail(ctx):
    worst = 0.0
    for beta in (0.5, 0.7):
        g = float(stable_subordinator_density(beta, 600.0))
        law = float(subordinator_tail_law(beta, 600.0))
        worst = max(worst, abs(g / law - 1.0))
    return worst < 0.01, f"max|density/law - 1| at u=600: {_num(worst)}", "< 0.01"


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@_register("quadrature", "semi-infinite-exponential", "closed-form")
def _check_quad_semiinf(ctx):
    val = quadrature.integrate_semi_infinite(lambda x: np.exp(-x), tol=1e-12)
    err = abs(val - 1.0)
    return err <= 1e-10, f"|int e^-x - 1| {_residual(err)}", "<= 1e-10"


@_register("quadrature", "adaptive-polynomial", "closed-form")
def _check_quad_poly(ctx):
    val = quadrature.adaptive_gauss(lambda x: x ** 7, 0.0, 1.0, tol=1e-13)
    err = abs(val - 0.125)
    return err <= 1e-12, f"|int x^7 - 1/8| {_residual(err)}", "<= 1e-12"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@_register("kernels", "stable-scaling-identities", "closed-form")
def _check_stable_scaling(ctx):
    # The sum is self-similar by construction, so closed forms carry the check:
    # Cauchy at alpha = 1 (a sum like any other) and p(t, 0) = Gamma(1 + 1/a) t^(-1/a) / pi.
    rng = ctx.rng("stable-scaling")
    worst = oracle = 0.0
    for _ in range(25):
        t, s, x = (float(v) for v in rng.uniform([0.1, 0.2, -4.0], [4.0, 3.0, 4.0]))
        for alpha in (1.5, 2.0):
            p = stable_density(alpha, 1.0, t, x)
            self_sim = t ** (-1.0 / alpha) * stable_density(
                alpha, 1.0, 1.0, x * t ** (-1.0 / alpha))
            joint = s ** (1.0 / alpha) * stable_density(
                alpha, 1.0, s * t, x * s ** (1.0 / alpha))
            scale = max(abs(p), 1e-12)
            worst = max(worst, abs(p - self_sim) / scale, abs(p - joint) / scale)
        cauchy = t / (math.pi * (t * t + x * x))
        oracle = max(oracle, abs(stable_density(1.0, 1.0, t, x) / cauchy - 1.0))
        for alpha in (1.5, 1.8):
            peak = math.gamma(1.0 + 1.0 / alpha) * t ** (-1.0 / alpha) / math.pi
            oracle = max(oracle, abs(stable_density(alpha, 1.0, t, 0.0) / peak - 1.0))
    return (worst <= 1e-8 and oracle <= 1e-10,
            f"scaling defect {_residual(worst)}, rel closed-form gap {_residual(oracle)}", "<= 1e-8; <= 1e-10")


@_register("kernels", "stable-two-sided-bounds", "self-consistency")
def _check_stable_bounds(ctx):
    spreads = []
    for alpha in (1.5, 1.8):
        ratios = []
        for t in np.geomspace(0.05, 5.0, 6):
            for x in np.geomspace(0.05, 20.0, 8):
                p = stable_density(alpha, 1.0, float(t), float(x))
                env = min(t ** (-1.0 / alpha), t / abs(x) ** (1.0 + alpha))
                ratios.append(p / env)
        ratios = np.array(ratios)
        spreads.append(float(ratios.max() / ratios.min()))
    worst = max(spreads)
    ok = worst < 10.0 and all(s > 0 for s in spreads)
    return ok, f"envelope ratio spread c2/c1 = {_num(worst)}", "< 10"


@_register("kernels", "l2-decay-law", "independent-oracle", criterion=3, budget=29.0)
def _check_l2_law(ctx):
    worst = 0.0
    for alpha, beta in ((2.0, 0.5), (2.0, 0.8), (1.5, 0.5)):
        p = ModelParams(alpha=alpha, beta=beta)
        cstar = green_l2_constant(p)
        for t in (0.05, 0.3, 0.4, 1.0, 2.0, 4.0):
            ratio = free_kernel_l2(p, t) / (cstar * t ** (-beta / alpha))
            worst = max(worst, abs(ratio - 1.0))
    return worst <= 1e-3, f"max|l2 ratio - 1| = {_num(worst)}", "<= 1e-3"


@_register("kernels", "l2-constant-frozen", "independent-oracle",
           golden="l2_constant:alpha=2;beta=0.5;d=1;nu=1")
def _check_l2_frozen(ctx, expected, tol):
    val = green_l2_constant(ModelParams(alpha=2.0, beta=0.5))
    err = abs(val - expected)
    return err <= tol, f"|C(2,0.5,1,1) - frozen| {_residual(err)}", f"<= {_num(tol)}"


@_register("kernels", "l2-constant-classical", "closed-form", criterion=3, budget=1.0,
           golden="l2_constant:alpha=2;beta=1;d=1;nu=1")
def _check_l2_classical(ctx, expected, tol):
    val = green_l2_constant(ModelParams(alpha=2.0, beta=1.0))
    err = abs(val - expected)
    return err <= tol, f"|C(2,1,1,1) - (8 pi)^-1/2| {_residual(err)}", f"<= {_num(tol)}"


@_register("kernels", "cross-representation", "self-consistency", criterion=4, budget=60.0)
def _check_cross_repr(ctx):
    es = ctx.eigen(2.0, 64)
    worst = 0.0
    for rng in (np.random.default_rng(202404), ctx.rng("cross-representation")):
        for _ in range(20):
            t = float(rng.uniform(0.05, 1.0))
            Gs = dirichlet_fractional_kernel(es, 0.5, t)
            Gb = dirichlet_kernel_subordination(es, 0.5, t)
            i, j = (int(v) for v in rng.integers(16, 48, 2))
            ref = max(abs(Gs[i, j]), 1e-30)
            worst = max(worst, abs(Gs[i, j] - Gb[i, j]) / ref)
    return worst <= 1e-5, f"max rel spectral-vs-subordination {_residual(worst)}", "<= 1e-5"


@_register("kernels", "bounded-by-free", "self-consistency", criterion=5, budget=30.0)
def _check_bounded_by_free(ctx):
    es = ctx.eigen(2.0, 64)
    p = ModelParams(alpha=2.0, beta=0.5)
    x = es.grid.nodes
    worst = -np.inf
    for t in (0.05, 0.2, 0.8):
        GB = dirichlet_fractional_kernel(es, 0.5, t)
        dist = np.abs(x[:, None] - x[None, :])
        Gfree = fractional_free_kernel(p, t, dist.ravel()).reshape(dist.shape)
        keep = Gfree > 1e-12
        worst = max(worst, float(np.max(GB[keep] / Gfree[keep] - 1.0)))
    return worst <= 0.01, f"max(G_B/G_free - 1) = {_num(worst)}", "<= 0.01"


@_register("kernels", "near-diagonal-floor", "self-consistency", criterion=5, budget=30.0)
def _check_floor(ctx):
    es = ctx.eigen(2.0, 64)
    C, t0 = estimate_floor_constant(es, 0.5, 2.0)
    ok = C > 0.0 and t0 > 0.0
    return ok, f"floor C = {_num(C)} up to t0 = {_num(t0)}", "C > 0"


@_register("kernels", "riesz-diagonal-golden", "closed-form", golden="riesz_diagonal:gamma=0.5;h=0.1")
def _check_riesz_diag(ctx, expected, tol):
    grid = SpaceGrid(R=1.0, n=20)   # h = 0.1
    M = riesz_kernel_matrix(grid, 0.5)
    err = abs(float(M[3, 3]) - expected)
    return err <= tol, f"|diag - golden| {_residual(err)}", f"<= {_num(tol)}"


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@_register("moments", "volterra-lambda-monotone", "definition")
def _check_volterra_monotone(ctx):
    es = ctx.eigen(2.0, 48)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5)
    pairs = [(lam, ls) for ls in (0.5, 1.0) for lam in (1.0, 2.0, 4.0)]
    # kappa = (lam l)^2, so lam l at l = 1 is the solve at (lam, l)
    fields = dict(zip(pairs, (f.logs[-1] for f in second_moment_white(
        p, es, u0, 1.0, 0.1, 96, lams=[lam * ls for lam, ls in pairs]))))
    worst = np.inf
    for ls in (0.5, 1.0):
        worst = min(worst, float(np.min(fields[(2.0, ls)] - fields[(1.0, ls)])),
                    float(np.min(fields[(4.0, ls)] - fields[(2.0, ls)])))
    for lam in (1.0, 2.0, 4.0):
        worst = min(worst, float(np.min(fields[(lam, 1.0)] - fields[(lam, 0.5)])))
    return worst >= 0.0, f"min log-moment increment = {_num(worst)}", ">= 0"


@_register("moments", "nt-self-convergence", "self-consistency")
def _check_nt_convergence(ctx):
    es = ctx.eigen(2.0, 48)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=5.0)
    a = second_moment_white(p, es, u0, 1.0, 0.1, 96).sup_log()
    b = second_moment_white(p, es, u0, 1.0, 0.1, 192).sup_log()
    white = abs(math.exp(b - a) - 1.0)
    es32 = ctx.eigen(2.0, 32)
    u0c = ctx.bump(es32)
    pc = ModelParams(alpha=2.0, beta=0.5, lam=5.0,
                     noise=NoiseModel(kind="riesz", gamma=0.5))
    ac = second_moment_colored(pc, es32, u0c, 1.0, 0.1, 96).sup_log()
    bc = second_moment_colored(pc, es32, u0c, 1.0, 0.1, 192).sup_log()
    colored = abs(math.exp(bc - ac) - 1.0)
    worst = max(white, colored)
    return worst < 0.02, f"sup-moment shift on nt doubling = {_num(worst)}", "< 0.02"


@_register("moments", "renewal-ml-resolvent", "independent-oracle", criterion=6, budget=5.0)
def _check_renewal_ml(ctx):
    f = renewal_volterra_solve(1.0, 1.0, 0.5, 1.0, 4096)
    keep = f.times >= 0.05
    ref = mittag_leffler(0.5, math.gamma(0.5) * f.times[keep] ** 0.5)
    rel = float(np.max(np.abs(f.values[keep] - ref) / ref))
    return rel <= 1e-5, f"max rel vs resolvent on t in [0.05,1]: {_num(rel)}", "<= 1e-5"


@_register("moments", "renewal-rate-ratio", "closed-form", criterion=6, budget=5.0)
def _check_renewal_ratio(ctx):
    rho = 0.5

    def late_rate(kappa):
        r = renewal_growth_exponent(kappa, rho)
        T = 24.0 / r
        f = renewal_volterra_solve(1.0, kappa, rho, T, 4096)
        w = f.times >= 0.5 * T
        return float(np.polyfit(f.times[w], np.log(f.values[w]), 1)[0])

    ratio = late_rate(4.0) / late_rate(1.0)
    dev = abs(ratio / 4.0 ** (1.0 / rho) - 1.0)
    return dev <= 0.05, f"rate ratio = {_num(ratio)} (target 16), rel dev {_residual(dev)}", "<= 0.05"


@_register("moments", "renewal-envelope-sandwich", "self-consistency")
def _check_renewal_sandwich(ctx):
    rho = 0.5
    r = renewal_growth_exponent(1.0, rho)
    T = 24.0 / r
    f = renewal_volterra_solve(1.0, 1.0, rho, T, 4096)
    late = f.times >= 0.6 * T
    drift = np.log(f.values[late]) - r * f.times[late]
    spread = float(drift.max() - drift.min())
    return spread <= 0.05, f"late-window envelope drift = {_num(spread)}", "<= 0.05"


def _envelope_fit(ctx, p, n, n_lams, exponent, lam_cut, solve):
    """Fit log sup M (T = 0.1, nt = 96) against lam^exponent for lam >= lam_cut;
    ``solve`` is the moment solver, which takes the whole lam grid at once."""
    es = ctx.eigen(2.0, n)
    u0 = ctx.bump(es)
    lams = np.geomspace(10.0, 1e4, n_lams)
    logs = np.array([f.sup_log() for f in solve(p, es, u0, 1.0, 0.1, 96, lams=lams)])
    z = lams ** exponent * 0.1
    top = lams >= lam_cut * (1.0 - 1e-9)
    c2, c1 = np.polyfit(z[top], logs[top], 1)
    resid = logs[top] - (c2 * z[top] + c1)
    rel = float(np.max(np.abs(resid)) / (logs.max() - logs.min()))
    return c2 > 0.0 and rel <= 1e-4, _num(c2), _num(rel)


@_register("moments", "white-growth-envelope", "self-consistency")
def _check_white_envelope(ctx):
    ok, rate, rel = _envelope_fit(
        ctx, ModelParams(alpha=2.0, beta=0.5), 48, 10, 8.0 / 3.0, 1e3, second_moment_white)
    return ok, f"log sup M vs lam^(8/3): rate {rate}, top-decade resid {rel}", "rate > 0; resid <= 1e-4"


@_register("moments", "colored-growth-envelope", "self-consistency")
def _check_colored_envelope(ctx):
    ok, rate, rel = _envelope_fit(
        ctx, ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel(kind="riesz", gamma=0.5)),
        32, 8, 16.0 / 7.0, 10 ** 2.5, second_moment_colored)
    return ok, f"log sup M vs lam^(16/7): rate {rate}, top resid {rel}", "rate > 0; resid <= 1e-4"


@_register("moments", "series-lemma-golden", "closed-form", criterion=10, budget=0.5,
           golden="lower_series:rho=1;theta=1")
def _check_series_golden(ctx, expected, tol):
    err = abs(lower_series(1.0, 1.0) - expected)
    return err <= tol, f"|S(1) - sum k^-k| {_residual(err)}", f"<= {_num(tol)}"


@_register("moments", "series-lemma-growth", "self-consistency", criterion=10, budget=0.5)
def _check_series_growth(ctx):
    rho = 0.5
    ratio = math.log(lower_series_log(1e6, rho)) / math.log(1e6)
    floor = 1.0 / rho - 0.15
    return ratio >= floor, f"loglog S / log theta at 1e6 = {_num(ratio)}", f">= {_num(floor)}"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@_register("simulate", "mc-determinism", "definition")
def _check_mc_determinism(ctx):
    es = ctx.eigen(2.0, 32)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=1.0)
    # two replicate chunks, so that threads=3 runs them concurrently
    cfg = SimConfig(nt=32, T=0.05, replicates=160, seed=ctx.seed)
    a = simulate_mild(p, es, u0, cfg)
    b = simulate_mild(p, es, u0, cfg)
    c = simulate_mild(p, es, u0, cfg, threads=3)
    same = (np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)
            and np.array_equal(a.mean, c.mean) and np.array_equal(a.stderr, c.stderr))
    return same, f"bitwise identical (repeat and threads=3): {same}", "exact"


@_register("simulate", "mc-zero-initial", "definition")
def _check_mc_zero(ctx):
    es = ctx.eigen(2.0, 32)
    p = ModelParams(alpha=2.0, beta=0.5, lam=3.0)
    cfg = SimConfig(nt=32, T=0.05, replicates=64, seed=ctx.seed)
    est = simulate_mild(p, es, np.zeros(32), cfg)
    worst = float(np.max(np.abs(est.mean)))
    return worst == 0.0, f"max |moment| from u0 = 0: {_num(worst)}", "= 0"


@_register("simulate", "mc-stderr-scaling", "self-consistency")
def _check_mc_stderr(ctx):
    es = ctx.eigen(2.0, 32)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=1.0)
    a = simulate_mild(p, es, u0, SimConfig(nt=48, T=0.05, replicates=256, seed=ctx.seed))
    b = simulate_mild(p, es, u0, SimConfig(nt=48, T=0.05, replicates=512, seed=ctx.seed))
    ratio = float(np.median(b.stderr[1:]) / np.median(a.stderr[1:]))
    target = 1.0 / math.sqrt(2.0)
    ok = abs(ratio / target - 1.0) <= 0.15
    return ok, f"stderr ratio on replicate doubling = {_num(ratio)}", f"{_num(target)} +- 15%"


@_register("simulate", "semigroup-positivity", "definition")
def _check_semigroup_positive(ctx):
    from .kernels import apply_semigroup
    es = ctx.eigen(2.0, 64)
    u0 = np.clip(ctx.bump(es) - 0.3, 0.0, None)
    worst = float(np.min(apply_semigroup(es, 0.5, np.array([0.01, 0.05, 0.2, 1.0]), u0)))
    return worst >= -1e-10, f"min deterministic part = {_num(worst)}", ">= -1e-10"


@_register("simulate", "mc-volterra-agreement", "independent-oracle", criterion=9, budget=300.0)
def _check_mc_volterra(ctx):
    es = ctx.eigen(2.0, 64)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=1.0)
    cfg = SimConfig(nt=128, T=0.1, replicates=2000, seed=ctx.seed)
    est = simulate_mild(p, es, u0, cfg, threads=ctx.threads)
    ref = second_moment_white(p, es, u0, 1.0, 0.1, 256).dense()[-1]
    probes = np.linspace(8, 55, 10).astype(int)
    z = np.abs(est.mean[-1, probes] - ref[probes]) / est.stderr[-1, probes]
    worst = float(z.max())
    return worst <= 3.0, f"max |z| at 10 probes = {_num(worst)}", "<= 3"


# ---------------------------------------------------------------------------
# excitation
# ---------------------------------------------------------------------------

def _white_fit(ctx):
    def build():
        es = ctx.eigen(2.0, 96)
        u0 = ctx.bump(es)
        p = ModelParams(alpha=2.0, beta=0.5)
        return excitation_sweep(p, es, u0, 0.1, np.geomspace(1e2, 1e6, 13), nt=192)
    return ctx.memo("white-fit", build)


@_register("excitation", "index-white", "closed-form", criterion=7, budget=600.0)
def _check_index_white(ctx):
    fit = _white_fit(ctx)
    ok = 2.40 <= fit.slope <= 2.93
    return ok, f"slope = {_num(fit.slope)} (theory {_num(fit.theory)})", "in [2.40, 2.93]"


@_register("excitation", "index-colored", "closed-form", criterion=8, budget=1200.0)
def _check_index_colored(ctx):
    es = ctx.eigen(2.0, 32)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel(kind="riesz", gamma=0.5))
    fit = excitation_sweep(p, es, u0, 0.1, np.geomspace(1e2, 1e5, 10), nt=192)
    ok = 2.01 <= fit.slope <= 2.56
    return ok, f"slope = {_num(fit.slope)} (theory {_num(fit.theory)})", "in [2.01, 2.56]"


@_register("excitation", "lambda-monotone-response", "definition")
def _check_lambda_monotone(ctx):
    fit = _white_fit(ctx)
    inc = float(np.min(np.diff(fit.log_values)))
    return inc > 0.0, f"min log E increment = {_num(inc)}", "> 0"


@_register("excitation", "window-shift-stability", "self-consistency")
def _check_window_shift(ctx):
    fit = _white_fit(ctx)
    x = np.log(fit.lambdas)
    y = np.log(fit.log_values)
    idx = np.flatnonzero(fit.fit_mask)
    shifted = np.concatenate([[idx[0] - 1], idx[:-1]])
    s2 = np.polyfit(x[shifted], y[shifted], 1)[0]
    delta = abs(float(s2) - fit.slope)
    return delta < 0.1, f"|slope shift| on window shift = {_num(delta)}", "< 0.1"


@_register("excitation", "backend-agreement", "self-consistency")
def _check_backend_agreement(ctx):
    es = ctx.eigen(2.0, 32)
    u0 = ctx.bump(es)
    p = ModelParams(alpha=2.0, beta=0.5)
    worst = 0.0
    # One derived seed per lambda cell: a shared seed would reuse the same
    # noise paths across cells, so a single unlucky draw fails the whole
    # window at once instead of averaging out.
    cell_seeds = ctx.rng("backend-agreement").integers(0, 2 ** 63, size=6)
    # Compare pointwise at probe nodes.  The replicate stderr is per node;
    # the squared field is strongly correlated across nodes, so no valid
    # stderr for the *integrated* energy can be assembled from it.  The
    # window stops at lam ~ 12: beyond that the squared field is so
    # intermittent that its sample stderr is unreliable at this budget.
    probes = np.linspace(5, 26, 6).astype(int)
    lams = np.geomspace(2.0, 12.0, 6)
    refs = [f.dense()[-1] for f in second_moment_white(p, es, u0, 1.0, 0.002, 768, lams=lams)]
    for lam, cell_seed, ref in zip(lams, cell_seeds, refs):
        cfg = SimConfig(nt=384, T=0.002, replicates=800, seed=int(cell_seed))
        est = simulate_mild(replace(p, lam=float(lam)), es, u0, cfg, threads=ctx.threads)
        z = (est.mean[-1][probes] - ref[probes]) / est.stderr[-1][probes]
        worst = max(worst, float(np.max(np.abs(z))))
    # 6 cells x 6 probes = 36 z-scores; 4.0 is the ~99.9% envelope for the
    # max of that many standard normals (measured max over 16 seeds: 3.46).
    return worst <= 4.0, f"max |z| at 6 probes, lam in [2, 12]: {_num(worst)}", "<= 4"


@_register("excitation", "beta-ordering", "self-consistency")
def _check_beta_ordering(ctx):
    es = ctx.eigen(2.0, 48)
    u0 = ctx.bump(es)
    lo = _white_fit(ctx).slope
    p = ModelParams(alpha=2.0, beta=0.8)
    hi = excitation_sweep(p, es, u0, 0.1, np.geomspace(1e2, 1e6, 13), nt=96).slope
    ok = hi > lo
    return ok, f"slope(beta=0.8) = {_num(hi)} vs slope(beta=0.5) = {_num(lo)}", "increasing in beta"


@_register("excitation", "index-formula-poles", "definition")
def _check_index_poles(ctx):
    val = theoretical_index(2.0, 0.5, 1, "white")
    ok = abs(val - 8.0 / 3.0) < 1e-12
    try:
        theoretical_index(1.0, 0.9, 2, "white")
        ok = False
    except DomainError:
        pass
    return ok, f"white(2, 0.5, d=1) = {_num(val)}; degenerate case raises", "= 8/3; DomainError"


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

@_register("cli", "config-round-trip", "definition")
def _check_config_roundtrip(ctx):
    from . import cli
    text = ("model.alpha = 2.0\nmodel.beta = 0.5\nmodel.lam = 1.5\n"
            "noise.kind = riesz\nnoise.gamma = 0.5\n"
            "grid.nx = 32\ngrid.nt = 64\nrun.seed = 3\n")
    cfg = cli.parse_config_text(text)
    again = cli.parse_config_text(cli.serialize_config(cfg))
    ok = cfg == again
    return ok, f"parse(serialize(parse(text))) == parse(text): {ok}", "equal"


@_register("cli", "csv-reproducibility-header", "definition")
def _check_csv_contract(ctx):
    from . import __version__, cli
    record = {"command": "excite", "flags": {"g": 'a,"b"'},
              "config": {"model.lam": 1.23456789, "run.seed": ctx.seed,
                         "sigma.slope": 1.00000001}}
    text = cli.csv_text(["lam", "value"], [[1.0, 2.0 / 3.0]], record)
    lines = text.split("\r\n")
    head = f"# fracstorm {__version__} "
    ok = (text.endswith("\r\n") and lines[0].startswith(head)
          and json.loads(lines[0][len(head):]) == record and lines[1] == "lam,value"
          and lines[2].startswith("1,0.6666666666666666"))
    return ok, f"line 1 reparses to the record exactly: {ok}", "equal"


CHECKS = tuple(_registry)
GROUPS = tuple(dict.fromkeys(check.group for check in CHECKS))


def run_validation(only=None, seed=0, threads=1):
    """Run the registered checks (optionally one group) and return results.

    An argument out of its domain raises DomainError, whose message starts
    with the argument's name, before any check runs.  A check that raises
    is reported as failed with the exception text; the suite always
    completes.
    """
    if only is not None and only not in GROUPS:
        raise DomainError(f"only must name a validation group, one of {', '.join(GROUPS)}; "
                          f"got {only!r}")
    ctx = CheckContext(seed=integer("seed", seed, 0, 2 ** 64 - 1),
                       threads=integer("threads", threads, 1))
    results = []
    for check in CHECKS:
        if only is not None and check.group != only:
            continue
        try:
            passed, measured, tolerance = check.fn(ctx)
        except Exception as exc:                       # noqa: BLE001
            passed, measured, tolerance = False, f"raised {type(exc).__name__}: {exc}", "n/a"
        results.append(CheckResult(group=check.group, name=check.name, passed=bool(passed),
                                   measured=str(measured), tolerance=str(tolerance),
                                   provenance=check.provenance))
    return results


def format_report(results, seed=0, only=None):
    """Render results as a fixed-width table; bytes depend only on inputs."""
    rows = [("status", "group", "check", "measured", "tolerance", "provenance")]
    for r in results:
        rows.append(("PASS" if r.passed else "FAIL", r.group, r.name,
                     r.measured, r.tolerance, r.provenance))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    lines = [
        "fracstorm validation report",
        f"seed={seed} scope={only if only is not None else 'all'}",
        "",
    ]
    sep = "  "
    for k, row in enumerate(rows):
        lines.append(sep.join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if k == 0:
            lines.append("-" * (sum(widths) + 2 * 5))
    n_pass = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append(f"{len(results)} checks: {n_pass} passed, {len(results) - n_pass} failed")
    return "\n".join(lines) + "\n"
