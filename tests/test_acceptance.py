"""End-to-end acceptance checks, one per shipped guarantee.

Each test computes its quantity from scratch, records a one-line PASS/FAIL
verdict (printed in the terminal summary), and asserts both the numerical
tolerance and the wall-clock budget.  References are closed forms or
independently frozen constants; no test shares intermediate results with
the code path it is checking.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gamma as _gamma

from conftest import TEST_THREADS
from fracstorm.excitation import excitation_sweep
from fracstorm.fracfun import (
    SampledFunction,
    caputo_derivative,
    fractional_integral,
    inverse_subordinator_density,
    mittag_leffler,
    stable_subordinator_density,
)
from fracstorm.kernels import (
    dirichlet_fractional_kernel,
    dirichlet_kernel_subordination,
    estimate_floor_constant,
    fractional_free_kernel,
    free_kernel_l2,
    green_l2_constant,
)
from fracstorm.moments import (
    lower_series,
    lower_series_log,
    renewal_growth_exponent,
    renewal_volterra_solve,
    second_moment_white,
)
from fracstorm.params import ModelParams, NoiseModel
from fracstorm.simulate import SimConfig, simulate_mild


def test_criterion_01_special_function_values(criterion):
    start = time.perf_counter()
    x = np.linspace(-5.0, 5.0, 201)
    exp_err = float(np.max(np.abs(mittag_leffler(1.0, x) - np.exp(x))))
    # beta = 1/2 closed forms: E_1/2(-1) = e erfc(1),
    # g_1/2(1) = e^(-1/4) / (2 sqrt(pi)), f_(E_1)(1) = e^(-1/4) / sqrt(pi)
    ml_err = abs(mittag_leffler(0.5, -1.0) - math.e * math.erfc(1.0))
    sub_err = abs(stable_subordinator_density(0.5, 1.0)
                  - math.exp(-0.25) / (2.0 * math.sqrt(math.pi)))
    inv_err = abs(inverse_subordinator_density(0.5, 1.0, 1.0)
                  - math.exp(-0.25) / math.sqrt(math.pi))
    elapsed = time.perf_counter() - start
    ok = (exp_err <= 1e-12 and ml_err <= 1e-10 and sub_err <= 1e-8
          and inv_err <= 1e-8 and elapsed < 1.0)
    detail = (f"exp reduction {exp_err:.2e}, ML(-1) {ml_err:.2e}, "
              f"subordinator {sub_err:.2e}, inverse {inv_err:.2e}, "
              f"{elapsed:.2f}s")
    assert criterion(1, "special-function values", ok, detail)


def test_criterion_02_derivative_inverts_integral(criterion):
    start = time.perf_counter()
    T = 2.0
    # Union of a cubic-graded and a uniform grid: the graded points resolve
    # the t^beta cusp at 0, the uniform points keep step sizes bounded later.
    aux = np.unique(np.concatenate([
        T * (np.arange(4097) / 4096.0) ** 3,
        np.linspace(0.0, T, 8193),
    ]))
    eval_ts = np.linspace(0.0, T, 513)[1:]
    funcs = {
        "1": lambda t: np.ones_like(t),
        "t": lambda t: t,
        "t^2": lambda t: t * t,
        "sin t": np.sin,
    }
    worst = 0.0
    for fn in funcs.values():
        g = SampledFunction(aux, fn(aux))
        for b in (0.3, 0.5, 0.8):
            integ = fractional_integral(g, b, aux[1:])
            lifted = SampledFunction(np.concatenate([[0.0], aux[1:]]),
                                     np.concatenate([[0.0], integ]))
            got = caputo_derivative(lifted, b, eval_ts)
            worst = max(worst, float(np.max(np.abs(got - fn(eval_ts)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    detail = f"max |D^b I^b g - g| = {worst:.3e} over 4 g x 3 b, {elapsed:.2f}s"
    assert criterion(2, "derivative inverts integral", ok, detail)


def test_criterion_03_free_kernel_l2_decay(criterion):
    start = time.perf_counter()
    worst = 0.0
    for alpha, beta in ((2.0, 0.5), (2.0, 0.8), (1.5, 0.5)):
        p = ModelParams(alpha=alpha, beta=beta)
        cstar = green_l2_constant(p)
        for t in (0.05, 0.4, 2.0):
            law = cstar * t ** (-beta * p.d / alpha)
            worst = max(worst, abs(free_kernel_l2(p, t) / law - 1.0))
    classical = green_l2_constant(ModelParams(alpha=2.0, beta=1.0))
    const_err = abs(classical - (8.0 * math.pi) ** -0.5)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and const_err <= 1e-6 and elapsed < 30.0
    detail = (f"max law deviation {worst:.2e} over 3 regimes x 3 t, "
              f"classical constant err {const_err:.2e}, {elapsed:.1f}s")
    assert criterion(3, "free-kernel L2 decay law", ok, detail)


def test_criterion_04_kernel_route_agreement(criterion, eigen_cache):
    start = time.perf_counter()
    es = eigen_cache(2.0, 64)
    rng = np.random.default_rng(202404)
    worst = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.05, 1.0))
        Gs = dirichlet_fractional_kernel(es, 0.5, t)
        Gb = dirichlet_kernel_subordination(es, 0.5, t)
        i, j = (int(v) for v in rng.integers(16, 48, 2))
        worst = max(worst, abs(Gs[i, j] - Gb[i, j]) / max(abs(Gs[i, j]), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60.0
    detail = f"max rel gap at 20 random (t, x, y): {worst:.2e}, {elapsed:.1f}s"
    assert criterion(4, "spectral vs subordination kernel", ok, detail)


def test_criterion_05_kernel_bounds(criterion, eigen_cache):
    start = time.perf_counter()
    es = eigen_cache(2.0, 64)
    p = ModelParams(alpha=2.0, beta=0.5)
    x = es.grid.nodes
    upper = -np.inf
    for t in (0.05, 0.2, 0.8):
        GB = dirichlet_fractional_kernel(es, 0.5, t)
        dist = np.abs(x[:, None] - x[None, :])
        Gfree = fractional_free_kernel(p, t, dist.ravel()).reshape(dist.shape)
        keep = Gfree > 1e-12
        upper = max(upper, float(np.max(GB[keep] / Gfree[keep] - 1.0)))
    C, t0, _ = estimate_floor_constant(es, 0.5, 2.0)
    elapsed = time.perf_counter() - start
    ok = upper <= 0.01 and C > 0.0 and t0 > 0.0 and elapsed < 60.0
    detail = (f"max(G_B/G_free - 1) = {upper:.3g}, near-diagonal floor "
              f"C = {C:.6g} valid up to t0 = {t0:.3g}, {elapsed:.1f}s")
    assert criterion(5, "domain kernel bounded by free kernel", ok, detail)


def test_criterion_06_renewal_solver(criterion):
    start = time.perf_counter()
    # Equality case: kernel weight kappa = 1 turns the inequality chain into
    # an identity with the resolvent E_rho(kappa Gamma(rho) t^rho).
    f = renewal_volterra_solve(1.0, 1.0, 0.5, 1.0, 4096)
    keep = f.times >= 0.05
    ref = mittag_leffler(0.5, _gamma(0.5) * f.times[keep] ** 0.5)
    rel = float(np.max(np.abs(f.values[keep] - ref) / ref))

    def late_rate(kappa):
        r = renewal_growth_exponent(kappa, 0.5)
        T = 24.0 / r
        g = renewal_volterra_solve(1.0, kappa, 0.5, T, 4096)
        w = g.times >= 0.5 * T
        return float(np.polyfit(g.times[w], np.log(g.values[w]), 1)[0])

    ratio = late_rate(4.0) / late_rate(1.0)
    ratio_dev = abs(ratio / 16.0 - 1.0)
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-5 and ratio_dev <= 0.05 and elapsed < 10.0
    detail = (f"resolvent rel err {rel:.2e} on t in [0.05, 1], "
              f"kappa 4-vs-1 rate ratio {ratio:.4g} (target 16), {elapsed:.1f}s")
    assert criterion(6, "renewal growth solver", ok, detail)


def test_criterion_07_white_noise_index(criterion, eigen_cache, bump):
    start = time.perf_counter()
    es = eigen_cache(2.0, 96)
    p = ModelParams(alpha=2.0, beta=0.5)
    fit = excitation_sweep(p, es, bump(es), 0.1, np.geomspace(1e2, 1e6, 13),
                           nt=192, threads=TEST_THREADS)
    elapsed = time.perf_counter() - start
    lo, hi = 2.40, 2.93  # theory 8/3, ten-percent band
    ok = lo <= fit.slope <= hi and elapsed < 600.0
    detail = (f"slope {fit.slope:.5f} vs theory {fit.theory:.5f}, "
              f"band [{lo}, {hi}], {elapsed:.1f}s")
    assert criterion(7, "white-noise excitation index", ok, detail)


def test_criterion_08_colored_noise_index(criterion, eigen_cache, bump):
    start = time.perf_counter()
    es = eigen_cache(2.0, 32)
    p = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel(kind="riesz", gamma=0.5))
    fit = excitation_sweep(p, es, bump(es), 0.1, np.geomspace(1e2, 1e5, 10),
                           nt=192, threads=TEST_THREADS)
    elapsed = time.perf_counter() - start
    lo, hi = 2.01, 2.56  # theory 16/7, ten-percent band
    ok = lo <= fit.slope <= hi and elapsed < 1200.0
    detail = (f"slope {fit.slope:.5f} vs theory {fit.theory:.5f}, "
              f"band [{lo}, {hi}], {elapsed:.1f}s")
    assert criterion(8, "colored-noise excitation index", ok, detail)


def test_criterion_09_montecarlo_matches_exact_moments(criterion, eigen_cache,
                                                       bump):
    start = time.perf_counter()
    es = eigen_cache(2.0, 64)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=1.0)
    cfg = SimConfig(nx=64, nt=128, T=0.1, replicates=2000, seed=0)
    est = simulate_mild(p, es, u0, cfg, threads=TEST_THREADS)
    ref = second_moment_white(p, es, u0, 1.0, 0.1, 256).dense()[-1]
    probes = np.linspace(8, 55, 10).astype(int)
    z = np.abs(est.mean[-1, probes] - ref[probes]) / est.stderr[-1, probes]
    worst = float(z.max())
    elapsed = time.perf_counter() - start
    ok = worst <= 3.0 and elapsed < 300.0
    detail = (f"max |z| over 10 probes = {worst:.3f} at 2000 replicates, "
              f"{elapsed:.1f}s")
    assert criterion(9, "Monte Carlo vs exact second moment", ok, detail)


def test_criterion_10_series_lower_bound(criterion):
    start = time.perf_counter()
    ref = math.fsum(k ** float(-k) for k in range(1, 61))
    val = lower_series(1.0, 1.0)
    sum_err = abs(val - ref)
    slope = math.log(lower_series_log(1e6, 0.5)) / math.log(1e6)
    elapsed = time.perf_counter() - start
    ok = sum_err <= 1e-10 and slope >= 1.85 and elapsed < 1.0
    detail = (f"S(1)|rho=1 err {sum_err:.2e} vs direct sum, "
              f"log-log slope at theta=1e6: {slope:.5f} >= 1.85, {elapsed:.2f}s")
    assert criterion(10, "series lower-bound growth", ok, detail)
