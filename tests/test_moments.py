"""Moment solvers: renewal equation, white/colored second moments, series bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma

from fracstorm.errors import DomainError, NumericsError
from fracstorm.excitation import excitation_sweep
from fracstorm.fracfun import mittag_leffler
from fracstorm.kernels import apply_semigroup
from fracstorm.moments import (
    MomentPlan,
    colored_lower_bound_series,
    initial_term_floor,
    lower_series,
    lower_series_log,
    renewal_growth_exponent,
    renewal_volterra_solve,
    second_moment_colored,
    second_moment_white,
)
from fracstorm.params import ModelParams, NoiseModel


def test_renewal_without_kernel_is_constant():
    f = renewal_volterra_solve(3.0, 0.0, 0.7, 2.0, 64)
    assert np.all(f.values == 3.0)


def test_renewal_exponential_case():
    # rho = 1 gives f' = kappa f, so f(t) = c1 exp(kappa t).
    f = renewal_volterra_solve(1.0, 2.0, 1.0, 3.0, 8192)
    exact = np.exp(2.0 * f.times)
    assert np.max(np.abs(f.values / exact - 1.0)) < 1e-6


def test_renewal_matches_resolvent_closed_form():
    # Equality case against c1 E_rho(kappa Gamma(rho) t^rho), away from the
    # startup cell where the product-integration error concentrates.
    rho, kappa = 0.5, 1.0
    f = renewal_volterra_solve(1.0, kappa, rho, 1.0, 1024)
    mask = f.times >= 0.05
    ref = np.array([mittag_leffler(rho, kappa * gamma(rho) * t ** rho)
                    for t in f.times[mask]])
    assert np.max(np.abs(f.values[mask] / ref - 1.0)) < 2e-4


def test_renewal_growth_exponent_values():
    assert renewal_growth_exponent(2.0, 1.0) == pytest.approx(2.0)
    assert renewal_growth_exponent(1.0, 0.5) == pytest.approx(math.pi, rel=1e-12)
    assert renewal_growth_exponent(4.0, 0.5) == pytest.approx(16.0 * math.pi,
                                                              rel=1e-12)


def test_renewal_rejects_bad_inputs():
    with pytest.raises(DomainError):
        renewal_volterra_solve(1.0, 1.0, -0.5, 1.0, 64)
    with pytest.raises(DomainError):
        renewal_volterra_solve(1.0, -1.0, 0.5, 1.0, 64)
    with pytest.raises(NumericsError):
        # Implicit newest-cell weight >= 1: kappa too large for this grid.
        renewal_volterra_solve(1.0, 1e9, 0.5, 1.0, 8)


def test_second_moment_without_noise_is_squared_semigroup(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=0.0)
    field = second_moment_white(p, es, u0, 1.0, 0.2, 64)
    dense = field.dense()
    for j, t in enumerate(field.times):
        det = u0 if t == 0.0 else apply_semigroup(es, 0.5, float(t), u0)
        assert np.max(np.abs(dense[j] - det ** 2)) < 1e-12


def test_second_moment_monotone_in_lambda(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    logs = []
    for lam in (1.0, 4.0, 16.0):
        p = ModelParams(alpha=2.0, beta=0.5, lam=lam)
        logs.append(second_moment_white(p, es, u0, 1.0, 0.1, 96).energy_log())
    assert logs[0] < logs[1] < logs[2]


def test_second_moment_time_grid_self_convergence(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=5.0)
    coarse = second_moment_white(p, es, u0, 1.0, 0.1, 96).energy_log()
    fine = second_moment_white(p, es, u0, 1.0, 0.1, 192).energy_log()
    assert abs(fine - coarse) < 0.02


def test_colored_two_point_symmetry_and_diagonal(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=2.0,
                    noise=NoiseModel("riesz", gamma=0.5))
    tp = second_moment_colored(p, es, u0, 1.0, 0.5, 0.1, 64)
    K = tp.values[-1]
    assert np.max(np.abs(K - K.T)) < 1e-10
    diag = tp.diagonal_field()
    assert np.all(diag.dense()[-1] >= 0.0)


def test_colored_moment_monotone_in_lambda(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    logs = []
    for lam in (1.0, 8.0):
        p = ModelParams(alpha=2.0, beta=0.5, lam=lam,
                        noise=NoiseModel("riesz", gamma=0.5))
        tp = second_moment_colored(p, es, u0, 1.0, 0.5, 0.1, 64)
        logs.append(tp.diagonal_field().energy_log())
    assert logs[0] < logs[1]


def test_sweep_with_one_plan_matches_planless_solves(eigen_cache, bump):
    # excitation_sweep builds one MomentPlan and shares it across lambda;
    # every lambda must give the bits of a solve that built its own plan.
    es = eigen_cache(2.0, 16)
    u0 = bump(es)
    lams = np.geomspace(1e2, 1e5, 10)
    white = ModelParams(alpha=2.0, beta=0.5)
    colored = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5))
    for p in (white, colored):
        fit = excitation_sweep(p, es, u0, 0.1, lams, nt=24)
        alone = []
        for lam in lams:
            q = replace(p, lam=float(lam))
            if p.noise.kind == "white":
                alone.append(second_moment_white(q, es, u0, 1.0, 0.1, 24).energy_log())
            else:
                alone.append(second_moment_colored(q, es, u0, 1.0, 0.5, 0.1, 24)
                             .diagonal_field().energy_log())
        assert np.array_equal(fit.log_values, alone)

    plan = MomentPlan.build(colored, es, u0, 0.1, 24)
    q = replace(colored, lam=30.0)
    shared = second_moment_colored(q, es, u0, 1.0, 0.5, 0.1, 24, plan=plan)
    own = second_moment_colored(q, es, u0, 1.0, 0.5, 0.1, 24)
    for name in ("values", "log_scale", "diag_logs"):
        assert np.array_equal(getattr(shared, name), getattr(own, name))


def test_plan_built_for_other_inputs_is_refused(eigen_cache, bump):
    es = eigen_cache(2.0, 16)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=10.0)
    plan = MomentPlan.build(p, es, u0, 0.1, 24)
    second_moment_white(p, es, u0, 1.0, 0.1, 24, plan=plan)
    with pytest.raises(DomainError, match="another T$"):
        second_moment_white(p, es, u0, 1.0, 0.2, 24, plan=plan)
    with pytest.raises(DomainError, match="another nt$"):
        second_moment_white(p, es, u0, 1.0, 0.1, 32, plan=plan)
    with pytest.raises(DomainError, match="another u0$"):
        second_moment_white(p, es, 2.0 * u0, 1.0, 0.1, 24, plan=plan)
    with pytest.raises(DomainError, match="another params$"):
        second_moment_white(replace(p, beta=0.6), es, u0, 1.0, 0.1, 24, plan=plan)
    with pytest.raises(DomainError, match="another es$"):
        second_moment_white(p, eigen_cache(2.0, 16, R=2.0), u0, 1.0, 0.1, 24, plan=plan)
    colored = replace(p, noise=NoiseModel("riesz", gamma=0.5))
    with pytest.raises(DomainError, match="another params$"):
        second_moment_colored(colored, es, u0, 1.0, 0.5, 0.1, 24, plan=plan)


def test_lower_series_small_argument_values():
    # S(1) at rho = 1 is sum k^-k; independent partial-sum oracle.
    direct = sum(k ** -float(k) for k in range(1, 60))
    assert lower_series(1.0, 1.0) == pytest.approx(direct, abs=1e-12)
    assert lower_series(0.0, 0.5) == 0.0


def test_lower_series_log_consistent_with_direct():
    for t, rho in ((0.5, 0.5), (3.0, 1.0), (40.0, 0.5)):
        assert lower_series_log(t, rho) == pytest.approx(
            math.log(lower_series(t, rho)), abs=1e-10)


def test_lower_series_log_growth_exponent():
    # log S(theta) ~ rho/e * theta^(1/rho), so loglog S / log theta -> 1/rho.
    # The peak index k* = theta^(1/rho)/e sets the summation cost, so the
    # smaller rho gets the smaller theta.
    for rho, theta in ((0.5, 1e6), (1.0, 1e8)):
        ratio = math.log(lower_series_log(theta, rho)) / math.log(theta)
        assert ratio > 1.0 / rho - 0.15


def test_colored_lower_bound_increases_with_lambda(eigen_cache, bump):
    p = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5))
    lo = colored_lower_bound_series(p, 0.5, 1.0, 1e2, 0.1, g_t=0.3)
    hi = colored_lower_bound_series(p, 0.5, 1.0, 1e4, 0.1, g_t=0.3)
    assert hi > lo
    # Doubling log-lambda quadruples.. the bound scales like theta^(1/eta)
    # with theta ~ lam^2; check the exponent between the two evaluations.
    eta = 1.0 - 0.5 * 0.5 / 2.0
    measured = (math.log(hi) - math.log(lo)) / (math.log(1e4) - math.log(1e2))
    assert measured == pytest.approx(2.0 / eta, rel=0.15)


def test_initial_term_floor_positive(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    val = initial_term_floor(es, 0.5, u0, 0.25, 0.1, 0.8)
    assert val > 0.0
