"""Moment solvers: renewal equation, white/colored second moments, series bounds."""

import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from fracstorm.errors import DomainError, NumericsError
from fracstorm.excitation import excitation_sweep
from fracstorm import fracfun
from fracstorm.fracfun import mittag_leffler, mittag_leffler_log, mode_decay
from fracstorm.kernels import apply_semigroup, dirichlet_fractional_kernel
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
from fracstorm.quadrature import fixed_panel_nodes


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


@pytest.mark.parametrize("bad", [
    dict(c1=math.nan), dict(c1=math.inf), dict(c1=-math.inf),
    dict(kappa=math.nan), dict(kappa=math.inf), dict(kappa=-math.inf),
    dict(rho=math.nan), dict(rho=math.inf), dict(rho=-math.inf), dict(rho=1.5),
    dict(T=math.nan), dict(T=math.inf), dict(T=-math.inf),
])
def test_renewal_rejects_non_finite_inputs(bad):
    args = dict(dict(c1=1.0, kappa=1.0, rho=0.5, T=1.0), **bad)
    with pytest.raises(DomainError):
        renewal_volterra_solve(args["c1"], args["kappa"], args["rho"], args["T"], 64)
    if "kappa" in bad or "rho" in bad:
        with pytest.raises(DomainError):
            renewal_growth_exponent(args["kappa"], args["rho"])


def _direct_renewal(c1, kappa, rho, T, nt):
    """Reference: the O(nt^2) product-integration loop, one node at a time.

    Every lag cell [m Delta, (m+1) Delta] weighs f at lag m by w_near[m] and
    at lag m+1 by w_far[m], exactly against the linear interpolant; the
    newest cell is implicit.
    """
    delta = T / nt
    f = np.empty(nt + 1)
    f[0] = c1
    m = np.arange(0, nt)
    a = m * delta
    b = (m + 1) * delta
    I0 = (b ** rho - a ** rho) / rho
    I1 = (b ** (rho + 1.0) - a ** (rho + 1.0)) / (rho + 1.0)
    w_far = (I1 - a * I0) / delta
    w_near = I0 - w_far
    for j in range(1, nt + 1):
        acc = kappa * w_far[0] * f[j - 1]
        if j > 1:
            lag = np.arange(1, j)
            acc += kappa * float(w_near[lag] @ f[j - lag] + w_far[lag] @ f[j - lag - 1])
        f[j] = (c1 + acc) / (1.0 - kappa * w_near[0])
    return f


@pytest.mark.parametrize("kappa", [0.2, 2.0])
@pytest.mark.parametrize("nt", [2, 5, 63, 64, 65, 1000, 4096])
@pytest.mark.parametrize("rho", [0.2, 0.5, 0.97, 1.0])
def test_renewal_matches_direct_product_integration(rho, nt, kappa):
    # Up to about e^3 of growth: T is cut to 3 / (growth-rate scale) where
    # that is below 1, so the large kappa still fits the coarsest grid.
    T = min(1.0, 3.0 / renewal_growth_exponent(kappa, rho))
    f = renewal_volterra_solve(1.5, kappa, rho, T, nt)
    ref = _direct_renewal(1.5, kappa, rho, T, nt)
    assert np.max(np.abs(f.values / ref - 1.0)) <= 1e-12


def test_renewal_overflow_raises():
    # f grows like e^(pi t); e^(300 pi) is beyond the double range
    with pytest.raises(NumericsError):
        renewal_volterra_solve(1.0, 1.0, 0.5, 300.0, 4096)


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
    tp = second_moment_colored(p, es, u0, 1.0, 0.1, 64)
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
        tp = second_moment_colored(p, es, u0, 1.0, 0.1, 64)
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
                alone.append(second_moment_colored(q, es, u0, 1.0, 0.1, 24)
                             .diagonal_field().energy_log())
        assert np.array_equal(fit.log_values, alone)

    plan = MomentPlan.build(colored, es, u0, 0.1, 24)
    q = replace(colored, lam=30.0)
    shared = second_moment_colored(q, es, u0, 1.0, 0.1, 24, plan=plan)
    own = second_moment_colored(q, es, u0, 1.0, 0.1, 24)
    for name in ("values", "log_scale", "diag_logs"):
        assert np.array_equal(getattr(shared, name), getattr(own, name))


def test_plan_tables_match_per_node_kernels(eigen_cache, bump):
    # The white tables are built from kernel calls on chunks of whole lag
    # cells, the colored ones from one mode_decay call on all midpoints; the
    # reference is one call per node.  At n = 32 a white chunk holds 42 cells,
    # so nt = 300 crosses chunk edges; the colored lags sample both ends and
    # the middle of the table.  Each modal value of the two routes agrees to
    # 2e-13 (test_kernels' DECAY_RTOL twice); a kernel entry then to
    # delta = 2e-13 + n ulp of its absolute modal sum A, a squared entry to
    # 3 delta A^2, a product e_i e_k to 4e-13 + 1 ulp of itself.
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    n, h, nt, T = es.grid.n, es.grid.h, 300, 0.1
    delta = 2e-13 + n * 2.0 ** -52

    def absolute(t):
        return (np.abs(es.phi) * mode_decay(es.mu, 0.5, t)) @ np.abs(es.phi).T

    white = MomentPlan.build(ModelParams(alpha=2.0, beta=0.5), es, u0, T, nt)
    nodes, weights = fixed_panel_nodes(T / nt * np.arange(1, nt + 1), n=6)
    for m in (1, 41, 42, 43, 84, 85, nt - 1):
        q = slice(6 * (m - 1), 6 * m)
        ref = h * sum(w * dirichlet_fractional_kernel(es, 0.5, t) ** 2
                      for t, w in zip(nodes[q], weights[q]))
        size = h * sum(w * absolute(t) ** 2 for t, w in zip(nodes[q], weights[q]))
        assert np.all(np.abs(white.history[:, m] - ref) <= 3 * delta * size), m
    colored = MomentPlan.build(
        ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5)),
        es, u0, T, nt)
    for m in (1, 255, 256, 257, nt - 1):
        ref = np.outer(*2 * [mode_decay(es.mu, 0.5, (m + 0.5) * T / nt)])
        assert np.all(np.abs(colored.history[m] - ref) <= (4e-13 + 2.0 ** -52) * ref), m
    assert not white.history[:, 0].any() and not colored.history[0].any()


def test_white_plan_build_leaves_only_the_closure_on_mittag_leffler(
        monkeypatch, eigen_cache, bump):
    # A structural guard, no clock: the tables evaluate their mode decay with
    # fracfun.mode_decay, so a white build at backend-agreement's size
    # (n = 32, nt = 768) hands mittag_leffler only the 32 n newest-cell
    # closure points.  When every table point was a Mittag-Leffler
    # quadrature, the build passed it 172,864 points.
    points = []
    original = fracfun.mittag_leffler

    def counting(beta, x):
        points.append(np.size(x))
        return original(beta, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("fracstorm") and getattr(module, "mittag_leffler", None) is original:
            monkeypatch.setattr(module, "mittag_leffler", counting)
    es = eigen_cache(2.0, 32)
    MomentPlan.build(ModelParams(alpha=2.0, beta=0.5), es, bump(es), 0.002, 768)
    assert 0 < sum(points) <= 32 * es.grid.n, points


def test_colored_solve_makes_no_kernel_matrix(monkeypatch, eigen_cache, bump):
    # A structural guard, no clock: the colored history lives in
    # eigencoordinates, so a plan build and a solve at colored-sweep's size
    # (n = 32, nt = 192) form no physical kernel matrix at any lag.
    calls = []
    original = dirichlet_fractional_kernel

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("fracstorm")
                and getattr(module, "dirichlet_fractional_kernel", None) is original):
            monkeypatch.setattr(module, "dirichlet_fractional_kernel", counting)
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=30.0, noise=NoiseModel("riesz", gamma=0.5))
    plan = MomentPlan.build(p, es, u0, 0.1, 192)
    second_moment_colored(p, es, u0, 1.0, 0.1, 192, plan=plan)
    assert calls == []


def _direct_white(plan, kappa):
    """Reference: the white stepper with the direct per-lag contraction.

    Every step sums S[m] @ mid over the lag cells m = 1..j-1, one gemv per
    cell, with S[m] = plan.history[:, m] and the pair midpoints
    sqrt(v_{p+1} v_p) framed by the largest pair-mean log scale so far; the
    newest cell is the scalar renewal closure.  Returns the per-node logs,
    as the solver's node_logs, or raises NumericsError at the first step
    whose log slice is not finite.
    """
    nt = plan.nt
    S = np.ascontiguousarray(plan.history.transpose(1, 0, 2))
    z = kappa * gamma(plan.eta) * plan.eta * plan.cell_mass
    ln_fac = mittag_leffler_log(plan.eta, np.maximum(z, 0.0))
    source = plan.det * plan.det
    values = source / source[0].max()
    log_scale = np.full(nt + 1, math.log(source[0].max()))
    logs = np.log(source)
    mids = np.empty((nt, plan.es.grid.n))
    pair_logs = np.empty(nt)
    frame = 0.0
    for j in range(1, nt + 1):
        hist = source[j] * math.exp(-frame)
        if j > 1:
            scale = np.exp(pair_logs[j - 2::-1] - frame)
            hist = hist + kappa * (S[1:j] @ (mids[j - 2::-1] * scale[:, None])[..., None]
                                   ).sum(axis=0)[:, 0]
        with np.errstate(divide="ignore"):
            w = np.log(hist) + ln_fac
        if not np.isfinite(w.max()):
            raise NumericsError(f"moment solver overflowed at step {j}")
        logs[j] = w + frame
        values[j] = np.exp(w - w.max())
        log_scale[j] = frame + w.max()
        mids[j - 1] = np.sqrt(values[j] * values[j - 1])
        pair_logs[j - 1] = 0.5 * (log_scale[j] + log_scale[j - 1])
        frame = max(frame, pair_logs[j - 1])
    return logs


@pytest.mark.parametrize("lam", [1.0, 30.0, 1e4])
@pytest.mark.parametrize("nt", [24, 33, 37, 192])
def test_blocked_white_stepper_matches_direct_lag_sum(eigen_cache, bump, nt, lam):
    # The stepper sums the history in blocks of 16 steps: nt = 24 ends in a
    # partial block of 8 steps, 33 in a block of one step, 37 in one of 5,
    # and 192 (the white-sweep grid) is twelve full blocks.  Bound, set
    # beforehand: both routes add the same nonnegative products, in another
    # order (one gemm over the older cells and one gemv over the in-block
    # ones, against one gemv per cell), so a step's history sums differ by a
    # few ulp of themselves, which later steps carry forward through positive
    # combinations; log M then differs by about that relative error, plus an
    # ulp of |log M| from the log and the frame.  1e-12 leaves room for
    # 192 steps of it; measured: at most 8.9e-16.
    es = eigen_cache(2.0, 64)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam)
    plan = MomentPlan.build(p, es, u0, 0.1, nt)
    got = second_moment_white(p, es, u0, 1.0, 0.1, nt, plan=plan).node_logs
    ref = _direct_white(plan, lam ** 2)
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))


@pytest.mark.parametrize("lam, step", [(4e153, 28), (5e153, 18)])
def test_blocked_white_overflow_raises_at_the_direct_step(eigen_cache, bump, lam, step):
    # With beta = 0.02 the closure raises the log scale by ~2e306 or more a
    # step, so it passes the double range inside the second block (steps
    # 17..32 of 37) and the next step's frame turns the slice into NaN; the
    # blocked stepper must stop at the step where the direct one does.
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.02, lam=lam)
    plan = MomentPlan.build(p, es, u0, 0.1, 37)
    match = f"overflowed at step {step}$"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match=match):
            _direct_white(plan, lam ** 2)
        with pytest.raises(NumericsError, match=match):
            second_moment_white(p, es, u0, 1.0, 0.1, 37, plan=plan)


def _sandwich_colored(plan, kappa):
    """Reference: the two-point stepper with the physical kernel sandwich.

    Every step sums h^2 Delta Gmid[m] (Cbar * mid) Gmid[m]^T over the lag
    cells m = 1..j-1, one pair of n x n x n products per cell, with Gmid[m]
    the clipped kernel at the cell's midpoint lag.  Pair midpoints are
    sqrt(v_{p+1} v_p) framed by the largest pair-mean log scale so far; the
    newest cell is the scalar renewal closure.  Returns (values, log_scale,
    logs), as the solver's stepper does.
    """
    es, nt = plan.es, plan.nt
    delta = plan.T / nt
    G = dirichlet_fractional_kernel(es, plan.params.beta, (np.arange(1, nt) + 0.5) * delta)
    z = kappa * gamma(plan.eta) * plan.eta * plan.cell_mass
    ln_fac = mittag_leffler_log(plan.eta, np.maximum(z, 0.0).ravel()).reshape(z.shape)
    source = plan.det[:, :, None] * plan.det[:, None, :]
    values = source / source[0].max()
    log_scale = np.full(nt + 1, math.log(source[0].max()))
    logs = np.log(source)
    for j in range(1, nt + 1):
        pair_logs = [0.5 * (log_scale[p + 1] + log_scale[p]) for p in range(j - 1)]
        frame = max([0.0] + pair_logs)
        H = np.zeros(z.shape)
        for m in range(1, j):
            p = j - 1 - m
            mid = np.sqrt(values[p + 1] * values[p]) * math.exp(pair_logs[p] - frame)
            H += G[m - 1] @ (plan.riesz * mid) @ G[m - 1].T
        hist = source[j] * math.exp(-frame) + kappa * es.grid.h ** 2 * delta * 0.5 * (H + H.T)
        with np.errstate(divide="ignore"):
            w = np.log(hist) + ln_fac
        logs[j] = w + frame
        values[j] = np.exp(w - w.max())
        log_scale[j] = frame + w.max()
    return values, log_scale, logs


@pytest.mark.parametrize("lam", [1.0, 30.0, 1e3])
@pytest.mark.parametrize("n", [16, 32])
def test_colored_solve_matches_physical_sandwich(eigen_cache, bump, n, lam):
    # Bound, a priori: a step's two routes sum the same positive history
    # with at most four n-term products each, so they differ by at most
    # 4 n u relative (u = 2^-53); a step carries the earlier slices' errors
    # forward through a positive combination, so after nt steps r = nt 4 n u
    # (4.5e-13 at n = 16, 9.1e-13 at n = 32).  Each route rounds a log (and
    # a log scale) to half an ulp once more, 2^-52 |log| between the two.
    es = eigen_cache(2.0, n)
    u0 = bump(es)
    nt = 64
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam, noise=NoiseModel("riesz", gamma=0.5))
    plan = MomentPlan.build(p, es, u0, 0.1, nt)
    got = second_moment_colored(p, es, u0, 1.0, 0.1, nt, plan=plan)
    values, log_scale, logs = _sandwich_colored(plan, lam ** 2)
    r = nt * 4 * n * 2.0 ** -53
    ref = np.diagonal(logs, axis1=1, axis2=2)
    assert np.array_equal(np.isinf(got.diag_logs), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got.diag_logs[finite] - ref[finite])
                  <= r + 2.0 ** -52 * np.abs(ref[finite]))
    # values * exp(log_scale), in units of the oracle's slice maximum (1)
    dense = got.values * np.exp(got.log_scale - log_scale)[:, None, None]
    err = np.abs(dense - values).max(axis=(1, 2))
    assert np.all(err <= r + 2.0 ** -52 * np.abs(log_scale)), err


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
        second_moment_colored(colored, es, u0, 1.0, 0.1, 24, plan=plan)


def test_lower_series_small_argument_values():
    # S(1) at rho = 1 is sum k^-k; independent partial-sum oracle.
    direct = sum(k ** -float(k) for k in range(1, 60))
    assert lower_series(1.0, 1.0) == pytest.approx(direct, abs=1e-12)
    assert lower_series(0.0, 0.5) == 0.0


def test_lower_series_log_consistent_with_direct():
    for t, rho in ((0.5, 0.5), (3.0, 1.0), (40.0, 0.5)):
        assert lower_series_log(t, rho) == pytest.approx(
            math.log(lower_series(t, rho)), abs=1e-10)


_RIESZ = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: lower_series(1.0, v), lambda v: lower_series(v, 0.5),
    lambda v: lower_series_log(1.0, v), lambda v: lower_series_log(v, 0.5),
    lambda v: colored_lower_bound_series(replace(_RIESZ, lam=v), 1.0, 0.1, g_t=0.3),
    lambda v: colored_lower_bound_series(_RIESZ, v, 0.1, g_t=0.3),
    lambda v: colored_lower_bound_series(replace(_RIESZ, lam=1e2), 1.0, v, g_t=0.3),
], ids=["S-rho", "S-t", "logS-rho", "logS-t", "colored-lam", "colored-l", "colored-t"])
def test_series_lemma_refuses_non_finite_arguments(call, bad):
    # no silent NaN, no ValueError from int(inf), no 1e7-term loop
    with pytest.raises(DomainError):
        call(bad)


def test_series_lemma_refuses_windows_past_exact_doubles():
    # k* = t^(1/rho)/e = 1e600/e is past float range: DomainError, not OverflowError
    with pytest.raises(DomainError, match="2\\^53"):
        lower_series_log(1e300, 0.5)
    with pytest.raises(DomainError, match="2\\^53"):
        lower_series(1e300, 0.5)
    # theta = lam^2 c1 t^eta ~ 4e20 puts k* near 1e23, past 2^53
    with pytest.raises(DomainError, match="2\\^53"):
        colored_lower_bound_series(replace(_RIESZ, lam=1e12), 1.0, 0.1, g_t=0.3)


@pytest.mark.parametrize("t, rho", [(1.0, 1.0), (10.0, 0.5), (20.0, 0.5)])
def test_lower_series_matches_30_digit_reference(t, rho):
    with mpmath.workdps(30):
        ref = mpmath.nsum(lambda k: (mpmath.mpf(t) / k ** mpmath.mpf(rho)) ** k,
                          [1, mpmath.inf])
        assert abs(lower_series(t, rho) - ref) / ref <= 1e-13


def test_lower_series_log_growth_exponent():
    # log S(theta) ~ rho/e * theta^(1/rho), so loglog S / log theta -> 1/rho.
    # The peak index k* = theta^(1/rho)/e sets the summation cost, so the
    # smaller rho gets the smaller theta.
    for rho, theta in ((0.5, 1e6), (1.0, 1e8)):
        ratio = math.log(lower_series_log(theta, rho)) / math.log(theta)
        assert ratio > 1.0 / rho - 0.15


def test_colored_lower_bound_increases_with_lambda(eigen_cache, bump):
    lo = colored_lower_bound_series(replace(_RIESZ, lam=1e2), 1.0, 0.1, g_t=0.3)
    hi = colored_lower_bound_series(replace(_RIESZ, lam=1e4), 1.0, 0.1, g_t=0.3)
    assert hi > lo
    # Doubling log-lambda quadruples.. the bound scales like theta^(1/eta)
    # with theta ~ lam^2; check the exponent between the two evaluations.
    eta = 1.0 - 0.5 * 0.5 / 2.0
    measured = (math.log(hi) - math.log(lo)) / (math.log(1e4) - math.log(1e2))
    assert measured == pytest.approx(2.0 / eta, rel=0.15)


def test_colored_lower_bound_reads_gamma_and_lambda_from_params():
    base = colored_lower_bound_series(replace(_RIESZ, lam=1e2), 1.0, 0.1, g_t=0.3)
    # lam l is the coupling, and a larger gamma lowers eta = 1 - gamma beta / alpha
    assert colored_lower_bound_series(replace(_RIESZ, lam=50.0), 2.0, 0.1, g_t=0.3) == base
    other = replace(_RIESZ, lam=1e2, noise=NoiseModel("riesz", gamma=0.9))
    assert colored_lower_bound_series(other, 1.0, 0.1, g_t=0.3) != base
    with pytest.raises(DomainError, match="riesz"):
        colored_lower_bound_series(ModelParams(alpha=2.0, beta=0.5, lam=1e2), 1.0, 0.1,
                                   g_t=0.3)


def test_initial_term_floor_positive(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    val = initial_term_floor(es, 0.5, u0, 0.25, 0.1, 0.8)
    assert val > 0.0
