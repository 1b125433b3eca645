"""Moment solvers: renewal equation, white/colored second moments, the lower-bound series."""

import math
import re
import sys
import time
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from fracstorm.errors import DomainError, NumericsError
from fracstorm.excitation import excitation_sweep
from fracstorm import fracfun
from fracstorm.fracfun import mittag_leffler, mittag_leffler_log, mode_decay
from fracstorm.kernels import EigenSystem, apply_semigroup, dirichlet_fractional_kernel
from fracstorm.moments import (
    MomentField,
    MomentPlan,
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kappa, rho", [(1e300, 0.1), (1e31, 0.1), (1e300, 1e-10)])
def test_renewal_growth_exponent_past_the_double_range_raises(kappa, rho):
    with pytest.raises(NumericsError, match="double range"):
        renewal_growth_exponent(kappa, rho)
    # just inside the range the scale is returned, still without a warning
    assert renewal_growth_exponent(1e29, 0.1) == pytest.approx(
        (gamma(0.1) * 1e29) ** 10, rel=1e-12)


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


def test_dense_moment_past_the_double_range_is_an_error(eigen_cache, bump):
    # at lam = 1e3 log M reaches 1.21e6; exp of it was a silent inf
    es = eigen_cache(2.0, 16)
    field = second_moment_white(ModelParams(alpha=2.0, beta=0.5, lam=1e3), es, bump(es),
                                1.0, 0.1, 32)
    with pytest.raises(NumericsError, match=r"^log M reaches 1\.21149e\+06, past the double"):
        field.dense()
    # the double range ends at log M = 709.7827
    edge = MomentField(times=np.zeros(1), grid=es.grid, logs=np.full((1, 16), 709.78))
    assert np.all(np.isfinite(edge.dense()))
    with pytest.raises(NumericsError, match="709.79, past"):
        replace(edge, logs=np.full((1, 16), 709.79)).dense()


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
    # The solve returns the diagonal M(t, x) = K(t; x, x) of the two-point
    # function, nonnegative; u0 and the Riesz covariance are even in x, and
    # the eigenvectors even or odd, so M is even in x up to rounding.
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=2.0,
                    noise=NoiseModel("riesz", gamma=0.5))
    field = second_moment_colored(p, es, u0, 1.0, 0.1, 64)
    assert field.logs.shape == (65, 32)
    M = field.dense()
    assert np.all(M >= 0.0)
    assert np.max(np.abs(M - M[:, ::-1])) <= 1e-10 * M.max()


def test_colored_moment_monotone_in_lambda(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    logs = []
    for lam in (1.0, 8.0):
        p = ModelParams(alpha=2.0, beta=0.5, lam=lam,
                        noise=NoiseModel("riesz", gamma=0.5))
        logs.append(second_moment_colored(p, es, u0, 1.0, 0.1, 64).energy_log())
    assert logs[0] < logs[1]


def test_sweep_with_one_plan_matches_planless_solves(eigen_cache, bump):
    # excitation_sweep hands its grid to one solver call, which builds one
    # MomentPlan for every lambda; each lambda must give the bits of a solve
    # of its own.
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
                alone.append(second_moment_colored(q, es, u0, 1.0, 0.1, 24).energy_log())
        assert np.array_equal(fit.log_values, alone)


def test_plan_tables_match_per_node_kernels(eigen_cache, bump):
    # The white parity blocks are built from mode_decay on chunks of whole
    # lag cells, the colored tables from one mode_decay call on all
    # midpoints; the reference is one kernel call per node, S[m] folded by
    # the reflection J: (S + S J)[:c, :c] and (S - S J)[:f, :f].  At n = 32
    # a white chunk holds 42 cells, so nt = 300 crosses chunk edges; the
    # colored lags sample both ends and the middle of the table.  Each modal
    # value of the two routes agrees to 2e-13 (test_kernels' DECAY_RTOL
    # twice); a kernel entry then to delta = 2e-13 + n ulp of its absolute
    # modal sum A, a squared entry to 3 delta A^2, a sum or difference of two
    # to 3 delta of their A^2 sum, a product e_i e_k to 4e-13 + 1 ulp of itself.
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    n, h, nt, T = es.grid.n, es.grid.h, 300, 0.1
    delta = 2e-13 + n * 2.0 ** -52

    def absolute(t):
        return (np.abs(es.phi) * mode_decay(es.mu, 0.5, t)) @ np.abs(es.phi).T

    white = MomentPlan.build(ModelParams(alpha=2.0, beta=0.5), es, u0, T, nt)
    even, odd = white.history
    assert even.shape == odd.shape == (n // 2, nt, n // 2)
    nodes, weights = fixed_panel_nodes(T / nt * np.arange(1, nt + 1), n=6)
    for m in (1, 41, 42, 43, 84, 85, nt - 1):
        q = slice(6 * (m - 1), 6 * m)
        ref = h * sum(w * dirichlet_fractional_kernel(es, 0.5, t) ** 2
                      for t, w in zip(nodes[q], weights[q]))
        size = h * sum(w * absolute(t) ** 2 for t, w in zip(nodes[q], weights[q]))
        for table, sign in ((even, 1.0), (odd, -1.0)):
            k = len(table)
            folded = (ref + sign * ref[:, ::-1])[:k, :k]
            bound = 3 * delta * (size + size[:, ::-1])[:k, :k]
            assert np.all(np.abs(table[:, m] - folded) <= bound), (m, sign)
    colored = MomentPlan.build(
        ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5)),
        es, u0, T, nt)
    # the colored table holds the upper triangle of each outer product,
    # packed in np.triu_indices order
    assert colored.history.shape == (nt, n * (n + 1) // 2)
    upper = np.triu_indices(n)
    for m in (1, 255, 256, 257, nt - 1):
        ref = np.outer(*2 * [mode_decay(es.mu, 0.5, (m + 0.5) * T / nt)])[upper]
        assert np.all(np.abs(colored.history[m] - ref) <= (4e-13 + 2.0 ** -52) * ref), m
    assert not even[:, 0].any() and not odd[:, 0].any() and not colored.history[0].any()


@pytest.mark.parametrize("alpha", [2.0, 1.5])
@pytest.mark.parametrize("n", [32, 33])
def test_white_plan_accepts_the_modes_of_eigen_system(eigen_cache, bump, alpha, n):
    # Interval, cell-centred grid and generator are symmetric under x -> -x,
    # so every eigenvector is even or odd: h sum phi_k(x) phi_k(-x) = +-1.
    es = eigen_cache(alpha, n)
    parity = es.grid.h * np.einsum("xk,xk->k", es.phi, es.phi[::-1])
    assert np.all(np.abs(np.abs(parity) - 1.0) <= 1e-8)
    plan = MomentPlan.build(ModelParams(alpha=alpha, beta=0.5), es, bump(es), 0.1, 4)
    c, f = (n + 1) // 2, n // 2
    assert [t.shape for t in plan.history] == [(c, 4, c), (f, 4, f)]


def test_white_plan_refuses_modes_without_parity(eigen_cache, bump):
    # Rotating two modes of opposite parity into each other keeps the basis
    # orthonormal but leaves both columns neither even nor odd.
    es = eigen_cache(2.0, 32)
    phi = es.phi.copy()
    phi[:, 3], phi[:, 4] = (es.phi[:, 3] + es.phi[:, 4]) / math.sqrt(2.0), \
        (es.phi[:, 3] - es.phi[:, 4]) / math.sqrt(2.0)
    mixed = EigenSystem(mu=es.mu, phi=phi, grid=es.grid)
    with pytest.raises(NumericsError, match="^mode 3 is neither even nor odd"):
        MomentPlan.build(ModelParams(alpha=2.0, beta=0.5), mixed, bump(es), 0.1, 24)


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
    # eigencoordinates, so a solve at colored-sweep's size (n = 32, nt = 192),
    # its plan build included, forms no physical kernel matrix at any lag.
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
    second_moment_colored(p, es, u0, 1.0, 0.1, 192)
    assert calls == []


def _lag_tables(plan, beta):
    """S[m] = h int G(tau)^2 over lag cell m (S[0] zero), by 6-point
    Gauss-Legendre on each cell with kernels from dirichlet_fractional_kernel,
    192 nodes a call: the full n x n tables, no parity."""
    es, nt, n = plan.es, plan.nt, plan.es.grid.n
    nodes, weights = fixed_panel_nodes(plan.T / nt * np.arange(1, nt + 1), n=6)
    S = np.zeros((nt, n, n))
    for q in range(0, nodes.size, 192):
        G = dirichlet_fractional_kernel(es, beta, nodes[q:q + 192])
        cells = (weights[q:q + 192, None, None] * G * G).reshape(-1, 6, n, n).sum(axis=1)
        S[1 + q // 6:1 + (q + 192) // 6] = es.grid.h * cells
    return S


@pytest.fixture(scope="module")
def lag_tables():
    """``_lag_tables`` once per eigen system, beta, T and nt for this module:
    its eigen systems come from the session's eigen_cache, so an id names one."""
    memo = {}

    def tables(plan, beta):
        key = (id(plan.es), float(beta), plan.T, plan.nt)
        if key not in memo:
            memo[key] = _lag_tables(plan, beta)
        return memo[key]
    return tables


def _direct_white(plan, kappa, S):
    """Reference: the white stepper with the direct per-lag contraction.

    Every step sums S[m] @ mid over the lag cells m = 1..j-1, one gemv per
    cell, with S[m] the full table S of ``_lag_tables`` and the pair midpoints
    sqrt(v_{p+1} v_p) framed by the largest pair-mean log scale so far; the
    newest cell is the scalar renewal closure.  Log scales and pair means
    are added in Python floats, halves first, so no finite pair overflows.
    Returns the per-node logs, as the solver's field logs, or raises
    NumericsError at the first step whose log scale is not finite.
    """
    nt = plan.nt
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
        top = frame + float(w.max())
        if not math.isfinite(top):
            raise NumericsError(f"moment solver overflowed at step {j}")
        logs[j] = w + frame
        values[j] = np.exp(w - w.max())
        log_scale[j] = top
        mids[j - 1] = np.sqrt(values[j] * values[j - 1])
        pair_logs[j - 1] = 0.5 * top + 0.5 * float(log_scale[j - 1])
        frame = max(frame, float(pair_logs[j - 1]))
    return logs


@pytest.mark.parametrize("lam", [1.0, 30.0, 1e4])
@pytest.mark.parametrize("nt", [24, 33, 37, 192])
def test_blocked_white_stepper_matches_direct_lag_sum(eigen_cache, bump, lag_tables, nt, lam):
    # The stepper sums the history in blocks of 16 steps: nt = 24 ends in a
    # partial block of 8 steps, 33 in a block of one step, 37 in one of 5,
    # and 192 (the white-sweep grid) is twelve full blocks.  Bound, set
    # beforehand: the routes' tables agree to a few 1e-13 of their entries
    # (the plan-table test), and both add nonnegative products in another
    # order (the folded blocks, one gemm over the older cells and one gemv
    # over the in-block ones, against the full table, one gemv per cell), so
    # a step's history sums differ by that relative error, which later steps
    # carry forward through positive combinations; log M then differs by
    # about that relative error, plus an ulp of |log M| from the log and the
    # frame.  1e-12 leaves room for it; measured: at most 2.1e-14 (8.9e-16
    # when the reference summed the plan's own full table).
    es = eigen_cache(2.0, 64)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam)
    plan = MomentPlan.build(p, es, u0, 0.1, nt)
    got = second_moment_white(p, es, u0, 1.0, 0.1, nt).logs
    ref = _direct_white(plan, lam ** 2, lag_tables(plan, p.beta))
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))


@pytest.mark.parametrize("lam", [1.0, 30.0, 1e4])
def test_white_solve_at_odd_n_matches_direct_lag_sum(eigen_cache, bump, lag_tables, lam):
    # At odd n the fold keeps the middle node once in the even block and the
    # odd block is one node smaller; nt = 37 ends in a partial block of 5
    # steps.  Bound and reasoning as in the blocked-stepper test above;
    # measured: at most 2.8e-14.
    es = eigen_cache(2.0, 33)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam)
    plan = MomentPlan.build(p, es, u0, 0.1, 37)
    got = second_moment_white(p, es, u0, 1.0, 0.1, 37).logs
    ref = _direct_white(plan, lam ** 2, lag_tables(plan, p.beta))
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(ref[finite])))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam, step", [(4e153, None), (5e153, 34)])
def test_blocked_white_overflow_raises_at_the_direct_step(eigen_cache, bump, lag_tables, lam,
                                                          step):
    # With beta = 0.02 the closure raises the log scale by ~2e306 or more a
    # step.  At lam = 5e153 the log scale of step 34 (third block, steps
    # 33..37) passes the double range, and both steppers must raise there,
    # with no RuntimeWarning; at lam = 4e153 every log scale and every pair
    # mean stays finite, though the sum of two neighbouring scales does not.
    # A slice's log scale is its largest log.
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.02, lam=lam)
    plan = MomentPlan.build(p, es, u0, 0.1, 37)
    if step is None:
        field = second_moment_white(p, es, u0, 1.0, 0.1, 37)
        scales = field.logs.max(axis=1).tolist()
        assert all(map(math.isfinite, scales))
        assert max(a + b for a, b in zip(scales[1:], scales[:-1])) == math.inf
        ref = _direct_white(plan, lam ** 2, lag_tables(plan, p.beta))
        assert np.all(np.abs(field.logs - ref) <= 1e-12 * np.abs(ref))
        return
    match = f"overflowed at step {step}$"
    with pytest.raises(NumericsError, match=match):
        _direct_white(plan, lam ** 2, lag_tables(plan, p.beta))
    with pytest.raises(NumericsError, match=match):
        second_moment_white(p, es, u0, 1.0, 0.1, 37)


def _sandwich_colored(plan, beta, kappa):
    """Reference: the two-point stepper with the physical kernel sandwich.

    Every step sums h^2 Delta Gmid[m] (Cbar * mid) Gmid[m]^T over the lag
    cells m = 1..j-1, one pair of n x n x n products per cell, with Gmid[m]
    the clipped kernel at the cell's midpoint lag.  Pair midpoints are
    sqrt(v_{p+1} v_p) framed by the largest pair-mean log scale so far; the
    newest cell is the scalar renewal closure.  Returns the logs of the
    two-point function at every step.
    """
    es, nt = plan.es, plan.nt
    delta = plan.T / nt
    G = dirichlet_fractional_kernel(es, beta, (np.arange(1, nt) + 0.5) * delta)
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
    return logs


@pytest.mark.parametrize("lam", [1.0, 30.0, 1e3])
@pytest.mark.parametrize("n", [16, 32])
def test_colored_solve_matches_physical_sandwich(eigen_cache, bump, n, lam):
    # The stepper sums the history in blocks of 16 steps: nt = 24 ends in a
    # partial block of 8 steps, 33 in a block of one step, 37 in one of 5,
    # and 64 is four full blocks.
    # Bound, a priori: a step's two routes sum the same positive history
    # with at most four n-term products each, so they differ by at most
    # 4 n u relative (u = 2^-53); a step carries the earlier slices' errors
    # forward through a positive combination, so after nt steps r = nt 4 n u
    # (4.5e-13 at n = 16, 9.1e-13 at n = 32 for nt = 64).  A log scale is
    # rounded once more, half an ulp per route, 2^-52 |log scale| between
    # the two.  A log is rounded twice, in w = log(hist) + ln_fac and in
    # w + frame, so the routes' logs differ by up to 2 ulp, 2^-51 |log|
    # (2 ulp measured at step 2 of nt = 24, lam = 1e3, on the full-matrix
    # contraction of the previous solver too).
    es = eigen_cache(2.0, n)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, lam=lam, noise=NoiseModel("riesz", gamma=0.5))
    for nt in (24, 33, 37, 64):
        plan = MomentPlan.build(p, es, u0, 0.1, nt)
        got = second_moment_colored(p, es, u0, 1.0, 0.1, nt)
        logs = _sandwich_colored(plan, p.beta, lam ** 2)
        r = nt * 4 * n * 2.0 ** -53
        ref = np.diagonal(logs, axis1=1, axis2=2)
        assert np.array_equal(np.isinf(got.logs), np.isinf(ref)), nt
        finite = np.isfinite(ref)
        assert np.all(np.abs(got.logs[finite] - ref[finite])
                      <= r + 2.0 ** -51 * np.abs(ref[finite])), nt


def test_batched_lams_are_bitwise_their_solves_alone(monkeypatch, eigen_cache, bump):
    # One pass steps every lam of a batch: a step's in-block history sums
    # are one call for the batch (a stacked matmul, white; an einsum,
    # colored), a block start's run a lam at a time, and all else acts on
    # each lam's entries alone, so each lam carries the bits of its own
    # solve.  At n = 32 white takes 7 lams in one batch and colored, under
    # the midpoint budget of colored-sweep's size, runs them as 5 + 2.  The
    # sweeps' grids: white-sweep's 13 lams in one batch at n = 64 and at odd
    # n = 33, and colored-sweep's 10 at odd n = 17 as 5 + 5, under a budget
    # cut to 5 lams.
    white = ModelParams(alpha=2.0, beta=0.5)
    colored = replace(white, noise=NoiseModel("riesz", gamma=0.5))
    cases = ((white, 32, np.geomspace(1e2, 1e6, 7), [7]),
             (colored, 32, np.geomspace(1e2, 1e5, 7), [5, 2]),
             (white, 64, np.geomspace(1e2, 1e6, 13), [13]),
             (white, 33, np.geomspace(1e2, 1e6, 13), [13]),
             (colored, 17, np.geomspace(1e2, 1e5, 10), [5, 5]))
    for p, n, lams, sizes in cases:
        if sizes == [5, 5]:
            monkeypatch.setattr(sys.modules["fracstorm.moments"], "_BATCH_DOUBLES",
                                5 * 192 * n * (n + 1) // 2)
        es = eigen_cache(2.0, n)
        u0 = bump(es)
        solve = second_moment_white if p.noise.kind == "white" else second_moment_colored
        assert [len(b) for b in MomentPlan.build(p, es, u0, 0.1, 192).batches(lams)] == sizes
        fields = solve(p, es, u0, 1.0, 0.1, 192, lams=lams)
        assert len(fields) == len(lams)
        for lam, field in zip(lams, fields):
            alone = solve(replace(p, lam=float(lam)), es, u0, 1.0, 0.1, 192)
            assert np.array_equal(field.logs, alone.logs), (n, lam)


def test_batch_overflow_names_its_lam_at_its_own_step(eigen_cache, bump):
    # lam = 5e153 overflows at step 34 alone (see the white overflow test);
    # in a batch with smaller lams the solve stops at the same step and
    # names it.
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.02, lam=5e153)
    match = re.escape(f"lam={5e153!r} overflowed at step 34") + "$"
    with pytest.raises(NumericsError, match=match):
        second_moment_white(p, es, u0, 1.0, 0.1, 37)
    with pytest.raises(NumericsError, match=match):
        second_moment_white(p, es, u0, 1.0, 0.1, 37, lams=[1.0, 4e153, 5e153])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise", ["white", "riesz"])
@pytest.mark.parametrize("lam", [1e140, 1.3e154, 1e200])
def test_a_lam_past_the_closure_range_is_a_numerics_error(eigen_cache, bump, noise, lam):
    # At 1e140 the closure argument (lam l_sigma)^2 Gamma(eta) eta is finite
    # but log E_eta of it, about its 1/eta-th power, is not (from about
    # 4e116, white, and 5e135, riesz, at nt = 8); at 1.3e154 the argument
    # passes the double range, and at 1e200 the square itself does.  The
    # input is valid and evaluation fails: a NumericsError naming the first
    # such lam of the grid, before any step, and no warning.
    es = eigen_cache(2.0, 16)
    p = ModelParams(alpha=2.0, beta=0.5,
                    noise=NoiseModel(noise, gamma=0.5 if noise == "riesz" else None))
    solve = second_moment_white if noise == "white" else second_moment_colored
    match = re.escape(f"moment solver at lam={lam!r} overflowed: log E_eta of its "
                      "newest-cell closure is past the double range") + "$"
    with pytest.raises(NumericsError, match=match):
        solve(p, es, bump(es), 1.0, 0.1, 8, lams=[1.0, lam, 1e200])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_plan_refuses_a_non_finite_u0(eigen_cache, bump, bad):
    es = eigen_cache(2.0, 16)
    u0 = bump(es).copy()
    u0[3] = bad
    with pytest.raises(DomainError, match="u0 must be finite"):
        MomentPlan.build(ModelParams(alpha=2.0, beta=0.5), es, u0, 0.1, 24)


@pytest.mark.parametrize("nt", [24.0, 24.5, True])
def test_non_integer_nt_is_refused(eigen_cache, bump, nt):
    # a float nt used to be truncated (24.5 solved on 24 steps) or to fail
    # inside numpy, and True is the integer 1; a numpy integer is an integer
    es = eigen_cache(2.0, 16)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5)
    for call in (lambda: MomentPlan.build(p, es, u0, 0.1, nt),
                 lambda: second_moment_white(p, es, u0, 1.0, 0.1, nt),
                 lambda: renewal_volterra_solve(1.0, 1.0, 0.5, 1.0, nt),
                 lambda: excitation_sweep(p, es, u0, 0.1, np.geomspace(1e2, 1e5, 6), nt=nt)):
        with pytest.raises(DomainError, match="^nt must be an integer"):
            call()
    assert MomentPlan.build(p, es, u0, 0.1, np.int64(24)).nt == 24
    assert len(renewal_volterra_solve(1.0, 1.0, 0.5, 1.0, np.int32(24)).times) == 25


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("entry, argument", [
    ("white", "T"), ("colored", "T"), ("white", "l_sigma"), ("colored", "l_sigma"),
    ("sweep", "t")])
def test_non_finite_horizon_time_and_slope_are_refused(eigen_cache, bump, entry, argument, bad):
    # each is refused, naming its argument, before it reaches the time grid
    # (where inf * 0 is NaN) or the closure table
    es = eigen_cache(2.0, 16)
    u0 = bump(es)
    white = ModelParams(alpha=2.0, beta=0.5)
    colored = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5))
    args = {"l_sigma": 1.0, "T": 0.1, argument: bad}
    calls = {
        "white": lambda: second_moment_white(white, es, u0, args["l_sigma"], args["T"], 24),
        "colored": lambda: second_moment_colored(colored, es, u0, args["l_sigma"], args["T"], 24),
        "sweep": lambda: excitation_sweep(white, es, u0, bad, np.geomspace(1e2, 1e5, 6)),
    }
    with pytest.raises(DomainError, match=rf"\b{argument}={bad}"):
        calls[entry]()


@pytest.mark.parametrize("lams", [[], [[1.0, 2.0]], [1.0, -1.0], [np.nan], [np.inf]])
def test_solver_refuses_a_bad_lam_grid(eigen_cache, bump, lams):
    es = eigen_cache(2.0, 16)
    with pytest.raises(DomainError, match="lams"):
        second_moment_white(ModelParams(alpha=2.0, beta=0.5), es, bump(es), 1.0, 0.1, 24,
                            lams=lams)


def test_colored_batch_memory_is_the_midpoint_budget(monkeypatch, eigen_cache, bump):
    # One call with all 10 lams of colored-sweep (n = 32, nt = 192,
    # P = n(n+1)/2 = 528) steps them in batches of L = 5: 5 nt P = 506,880
    # doubles of midpoints, within the 2^19 budget.  The rest of the
    # stepper's live state, in doubles: a scaled copy of one lam's older
    # midpoints and the product in its contraction (2 nt P), the block sums
    # of every lam (L 16 P), the returned values, logs and framed values
    # (3 L (nt+1) n), and at most 16 arrays of one slice per lam (L n^2).
    # The newest-cell closure table is stood in by zeros: its memory is
    # mittag_leffler_log's, whose own test bounds it.  Measured 7.2 MB,
    # the plan build included; one batch of all 10 lams measured 11.7 MB.
    monkeypatch.setattr(sys.modules["fracstorm.moments"], "mittag_leffler_log",
                        lambda eta, z: np.zeros(z.shape))
    es = eigen_cache(2.0, 32)
    u0 = bump(es)
    p = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel("riesz", gamma=0.5))
    n, nt, P, L = 32, 192, 32 * 33 // 2, 5
    lams = np.geomspace(1e2, 1e5, 10)
    assert [len(b) for b in MomentPlan.build(p, es, u0, 0.1, nt).batches(lams)] == [L, L]
    assert L * nt * P <= 2 ** 19
    bound = 8 * (2 ** 19 + 2 * nt * P + L * 16 * P + 3 * L * (nt + 1) * n + 16 * L * n * n)
    tracemalloc.start()
    try:
        second_moment_colored(p, es, u0, 1.0, 0.1, nt, lams=lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_white_tables_are_the_parity_blocks(eigen_cache, bump):
    # A structural guard, no clock: at white-sweep's size (n = 64, nt = 192)
    # the white tables are the even and odd blocks of every S[m], c = f = 32
    # nodes square, 8 nt (c^2 + f^2) = 3.1 MB where the full (n, nt, n)
    # table held 6.3 MB; at odd n the even block has the middle node.  The
    # batch budget counts the lifted midpoints, n a lam (white) or
    # n(n+1)/2 (colored), and never the tables, so a plan stripped of its
    # tables batches the same: white-sweep's 13 lams in one batch,
    # colored-sweep's 10 as 5 + 5.
    white = ModelParams(alpha=2.0, beta=0.5)
    for n, nt, size in ((33, 37, 8 * 37 * (17 * 17 + 16 * 16)), (64, 192, 3_145_728)):
        es = eigen_cache(2.0, n)
        plan = MomentPlan.build(white, es, bump(es), 0.1, nt)
        assert sum(table.nbytes for table in plan.history) == size, n
    lams = np.geomspace(1e2, 1e6, 13)
    assert [len(b) for b in plan.batches(lams)] == [13]
    assert [len(b) for b in replace(plan, history=None).batches(lams)] == [13]
    es = eigen_cache(2.0, 32)
    colored = MomentPlan.build(replace(white, noise=NoiseModel("riesz", gamma=0.5)),
                               es, bump(es), 0.1, 192)
    lams = np.geomspace(1e2, 1e5, 10)
    assert [len(b) for b in colored.batches(lams)] == [5, 5]
    assert [len(b) for b in replace(colored, history=None).batches(lams)] == [5, 5]


def test_lower_series_small_argument_values():
    # S(1) at rho = 1 is sum k^-k; independent partial-sum oracle.
    direct = sum(k ** -float(k) for k in range(1, 60))
    assert lower_series(1.0, 1.0) == pytest.approx(direct, abs=1e-12)
    assert lower_series(0.0, 0.5) == 0.0


def test_lower_series_log_consistent_with_direct():
    for t, rho in ((0.5, 0.5), (3.0, 1.0), (40.0, 0.5)):
        assert lower_series_log(t, rho) == pytest.approx(
            math.log(lower_series(t, rho)), abs=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda v: lower_series(1.0, v), lambda v: lower_series(v, 0.5),
    lambda v: lower_series_log(1.0, v), lambda v: lower_series_log(v, 0.5),
], ids=["S-rho", "S-t", "logS-rho", "logS-t"])
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


@pytest.mark.parametrize("t, rho", [(1.0, 1.0), (10.0, 0.5), (20.0, 0.5)] + [
    ((math.e * kstar) ** rho, rho) for rho, kstar in ((0.05, 100), (0.01, 100), (0.001, 1000))])
def test_lower_series_matches_30_digit_reference(t, rho):
    # Small rho puts the last e^-70 of the terms far past 3 k* + 50: at
    # (rho, k*) = (0.001, 1000) about 29000 terms.  The reference adds the
    # terms one by one until they fall below 30 digits; nsum's default
    # extrapolation misses that sum by 3.4e-6.
    with mpmath.workdps(30):
        ref = mpmath.nsum(lambda k: (mpmath.mpf(t) / k ** mpmath.mpf(rho)) ** k,
                          [1, mpmath.inf], method="direct", steps=[1000], maxterms=10 ** 6)
        assert abs(lower_series(t, rho) - ref) / ref <= 1e-13


def test_series_window_from_one_is_bounded():
    # at rho = 3e-8 the terms fall e^-70 below their peak only past 1e8
    with pytest.raises(DomainError, match="2\\^26"):
        lower_series_log((math.e * 100) ** 3e-8, 3e-8)


def test_lower_series_log_growth_exponent():
    # log S(theta) ~ rho/e * theta^(1/rho), so loglog S / log theta -> 1/rho.
    # The peak index k* = theta^(1/rho)/e sets the summation cost, so the
    # smaller rho gets the smaller theta.
    for rho, theta in ((0.5, 1e6), (1.0, 1e8)):
        ratio = math.log(lower_series_log(theta, rho)) / math.log(theta)
        assert ratio > 1.0 / rho - 0.15


def _window_sum_log(t, rho):
    """Reference: log of the term-by-term sum over the +-12 half-width window
    around k* = t^(1/rho)/e, in blocks of 2^20 terms."""
    kstar = t ** (1.0 / rho) / math.e
    half = 12.0 * math.sqrt(kstar / rho)
    kmin, kmax = max(1, int(kstar - half)), int(kstar + half) + 1
    m, total = -math.inf, 0.0
    for lo in range(kmin, kmax + 1, 1 << 20):
        k = np.arange(lo, min(lo + (1 << 20) - 1, kmax) + 1, dtype=float)
        logs = k * (math.log(t) - rho * np.log(k))
        top = float(logs.max())
        if top > m:
            total, m = total * math.exp(m - top), top
        total += float(np.exp(logs - m).sum())
    return m + math.log(total)


@pytest.mark.parametrize("t, rho", [(2e4, 0.5), (1e6, 0.5), (2.6, 0.05), (6e2, 0.3),
                                    (1e8, 0.9), (2e9, 1.0), (1e30, 3.0)])
def test_wide_series_windows_match_their_term_by_term_sum(t, rho):
    # windows of 4e5 to 2e7 terms, integrated rather than summed
    ref = _window_sum_log(t, rho)
    assert abs(lower_series_log(t, rho) - ref) <= 1e-14 * abs(ref)


def test_series_near_the_top_of_its_range_takes_bounded_time():
    # k* = 3.7e15: about 2e9 terms in the window
    start = time.perf_counter()
    value = lower_series_log(1e8, 0.5)
    assert time.perf_counter() - start < 1.0
    kstar = 1e16 / math.e  # log S = rho k* + log sqrt(2 pi k*/rho) to O(1/k*)
    assert value == pytest.approx(0.5 * kstar + 0.5 * math.log(4.0 * math.pi * kstar), rel=1e-14)
