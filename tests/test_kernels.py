"""Kernel layer: stable densities, eigen systems, subordinated Dirichlet kernels."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from fracstorm import kernels
from fracstorm.errors import DomainError, NumericsError
from fracstorm.excitation import theoretical_index
from fracstorm.fracfun import inverse_subordinator_density, mittag_leffler, mode_decay
from fracstorm.kernels import (
    apply_semigroup,
    dirichlet_fractional_kernel,
    dirichlet_kernel_subordination,
    estimate_floor_constant,
    fractional_free_kernel,
    green_l2_constant,
    riesz_kernel_matrix,
    stable_density,
)
from fracstorm.params import ModelParams, NoiseModel, SpaceGrid


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_stable_density_cutoff_past_the_double_range_raises(x):
    # alpha = 0.005 is far below the verified range; g_{alpha/2} would put
    # most of its mass past any node set in u
    with pytest.raises(NumericsError, match=r"verified for alpha in \[0\.5, 1\.95\]"):
        stable_density(0.005, 1.0, 1.0, x)


@pytest.mark.parametrize("x", [0.0, 1.0])
def test_stable_density_past_the_double_range_raises_naming_alpha_and_t_nu(x):
    with pytest.raises(NumericsError, match=r"alpha=0\.005, t nu=2\.0"):
        stable_density(0.005, 1.0, 2.0, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [0.0, 1.0])
def test_stable_density_near_two_raises_naming_alpha_and_t_nu(x):
    # 1.99 is outside the verified range (g_{0.995}'s series would refuse);
    # (t nu)^(-1/alpha) overflows at t nu = 1e-200 and underflows at 1e300
    with pytest.raises(NumericsError, match=r"alpha=1\.99, t nu=0\.5"):
        stable_density(1.99, 0.5, 1.0, x)
    for t in (1e-200, 1e300):
        with pytest.raises(NumericsError, match=re.escape(f"alpha=0.5, t nu={t!r}")):
            stable_density(0.5, 1.0, t, x)
    # t nu underflows to 0.0, whose negative power would warn of a division by zero
    with pytest.raises(NumericsError, match=r"alpha=1\.5, t nu=0\.0"):
        stable_density(1.5, 1e-300, 1e-300, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stable_density_past_the_series_cutoff_is_the_series():
    # z = s|x| past the double range is inf, where the series is 0.0; the
    # true density, about z^-2.5 here, is far below the smallest double
    assert stable_density(1.5, 1.0, 1.0, 1e300) == 0.0
    assert stable_density(1.5, 1.0, 1e-3, 1e306) == 0.0
    assert np.all(stable_density(1.5, 1.0, 1.0, np.array([-1e300, 1e308])) == 0.0)
    z = 2.0 * kernels._SERIES_Z
    p = stable_density(1.5, 1.0, 1.0, z)
    assert p == kernels._line(1.5, 1.0).series(np.array([z]))[0]
    assert p == pytest.approx(_tail_series(1.5, z), rel=1e-13)


def test_subordination_nodes_refuse_a_missed_mass(monkeypatch):
    # The node set is its own accuracy check: g off by 1e-9 relative moves
    # the mass past _MASS_TOL.
    g = kernels.stable_subordinator_density
    monkeypatch.setattr(kernels, "_LINES", {})
    monkeypatch.setattr(kernels, "stable_subordinator_density",
                        lambda b, u: g(b, u) * (1.0 + 1e-9))
    with pytest.raises(NumericsError, match=r"unit mass by 1\.0\de-09: alpha=1\.5, t nu=3\.0"):
        stable_density(1.5, 1.0, 3.0, 0.5)


def test_stable_density_gaussian_case():
    # alpha = 2 is the heat kernel with diffusivity nu.
    for t in (0.1, 1.0):
        for x in (0.0, 0.5, 2.0):
            exact = math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
            assert stable_density(2.0, 1.0, t, x) == pytest.approx(exact, rel=1e-10)


def test_stable_density_cauchy_case():
    # alpha = 1 goes through the subordination sum like any other alpha; the
    # Cauchy (Poisson) kernel is its oracle.
    for t in (0.2, 1.5):
        for x in (0.0, 0.3, 4.0):
            exact = t / (math.pi * (t * t + x * x))
            assert stable_density(1.0, 1.0, t, x) == pytest.approx(exact, rel=1e-12)
    x = np.linspace(0.0, 40.0, 801)
    assert np.max(np.abs(stable_density(1.0, 1.0, 1.0, x) - 1.0 / (np.pi * (1.0 + x * x)))) <= 1e-12


def test_stable_density_scaling_identity():
    # p_t(x) = t^(-1/alpha) p_1(t^(-1/alpha) x).
    rng = np.random.default_rng(11)
    for alpha in (1.5, 1.8):
        for t, x in zip(rng.uniform(0.2, 3.0, 8), rng.uniform(-5.0, 5.0, 8)):
            scaled = t ** (-1.0 / alpha) * stable_density(
                alpha, 1.0, 1.0, t ** (-1.0 / alpha) * x)
            assert stable_density(alpha, 1.0, t, x) == pytest.approx(
                scaled, rel=1e-8)


def _fourier_30_digits(alpha, x):
    """(1/pi) int_0^inf e^(-k^alpha) cos(k x) dk at 30 digits, on panels of
    two periods up to where e^(-k^alpha) < 3e-33."""
    with mp.workdps(30):
        a, x = mp.mpf(alpha), mp.mpf(x)
        K = mp.mpf(75) ** (1 / a)
        n = max(8, int(K * x / (4 * mp.pi)) + 1)
        return mp.quad(lambda k: mp.exp(-k ** a) * mp.cos(k * x),
                       [K * j / n for j in range(n + 1)]) / mp.pi


@pytest.mark.parametrize("alpha, x", [(a, x) for a in (0.8, 1.5, 1.8) for x in (0.0, 0.3, 1.0, 5.0)]
                         + [(1.5, 40.0)])
def test_stable_density_matches_30_digit_fourier_inversion(alpha, x):
    assert abs(stable_density(alpha, 1.0, 1.0, x) - float(_fourier_30_digits(alpha, x))) <= 1e-11


@pytest.mark.parametrize("alpha", [0.5, 0.53, 1.2, 1.95])
def test_stable_density_at_the_origin_is_closed_form(alpha):
    # p(1, 0) = (1/pi) int_0^inf e^(-k^alpha) dk = Gamma(1 + 1/alpha) / pi
    exact = math.gamma(1.0 + 1.0 / alpha) / math.pi
    assert abs(stable_density(alpha, 1.0, 1.0, 0.0) - exact) <= 1e-11


def _tail_series(alpha, x):
    """First three terms of p(1, x)'s large-x series."""
    return sum((-1) ** (k + 1) * math.gamma(alpha * k + 1.0) / math.factorial(k)
               * math.sin(math.pi * alpha * k / 2.0) * x ** (-alpha * k - 1.0)
               for k in (1, 2, 3)) / math.pi


@pytest.mark.parametrize("alpha", [1.5, 1.8])
def test_stable_density_far_field_follows_the_tail_series(alpha):
    # three terms leave below 1e-13 of the value at x >= 1e3
    for x in (1e3, 5e3):
        assert stable_density(alpha, 1.0, 1.0, x) / _tail_series(alpha, x) - 1.0 == (
            pytest.approx(0.0, abs=1e-9))


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 1.8, 1.95])
def test_profile_matches_the_direct_sum(alpha):
    # The free kernel's fast table (Hermite on y <= 400, series beyond)
    # against stable_density itself, across the seam at y = 400.
    y = np.concatenate([np.linspace(0.0, 2.0, 2001), np.geomspace(2.0, 1e4, 20001),
                        [399.0, 400.0, 401.0]])
    direct = stable_density(alpha, 1.0, 1.0, y)
    assert np.max(np.abs(kernels._line(alpha, 1.0).table(y) / direct - 1.0)) <= 1e-9


def test_free_kernel_table_refuses_alpha_below_its_verified_range():
    # at alpha = 0.6 the table is 1.7e-9 from the sum, at 0.5 6.1e-8
    with pytest.raises(NumericsError, match="alpha in \\[0.7, 1.95\\]"):
        fractional_free_kernel(ModelParams(alpha=0.6, beta=0.5), 0.1, 0.5)


def test_eigen_system_matches_interval_laplacian(eigen_cache):
    # For alpha = 2 the spectrum approaches (pi k / 2R)^2 with sine modes.
    es = eigen_cache(2.0, 128)
    exact = (np.pi * np.arange(1, 6) / 2.0) ** 2
    assert np.max(np.abs(es.mu[:5] / exact - 1.0)) < 2e-3
    # Eigenvectors are h-orthonormal.
    G = es.phi.T @ es.phi * es.grid.h
    assert np.max(np.abs(G - np.eye(es.grid.n))) < 1e-10


def test_fractional_kernel_symmetry_and_mass(eigen_cache):
    es = eigen_cache(2.0, 48)
    G = dirichlet_fractional_kernel(es, 0.5, 0.2)
    assert np.max(np.abs(G - G.T)) < 1e-12
    # Killed kernel never exceeds unit mass.
    mass = G.sum(axis=1) * es.grid.h
    assert np.all(mass <= 1.0 + 1e-10)
    assert np.all(G >= -1e-12)


def test_classical_limit_is_semigroup(eigen_cache):
    # At beta = 1 the kernel is the exact semigroup: G_{t+s} = G_t h G_s.
    es = eigen_cache(2.0, 32)
    h = es.grid.h
    Gt = dirichlet_fractional_kernel(es, 1.0, 0.1)
    Gs = dirichlet_fractional_kernel(es, 1.0, 0.25)
    Gts = dirichlet_fractional_kernel(es, 1.0, 0.35)
    assert np.max(np.abs(Gt @ Gs * h - Gts)) < 1e-10


def test_subordination_route_agrees_with_spectral(eigen_cache):
    es = eigen_cache(2.0, 32)
    for t in (0.05, 0.3, 1.0):
        A = dirichlet_fractional_kernel(es, 0.5, t)
        B = dirichlet_kernel_subordination(es, 0.5, t)
        scale = np.abs(A).max()
        assert np.max(np.abs(A - B)) / scale < 1e-8


# The times of a T = 0.1, nt = 768 table down to T / (20 nt), and modes up to
# mu = 1e6, so y = mu t^beta passes 1e4 at every order.
_TIMES = np.geomspace(0.1 / (20 * 768), 0.1, 50)
_MU = np.geomspace(0.5, 1e6, 40)
# Relative bound of mode_decay, from its error budget: the 80-point head on
# the fractional power in e^(-t v^(1/beta)), with t r <= 0.01 there, is off
# by at most 4e-14 of the whole integral (worst over beta, at t r = 0.01);
# the log-panels and the cut at 45/t_min add below 1e-19.  Rounding: the
# terms are positive, each off by ~50 ulp at most (its weight, and e^(-r t)
# with r t <= 45), and a sum of N <= 3,600 positive terms adds ~sqrt(N) ulp,
# together about 1e-14.
DECAY_RTOL = 1e-13


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 0.95])
def test_mode_decay_matches_30_digit_values_and_mittag_leffler(beta, e_30_digits):
    got = mode_decay(_MU, beta, _TIMES)
    ys, exact = [], []
    with mp.workdps(30):
        for j in range(0, _TIMES.size, 7):
            for k in range(0, _MU.size, 6):
                y = mp.mpf(_TIMES[j]) ** beta * mp.mpf(_MU[k])
                ys.append(float(y))
                exact.append(float(e_30_digits(beta, y)))
                assert abs(got[j, k] / exact[-1] - 1.0) <= DECAY_RTOL, (j, k)
    # mittag_leffler at the same arguments, one call, against the same values;
    # rounding y to a double moves E by at most ~2 ulp
    assert np.all(np.abs(mittag_leffler(beta, -np.array(ys)) / exact - 1.0) <= DECAY_RTOL)
    assert max(ys) >= 1e4


def test_mode_decay_of_order_one_is_the_exponential():
    assert np.array_equal(mode_decay(_MU, 1.0, _TIMES), np.exp(-np.outer(_TIMES, _MU)))
    assert np.array_equal(mode_decay(_MU, 1.0, 0.01), np.exp(-0.01 * _MU))


def test_mode_decay_does_not_depend_on_the_other_times_of_a_call():
    # The exponents follow the call's time range; each call is within
    # DECAY_RTOL of the truth, so any two agree to twice that.
    for beta in (0.3, 0.8, 0.95):
        together = mode_decay(_MU, beta, _TIMES)
        for j in (0, 17, 49):
            alone = mode_decay(_MU, beta, _TIMES[j])
            assert np.all(np.abs(alone / together[j] - 1.0) <= 2 * DECAY_RTOL)
        part = mode_decay(_MU, beta, _TIMES[20:30][::-1])[::-1]
        assert np.all(np.abs(part / together[20:30] - 1.0) <= 2 * DECAY_RTOL)
    with pytest.raises(DomainError):
        mode_decay(_MU, 0.5, np.array([0.1, -1.0]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(beta=st.sampled_from([0.3, 0.5, 0.8, 0.95]),
       x0=st.floats(1e-3, 200.0), step=st.floats(0.02, 0.5))
def test_decay_is_completely_monotone(beta, x0, step):
    # (-1)^k Delta^k E_beta(-x) > 0 for k = 1, 2, 3.  The steps are wide
    # enough (>= 2% of x) that the third difference exceeds rounding by
    # orders of magnitude.  mode_decay's weights are positive, so its sum of
    # exponentials is completely monotone by construction.
    x = x0 + step * (1.0 + x0) * np.arange(4)
    for values in (mittag_leffler(beta, -x), mode_decay(x, beta, 1.0)):
        for k in (1, 2, 3):
            assert np.all((-1) ** k * np.diff(values, k) > 0.0), (k, values)


def test_kernel_at_an_array_of_times_stacks_scalar_calls(eigen_cache):
    es = eigen_cache(2.0, 32)
    times = np.array([0.3, 1e-4, 0.05])
    stacked = dirichlet_fractional_kernel(es, 0.5, times)
    assert stacked.shape == (3, es.grid.n, es.grid.n)
    for t, G in zip(times, stacked):
        # modal values agree to 2 DECAY_RTOL; the matrix product adds n ulp
        e = mode_decay(es.mu, 0.5, t)
        bound = (2 * DECAY_RTOL + es.grid.n * 2.0 ** -52) * (
            (np.abs(es.phi) * e) @ np.abs(es.phi).T)
        assert np.all(np.abs(G - dirichlet_fractional_kernel(es, 0.5, t)) <= bound)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [16, 32, 48])
def test_unclipped_kernel_is_nonnegative_up_to_rounding(eigen_cache, alpha, n):
    # Both discrete generators are M-matrices and E_beta(-x) is completely
    # monotone, so phi diag(e) phi^T >= 0 in exact arithmetic; the colored
    # moment history uses it unclipped, at every lag-cell midpoint.
    es = eigen_cache(alpha, n)
    for beta in (0.3, 0.5, 0.8):
        for T in (0.002, 0.1, 1.0):
            for nt in (24, 192, 768):
                e = mode_decay(es.mu, beta, (np.arange(1, nt) + 0.5) * T / nt)
                G = (es.phi * e[:, None, :]) @ es.phi.T
                top = G.max(axis=(1, 2))
                assert np.all(G.min(axis=(1, 2)) >= -1e-14 * top), (beta, T, nt)


def test_apply_semigroup_matches_kernel_action(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    v = bump(es)
    G = dirichlet_fractional_kernel(es, 0.5, 0.3)
    assert np.max(np.abs(apply_semigroup(es, 0.5, 0.3, v) - G @ v * es.grid.h)) < 1e-12
    # An array of times gives one row per time, from a single call.
    times = np.array([0.3, 0.1, 1.0])
    rows = apply_semigroup(es, 0.5, times, v)
    assert rows.shape == (3, es.grid.n)
    for t, row in zip(times, rows):
        G = dirichlet_fractional_kernel(es, 0.5, t)
        assert np.max(np.abs(row - G @ v * es.grid.h)) < 1e-12
    with pytest.raises(DomainError):
        apply_semigroup(es, 0.5, np.array([0.1, 0.0]), v)


def test_free_kernel_via_subordination_identity():
    # The time-fractional free kernel is the subordination mixture of the
    # stable density; spot-check against direct quadrature of the mixture.
    from fracstorm.quadrature import integrate_semi_infinite

    p = ModelParams(alpha=2.0, beta=0.5)

    def mixture(t, x):
        def f(s):
            s = np.atleast_1d(s)
            dens = np.array([stable_density(2.0, 1.0, float(si), x)
                             for si in s])
            return dens * inverse_subordinator_density(0.5, t, s)

        return integrate_semi_infinite(f, tol=1e-10)

    for t, x in ((0.2, 0.1), (0.8, 0.6)):
        assert fractional_free_kernel(p, t, np.array([x]))[0] == pytest.approx(
            mixture(t, x), rel=1e-7)


def test_l2_decay_follows_power_law(check_outcome):
    # The law's one implementation is the registry check: three (alpha, beta)
    # regimes, six t, |l2 / (C t^(-beta/alpha)) - 1| <= 1e-3.
    passed, measured, tolerance, _ = check_outcome("l2-decay-law")
    assert passed, f"{measured} (tolerance {tolerance})"


def test_l2_constant_requires_integrability():
    # alpha = 0.4 fails 1 < 2 alpha; Riesz noise admits it with gamma < alpha
    with pytest.raises(DomainError, match="1 < 2"):
        green_l2_constant(ModelParams(alpha=0.4, beta=0.9,
                                      noise=NoiseModel("riesz", gamma=0.3)))


def test_riesz_matrix_properties():
    grid = SpaceGrid(R=1.0, n=20)
    C = riesz_kernel_matrix(grid, 0.5)
    assert np.max(np.abs(C - C.T)) < 1e-12
    assert np.all(np.diff(C[0]) < 0.0)  # decays away from the diagonal
    w = np.linalg.eigvalsh(C)
    assert w.min() > -1e-8  # positive semidefinite covariance


def _one_nan(es):
    v = np.ones(es.grid.n)
    v[3] = math.nan
    return v


@pytest.mark.parametrize("call, argument", [
    (lambda es: stable_density(2.0, math.nan, 1.0, 0.0), "nu"),
    (lambda es: stable_density(2.0, math.inf, 1.0, 0.0), "nu"),
    (lambda es: stable_density(1.5, math.nan, 1.0, 0.0), "nu"),
    (lambda es: stable_density(2.0, 1.0, 1.0, math.nan), "x"),
    (lambda es: fractional_free_kernel(ModelParams(alpha=2.0, beta=0.5), 0.5, math.nan), "x"),
    (lambda es: apply_semigroup(es, 0.5, 0.1, _one_nan(es)), "v"),
    (lambda es: theoretical_index(math.nan, 0.5, 1, "white"), "alpha"),
    (lambda es: estimate_floor_constant(es, 0.5, math.nan), "alpha"),
], ids=["density-nu-nan", "density-nu-inf", "density-1.5-nu-nan", "density-x-nan",
        "free-kernel-x-nan", "semigroup-v-nan", "index-alpha-nan", "floor-alpha-nan"])
def test_kernel_layer_refuses_non_finite_input(eigen_cache, call, argument):
    # invalid input is a DomainError naming its argument, never a NaN, inf,
    # 0.0 or NumericsError computed from it
    with pytest.raises(DomainError, match=rf"\b{argument}\b"):
        call(eigen_cache(2.0, 16))


@pytest.mark.parametrize("n", [64.0, np.float64(16), 16.5, True])
def test_space_grid_refuses_a_non_integer_cell_count(n):
    # a float n, even an integral one, would fail later as an array size; a
    # numpy integer is an integer
    with pytest.raises(DomainError, match="^n must be an integer"):
        SpaceGrid(R=1.0, n=n)
    assert SpaceGrid(R=1.0, n=np.int64(16)).n == 16
