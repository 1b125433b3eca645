"""Special functions and fractional calculus operators.

Reference values come from independent routes: scipy's scaled complementary
error function for the half-order Mittag-Leffler function, closed-form
densities at beta = 1/2, mpmath series where cheap, and exact power-law
formulas for the fractional operators on monomials.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy.special import erfcx, gamma

from fracstorm.errors import DomainError, NumericsError
from fracstorm.fracfun import (
    ExpSum,
    SampledFunction,
    caputo_derivative,
    fractional_integral,
    inverse_subordinator_density,
    mittag_leffler,
    mittag_leffler_log,
    mode_decay,
    stable_subordinator_density,
    subordinator_small_u_law,
    subordinator_tail_law,
)
from fracstorm.quadrature import integrate_semi_infinite


def test_classical_order_reduces_to_exp():
    x = np.linspace(-5.0, 5.0, 201)
    vals = np.array([mittag_leffler(1.0, xi) for xi in x])
    assert np.max(np.abs(vals - np.exp(x))) < 1e-12


def test_half_order_matches_scaled_erfc():
    # E_{1/2}(-z) = exp(z^2) erfc(z) = erfcx(z) for z >= 0.
    for z in np.concatenate([np.linspace(0.0, 30.0, 61), np.geomspace(30.0, 1e8, 29)[1:]]):
        assert mittag_leffler(0.5, -z) == pytest.approx(erfcx(z), rel=1e-10)


# Interior points of the Taylor series, both sides of its seam at 0.9 and of
# 1e4, where an asymptotic series once took over, then far into the
# 1/(Gamma(1 - beta) y) tail.
_SEAM_Y = np.array([1e-3, 0.1, 0.5, 0.9, np.nextafter(0.9, 1.0), 1.0, 10.0, 1e2,
                    np.nextafter(1e4, 0.0), 1e4, 1e8])


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 0.95, 0.99])
def test_mittag_leffler_matches_30_digit_values(beta, e_30_digits):
    # One call, so every point shares the node set.  The largest error seen
    # here is 4.0e-14 (beta = 0.99, y = 1), so 0.99 keeps the 1e-13 bound too.
    got = mittag_leffler(beta, -_SEAM_Y)
    exact = np.array([float(e_30_digits(beta, y)) for y in _SEAM_Y])
    assert np.all(np.abs(got / exact - 1.0) <= 1e-13), np.abs(got / exact - 1.0)


@pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.8, 0.95, 0.99])
def test_mittag_leffler_far_tail_is_the_leading_law(beta):
    # E_beta(-y) = 1/(Gamma(1 - beta) y) (1 + O(1/y)), with no overflow on the way
    y = 1e300
    assert mittag_leffler(beta, -y) * gamma(1.0 - beta) * y == pytest.approx(1.0, rel=1e-13)


def test_mittag_leffler_rejects_bad_order():
    for beta in (0.0, -0.3, 1.5, np.inf):
        with pytest.raises(DomainError):
            mittag_leffler(beta, -1.0)


def _log_ml_40_digits(beta, x):
    """log E_beta(x), x >= 0, from the series sum_k x^k / Gamma(beta k + 1) in
    40 digits, summed past its peak index x^(1/beta)/beta until a term drops
    below 1e-45 of the sum."""
    with mp.workdps(40):
        b, x = mp.mpf(beta), mp.mpf(x)
        peak = x ** (1 / b) / b
        total, k = mp.mpf(0), 0
        while True:
            term = x ** k / mp.gamma(b * k + 1)
            total += term
            if k > peak and term < total * mp.mpf(10) ** -45:
                return float(mp.log(total))
            k += 1


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 0.95])
def test_mittag_leffler_log_matches_40_digit_series(beta):
    # Inside the series window and on both sides of its seam at 40^beta,
    # where the exponential asymptotic takes over.  The error is scaled by
    # max(1, |log E|): past the seam log E is about 40 or more, and the
    # series' terms exp(k log x - log Gamma) carry the rounding of exponents
    # that large.  The largest error seen is 4.7e-16 (beta = 0.95, x = 40^beta
    # 1.2); 1e-15, about 4.5 unit roundoffs, keeps twice that margin.
    seam = 40.0 ** beta
    x = np.array([1e-3, 0.5, 5.0, 0.999 * seam, 1.001 * seam, 1.2 * seam])
    got = mittag_leffler_log(beta, x)
    exact = np.array([_log_ml_40_digits(beta, xi) for xi in x])
    err = np.abs(got - exact) / np.maximum(1.0, np.abs(exact))
    assert np.all(err <= 1e-15), err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta, x", [(0.5, 1e300), (0.1, 1e40), (0.9, 1e300)])
def test_mittag_leffler_log_past_the_double_range_raises(beta, x):
    # x^(1/beta) overflows: no silent inf and no numpy overflow warning
    with pytest.raises(NumericsError, match=re.escape(f"beta={beta!r}, x={x!r}")):
        mittag_leffler_log(beta, x)
    with pytest.raises(NumericsError, match=re.escape(f"x={x!r}")):
        mittag_leffler_log(beta, np.array([1.0, x]))
    # E_beta itself is past the double range there: +inf, as documented
    assert mittag_leffler(beta, x) == math.inf


def test_log_form_consistent_and_asymptotic():
    # exp(log E) == E where both are representable in double precision.
    for x in (0.5, 2.0, 10.0, 25.0):
        lg = mittag_leffler_log(0.5, x)
        assert math.exp(lg) == pytest.approx(mittag_leffler(0.5, x), rel=1e-10)
    # E_{1/2}(x) ~ 2 exp(x^2) for large x, so log E - x^2 -> log 2.
    assert mittag_leffler_log(0.5, 50.0) - 50.0 ** 2 == pytest.approx(
        math.log(2.0), abs=1e-8)


def test_complete_monotonicity_on_negative_axis():
    x = np.linspace(0.0, 60.0, 2001)
    for beta in (0.3, 0.5, 0.8):
        v = np.array([mittag_leffler(beta, -xi) for xi in x])
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) < 0.0)


def test_half_stable_density_closed_form():
    # g_{1/2}(u) = u^{-3/2} exp(-1/(4u)) / (2 sqrt(pi)).
    for u in np.geomspace(0.02, 50.0, 25):
        exact = u ** -1.5 * math.exp(-0.25 / u) / (2.0 * math.sqrt(math.pi))
        assert stable_subordinator_density(0.5, u) == pytest.approx(exact, rel=1e-10)


def test_stable_density_laplace_transform():
    # The defining identity: the Laplace transform of the density is
    # exp(-s^beta).  (The undamped total mass has a u^(-1-beta) tail that
    # adaptive bisection cannot certify; the damped integral is exact.)
    for beta in (0.3, 0.5, 0.8):
        for s in (0.5, 2.0):
            lap = integrate_semi_infinite(
                lambda u: np.exp(-s * u) * stable_subordinator_density(beta, u),
                tol=1e-11)
            assert lap == pytest.approx(math.exp(-s ** beta), abs=1e-12)


def _g_40_digits(beta, u):
    """g_beta(u) in 40 digits from its power series
    sum_k (-1)^(k+1) Gamma(beta k + 1) sin(pi beta k) u^(-beta k - 1) / (pi k!),
    summed term by term until a term is 1e-45 of the sum: not the Kanter
    integral the package evaluates on u < 1.  At u near 1 no term exceeds 1."""
    with mp.workdps(40):
        b, u = mp.mpf(beta), mp.mpf(u)
        total, k = mp.mpf(0), 0
        while True:
            k += 1
            term = (-1) ** (k + 1) * mp.exp(mp.loggamma(b * k + 1) - mp.loggamma(k + 1)) \
                * mp.sin(mp.pi * b * k) * u ** (-b * k - 1)
            total += term
            if k > 50 and abs(term) < mp.mpf(10) ** -45 * abs(total):
                return total / mp.pi


@pytest.mark.parametrize("beta, u", [(0.9, 0.95), (0.95, 0.999), (0.975, 0.99)])
def test_kanter_integral_resolves_its_peak_as_beta_nears_one(beta, u):
    # Just below u = 1 the Kanter integrand peaks at phi ~ 0.7 pi with a width
    # that shrinks as beta -> 1; with geometric panels alone the density was
    # off by 1.4e-12, 7.5e-11 and 6.1e-10 relative at these points.
    ref = _g_40_digits(beta, u)
    assert abs(stable_subordinator_density(beta, u) - ref) <= 1e-12 * ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subordinator_left_tail_underflows_to_zero_not_nan():
    # At beta = 0.995, u^(-1/(1-beta)) overflows where the Kanter integral
    # underflows; the value is below the double floor and must read 0.0.
    assert np.array_equal(stable_subordinator_density(0.995, np.array([0.001, 0.01])), [0.0, 0.0])
    assert stable_subordinator_density(0.995, 0.99) > 0.0


def test_stable_density_limit_laws():
    # Saddle-point law near zero, series tail law at infinity.
    assert stable_subordinator_density(0.5, 0.01) == pytest.approx(
        subordinator_small_u_law(0.5, 0.01), rel=5e-2)
    assert stable_subordinator_density(0.5, 600.0) == pytest.approx(
        subordinator_tail_law(0.5, 600.0), rel=1e-2)


def test_inverse_subordinator_half_closed_form():
    # f_{E_t}(x) = exp(-x^2/(4t)) / sqrt(pi t) at beta = 1/2.
    for t in (0.2, 1.0, 3.0):
        for x in (0.1, 0.7, 2.0):
            exact = math.exp(-x * x / (4.0 * t)) / math.sqrt(math.pi * t)
            assert inverse_subordinator_density(0.5, t, x) == pytest.approx(
                exact, rel=1e-9)


def test_inverse_subordinator_support_and_mass():
    assert inverse_subordinator_density(0.5, 1.0, -1.0) == 0.0
    assert inverse_subordinator_density(0.5, 1.0, 0.0) == 0.0
    for beta, t in ((0.3, 0.5), (0.8, 2.0)):
        total = integrate_semi_infinite(
            lambda x: inverse_subordinator_density(beta, t, x), tol=1e-11)
        assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
def test_inverse_subordinator_density_tends_to_its_limit_at_zero(beta, t):
    # f_{E_t}(x) = t^(-beta)/Gamma(1-beta) (1 + O(t^(-beta) x)), so to rounding
    # for x <= 1e-20.  The factor (t/beta) x^(-1-1/beta) leaves the double
    # range below x ~ 1e-71 at beta = 0.3 and 1e-137 at beta = 0.8, and
    # u = t x^(-1/beta) below 1e-93 and 1e-247: that was inf, NaN or a
    # DomainError about u.
    x = np.concatenate([np.geomspace(1e-300, 1e-20, 600), [1e-103, 1e-110, 1e-120, 1e-155]])
    limit = t ** -beta / math.gamma(1.0 - beta)
    got = inverse_subordinator_density(beta, t, x)
    assert np.all(np.abs(got / limit - 1.0) <= 2e-13)
    assert [inverse_subordinator_density(beta, t, v) for v in x[-4:]] == list(got[-4:])


def test_fractional_integral_exact_on_linear_data():
    # I^gamma t = t^{1+gamma} / Gamma(2+gamma); linear data is interpolated
    # exactly, so the quadrature is exact too.
    times = np.linspace(0.0, 2.0, 257)
    g = SampledFunction(times=times, values=times)
    for gam in (0.3, 0.5, 1.0):
        for t in (0.5, 1.0, 2.0):
            exact = t ** (1.0 + gam) / gamma(2.0 + gam)
            assert fractional_integral(g, gam, t) == pytest.approx(exact, rel=1e-13)


def test_caputo_exact_on_linear_data():
    # D^beta t = t^{1-beta} / Gamma(2-beta).
    times = np.linspace(0.0, 2.0, 257)
    g = SampledFunction(times=times, values=times)
    for beta in (0.3, 0.5, 0.8):
        for t in (0.5, 1.3, 2.0):
            exact = t ** (1.0 - beta) / gamma(2.0 - beta)
            assert caputo_derivative(g, beta, t) == pytest.approx(exact, rel=1e-12)


def test_caputo_of_quadratic_converges():
    # D^beta t^2 = 2 t^{2-beta} / Gamma(3-beta); quadratic data is only
    # piecewise-linear interpolated, so the error is O(h^2) but not zero.
    beta = 0.5
    times = np.linspace(0.0, 1.0, 4097)
    g = SampledFunction(times=times, values=times ** 2)
    exact = 2.0 * 1.0 / gamma(2.5)
    assert caputo_derivative(g, beta, 1.0) == pytest.approx(exact, rel=1e-5)


def _fractional_integral_oracle(times, values, gam, t):
    """I^gamma g(t) from the closed forms of every cell of the interpolant.

    Runs on float arrays, or on object arrays of mpmath numbers for an
    extended-precision reference.
    """
    slopes = np.diff(values) / np.diff(times)
    last = int(np.searchsorted(times.astype(float), float(t), side="left"))
    wa = t - times[:last]
    wc = t - np.minimum(times[1:last + 1], t)
    head = (values[:last] + slopes[:last] * wa) * (wa ** gam - wc ** gam) / gam
    tail = slopes[:last] * (wa ** (gam + 1) - wc ** (gam + 1)) / (gam + 1)
    return float((head - tail).sum() / mp.gamma(gam))


def test_fractional_integral_matches_cell_by_cell_sum():
    # The sum-of-exponentials history must reproduce the exact cell sum to
    # 1e-13 of I^gamma |g|, for scalar, unsorted and off-node queries:
    # - smooth sign-changing data on criterion 2's grid (cells down to 3e-11);
    # - rough data on a random grid with cell widths over five decades, in
    #   30 digits, since the double-precision closed form cancels there;
    # - a uniform grid queried a hair past every node, where the history
    #   kernel is used at its shortest distance, one cell width.
    rng = np.random.default_rng(20261017)
    graded = np.unique(np.concatenate([
        2.0 * (np.arange(4097) / 4096.0) ** 3, np.linspace(0.0, 2.0, 8193)]))
    ragged = np.concatenate([[0.0], np.cumsum(
        np.exp(rng.uniform(np.log(1e-7), np.log(1e-2), 600)))])
    uniform = np.linspace(0.0, 1.3, 1001)

    def spread(times, count):
        picked = np.concatenate([rng.permutation(times[1:])[:count],
                                 rng.uniform(0.0, times[-1], count)])
        return np.concatenate([picked, [times[-1], 0.5 * times[1]]])

    cases = [(SampledFunction(graded, np.cos(3.0 * graded) + 0.5), spread(graded, 16), False),
             (SampledFunction(ragged, rng.standard_normal(ragged.size)), spread(ragged, 3), True),
             (SampledFunction(uniform, np.cos(5.0 * uniform)), uniform[1:-1] + 1.3e-12, False)]
    for g, queries, extended in cases:
        for gam in (0.3, 0.8, 1.0):
            got = fractional_integral(g, gam, queries)
            for t, value in zip(queries, got):
                scale = _fractional_integral_oracle(g.times, np.abs(g.values), gam, t)
                if extended:
                    with mp.workdps(30):
                        exact = _fractional_integral_oracle(
                            np.array([mp.mpf(x) for x in g.times]),
                            np.array([mp.mpf(x) for x in g.values]),
                            mp.mpf(gam), mp.mpf(t))
                else:
                    exact = _fractional_integral_oracle(g.times, g.values, gam, t)
                assert abs(value - exact) <= 1e-13 * scale, (gam, t)
            single = fractional_integral(g, gam, float(queries[0]))
            assert isinstance(single, float)
            assert single == pytest.approx(got[0], rel=1e-15, abs=0.0)


def test_caputo_order_under_refinement():
    # D^beta t^3 = 6 t^(3-beta) / Gamma(4-beta).  The L1 rule alone converges
    # at order 2 - beta; the L1-2 cells in [t/2, t] give the stated order 2.
    ts = np.array([0.61, 1.0, 1.5])
    for beta in (0.3, 0.5, 0.8):
        exact = 6.0 * ts ** (3.0 - beta) / gamma(4.0 - beta)
        errs = []
        for n in (80, 160, 320):
            times = np.linspace(0.0, 1.5, n + 1)
            g = SampledFunction(times=times, values=times ** 3)
            errs.append(np.max(np.abs(caputo_derivative(g, beta, ts) - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 2.0), (beta, errs)


def _caputo_rule(times, values, beta, t):
    """caputo_derivative's L1/L1-2 rule on object arrays of mpmath numbers.

    Returns (D^beta g(t), the same sum over the absolute cell terms)."""
    tf = times.astype(float)
    last = int(np.searchsorted(tf, float(t), side="left"))
    first = max(int(np.searchsorted(tf, 0.5 * float(t), side="left")), 1)
    slopes = np.diff(values) / np.diff(times)
    b1, b2 = 1 - beta, 2 - beta
    wa = t - times[:last]
    wf = t - times[1:last + 1]
    wc = np.array([max(w, 0) for w in wf])
    pa = np.array([w ** b1 for w in wa])
    pc = np.array([w ** b1 for w in wc])
    terms = list(slopes[:last] * (pa - pc) / b1)
    for i in range(first, last):
        curv = (slopes[i] - slopes[i - 1]) / (times[i + 1] - times[i - 1])
        terms.append(curv * ((wa[i] + wf[i]) * (pa[i] - pc[i]) / b1
                             - 2 * (wa[i] * pa[i] - wc[i] * pc[i]) / b2))
    return sum(terms) / mp.gamma(b1), sum(abs(x) for x in terms) / mp.gamma(b1)


def test_caputo_accuracy_on_rough_data():
    # The documented accuracy: on rough data (standard-normal samples) over
    # cells whose widths span 1e-7 to 1e-2, rounding in the closed forms costs
    # up to 1e-6 of the summed absolute cell terms (about 2e-7 measured),
    # against the same rule evaluated in 40 digits.
    rng = np.random.default_rng(20261017)
    ragged = np.concatenate([[0.0], np.cumsum(
        np.exp(rng.uniform(np.log(1e-7), np.log(1e-2), 600)))])
    g = SampledFunction(ragged, rng.standard_normal(ragged.size))
    queries = np.concatenate([rng.permutation(ragged[1:])[:6],
                              rng.uniform(0.0, ragged[-1], 6), [ragged[-1]]])
    with mp.workdps(40):
        times = np.array([mp.mpf(x) for x in g.times])
        values = np.array([mp.mpf(x) for x in g.values])
        for beta in (0.3, 0.5, 0.8):
            got = caputo_derivative(g, beta, queries)
            for t, value in zip(queries, got):
                exact, size = _caputo_rule(times, values, mp.mpf(beta), mp.mpf(t))
                assert abs(value - exact) <= 1e-6 * size, (beta, t)


def test_operators_reject_plain_arrays():
    with pytest.raises(DomainError):
        caputo_derivative(np.ones(8), 0.5, 0.5)
    with pytest.raises(DomainError):
        fractional_integral(np.ones(8), 0.5, 0.5)


def test_sampled_function_validation():
    with pytest.raises(DomainError):
        SampledFunction(times=np.array([0.5, 1.0]), values=np.zeros(2))
    with pytest.raises(DomainError):
        SampledFunction(times=np.array([0.0, 1.0, 1.0]), values=np.zeros(3))
    with pytest.raises(DomainError):
        SampledFunction(times=np.array([0.0, 1.0]), values=np.array([0.0, np.nan]))


def test_mittag_leffler_memory_is_bounded():
    # The sum of exponentials forms its (nodes x points) weights in blocks of
    # DECAY_CHUNK doubles (2 MB), not as one 12,288-column matrix (about
    # 50 MB at beta = 0.8, 500 nodes); the peak seen is 7 MB.
    # The Taylor series is summed on (points x terms) blocks of 2^18
    # doubles, not a 12,288 x 512 (or x 1024 for the log) matrix.
    y = np.geomspace(1.0, 5e3, 12288)
    calls = [(mittag_leffler, 0.5, -y), (mittag_leffler, 0.8, -y),
             (mittag_leffler, 0.5, -np.linspace(0.0, 0.9, 12288)),
             (mittag_leffler_log, 0.5, np.linspace(0.0, 6.0, 12288))]
    for fn, beta, x in calls:
        tracemalloc.start()
        try:
            vals = fn(beta, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6, (fn.__name__, beta, peak)
        # a point's value does not depend on where it falls in the call
        assert np.array_equal(vals, fn(beta, x[::-1])[::-1])


# ---------------------------------------------------------------------------
# sums of exponentials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [0.1, 0.5, 0.9, 0.99])
def test_power_sum_meets_its_documented_accuracy(order):
    # t^(order-1)/Gamma(order) to below 3e-14 relative on [delta, horizon];
    # delta/horizon = 1.5e-11 is the smallest cell of a cubic-graded grid of
    # 4,096 cells over its horizon
    horizon = 2.0
    delta = 1.5e-11 * horizon
    soe = ExpSum.power(order, delta, horizon)
    t = np.geomspace(delta, horizon, 1500)
    got = np.exp(-np.outer(t, soe.rates)) @ soe.weights()
    exact = np.array([x ** (order - 1.0) / math.gamma(order) for x in t])
    assert np.all(np.diff(soe.rates) > 0.0) and np.all(soe.weights() > 0.0)
    assert np.max(np.abs(got - exact) / exact) < 3e-14


def test_power_sum_of_order_one_is_the_exponent_zero():
    soe = ExpSum.power(1.0, 1e-3, 1.0)
    assert soe.rates.tolist() == [0.0] and soe.weights().tolist() == [1.0]


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
def test_mode_decay_is_its_mittag_leffler_sum(beta):
    # the public (r_l, W_lk) reproduce mode_decay bit for bit
    mu = np.geomspace(1.0, 1e4, 7)
    t = np.geomspace(1e-4, 1.0, 9)
    soe = ExpSum.mittag_leffler(beta, mu.min(), t.min(), t.max())
    W = soe.weights(mu)
    assert W.shape == (soe.rates.size, mu.size) and np.all(W > 0.0)
    assert np.array_equal(np.exp(-np.outer(t, soe.rates)) @ W, mode_decay(mu, beta, t))


@pytest.mark.parametrize("make", [
    lambda: ExpSum.power(0.5, 0.0, 1.0),
    lambda: ExpSum.power(0.5, 2.0, 1.0),
    lambda: ExpSum.power(0.5, 1e-3, math.inf),
    lambda: ExpSum.power(0.5, math.nan, 1.0),
    lambda: ExpSum.power(1.5, 1e-3, 1.0),
    lambda: ExpSum.mittag_leffler(1.0, 1.0, 1e-3, 1.0),
    lambda: ExpSum.mittag_leffler(0.5, 0.0, 1e-3, 1.0),
    lambda: ExpSum.mittag_leffler(0.5, math.nan, 1e-3, 1.0),
    lambda: ExpSum.mittag_leffler(0.5, 1.0, 0.0, 1.0),
])
def test_exp_sums_refuse_an_empty_or_broken_range(make):
    with pytest.raises(DomainError):
        make()
