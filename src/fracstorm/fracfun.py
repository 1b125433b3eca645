"""Special functions of fractional-order calculus.

Contents
--------
* ``mittag_leffler(beta, x)``      E_beta(x) = sum_k x^k / Gamma(1 + beta k)
* ``mittag_leffler_log(beta, x)``  log E_beta(x) for x >= 0 (huge arguments)
* ``mode_decay(mu, beta, t)``      E_beta(-mu_k t^beta) for many modes and times
* ``ExpSum``                       sums of exponentials (r_l, W_lk) for E_beta(-mu
                                   t^beta) per mode and for t^(gamma-1)/Gamma(gamma)
* ``stable_subordinator_density``  density g_beta of the standard beta-stable
                                   subordinator at time 1 (Laplace exponent s^beta)
* ``subordinator_small_u_law``,    its leading laws as u -> 0 and u -> inf
  ``subordinator_tail_law``
* ``inverse_subordinator_density`` density of the first-passage inverse E_t
* ``SampledFunction``              samples on a time grid from 0: the operators' input
* ``caputo_derivative``            order-beta Caputo derivative of sampled data
                                   (L1 rule, L1-2 quadratic on the cells next to t)
* ``fractional_integral``          order-gamma Riemann-Liouville integral of
                                   sampled data (exact cells next to t,
                                   ``ExpSum.power`` history)

Evaluation strategy for E_beta(-y), y > 0, 0 < beta < 1: the Taylor series
is used only for y <= 0.9 where alternating cancellation costs at most one
digit.  Beyond the seam the positive sum of exponentials
``ExpSum.mittag_leffler`` of the completely monotone form leaves no
cancellation and needs no asymptotic branch; the test suite checks it
against 30-digit values up to y = 1e8 (see ``mittag_leffler``) and at
y = 1e300 against the leading law 1/(Gamma(1-beta) y).

g_beta is evaluated from the exact single-integral representation

    g_beta(u) = beta/(pi (1-beta)) * u^(-1/(1-beta)) *
                int_0^pi A(phi) exp(-u^(-beta/(1-beta)) A(phi)) dphi,
    A(phi) = sin(beta phi)^(beta/(1-beta)) * sin((1-beta) phi)
             / sin(phi)^(1/(1-beta)),

for u < 1 and from the convergent reciprocal power series for u >= 1.
Closed forms for beta = 1/2 are kept out of the evaluation path so they can
serve as independent oracles in the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, number
from .quadrature import fixed_panel_nodes

__all__ = [
    "SampledFunction",
    "mittag_leffler",
    "mittag_leffler_log",
    "mode_decay",
    "ExpSum",
    "stable_subordinator_density",
    "subordinator_small_u_law",
    "subordinator_tail_law",
    "inverse_subordinator_density",
    "caputo_derivative",
    "fractional_integral",
]

_SERIES_SEAM = 0.9  # |x| at which the Taylor series hands over to mode_decay
_SERIES_DOUBLES = 1 << 18  # doubles per (points x terms) block of the Taylor series
#: doubles per exp(-t r) block and per weight block of ``mode_decay``, and
#: per moment-table kernel chunk
DECAY_CHUNK = 1 << 18


@dataclass(frozen=True)
class SampledFunction:
    """Function sampled on a strictly increasing time grid starting at 0.

    Between samples the function is treated as piecewise linear.
    ``fractional_integral`` integrates that interpolant (to 1e-13 of the
    integral of |g|).  ``caputo_derivative`` differentiates it too, except on
    the cells next to t, where it uses the quadratic through three samples:
    the interpolant's own O(h^(2-beta)) error there would dominate, and the
    operators are meant to invert each other on the sampled function, not
    on its interpolant.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, float)
        v = np.asarray(self.values, float)
        if t.ndim != 1 or v.shape != t.shape or t.size < 2:
            raise DomainError("SampledFunction needs matching 1-d times/values, >= 2 samples")
        if t[0] != 0.0:
            raise DomainError(f"times must start at 0.0, got {t[0]}")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise DomainError("SampledFunction requires finite samples")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def horizon(self):
        return float(self.times[-1])


def _lgamma(x):
    """log Gamma of each entry of a 1-d array, by math.lgamma (the series
    coefficient vectors are 512 to 20000 long: 0.1 to 4 ms a call)."""
    return np.fromiter(map(math.lgamma, x.tolist()), float, x.size)


def _ml_series(beta, x, kmax=512):
    """Taylor series of E_beta at a 1-d x, |x| <= ~1 (alternating part is
    benign), summed in blocks of points, each independent of the others."""
    k = np.arange(kmax)
    lg = _lgamma(1.0 + beta * k)
    sign = (-1.0) ** k
    out = np.empty(x.shape)
    step = _SERIES_DOUBLES // kmax  # kmax <= 20000 keeps this >= 13
    # one block-sized buffer: each block's term logs, then its terms in place
    block = np.empty((min(step, x.size), kmax))
    for lo in range(0, x.size, step):
        xb = x[lo:lo + step, None]
        ax = np.abs(xb)
        terms = np.multiply(k, np.log(np.where(ax > 0, ax, 1.0)), out=block[:len(xb)])
        terms[ax[:, 0] == 0] = np.where(k == 0, 0.0, -np.inf)
        terms -= lg
        np.exp(terms, out=terms)
        np.multiply(terms, sign, out=terms, where=xb < 0)
        out[lo:lo + step] = terms.sum(axis=-1)
    return out


def mittag_leffler(beta, x):
    """Mittag-Leffler function E_beta(x) for beta in (0, 1], real x.

    Accepts scalars or ndarrays.  E_1(x) = exp(x) exactly.  For x -> +inf the
    true value eventually exceeds the double range; the function then returns
    +inf (the nearest representable answer).  On -0.9 <= x < 0 the Taylor
    series is summed; every x < -0.9 of a call comes from one ``mode_decay``
    rule at t = 1 with modes -x, for any finite x.  Accuracy target 1e-10
    relative; on x < 0 the test suite holds it to 1e-13 against 30-digit
    values for orders 0.1 to 0.99 (5e-14 seen).  Near order 1 the rule has
    thousands of exponents (1,600 at 0.95, 7,700 at 0.99 for -x down to
    0.9), about 8 and 40 us per point; no moment solve or registry check
    runs at such orders.
    """
    b = number("beta", beta, 0.0, 1.0, "right")
    x = np.asarray(x, float)
    if not np.all(np.isfinite(x)):
        raise DomainError("mittag_leffler requires finite arguments")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if b == 1.0:
        out = np.exp(x)
    else:
        out = np.empty_like(x)
        far = x < -_SERIES_SEAM
        near = (x < 0.0) & ~far
        pos = x >= 0.0
        if far.any():
            # distinct values in ascending order: a point's bits do not
            # depend on where it sits in x (BLAS rounds by position)
            y, back = np.unique(-x[far], return_inverse=True)
            out[far] = mode_decay(y, b, 1.0)[back]
        if near.any():
            out[near] = _ml_series(b, x[near])
        if pos.any():
            # from x = 1e308^b on, log E_b(x) >= 1e308 and E_b(x) is inf: the
            # cap keeps the log finite
            with np.errstate(over="ignore"):
                out[pos] = np.exp(mittag_leffler_log(b, np.minimum(x[pos], 1e308 ** b)))
    return float(out[0]) if scalar else out


def mittag_leffler_log(beta, x):
    """log E_beta(x) for x >= 0, stable for arbitrarily large arguments.

    For x <= 40^beta the positive series is summed directly (its largest term
    stays below e^40 and its peak index 40/beta stays inside the summation
    window); beyond that the exponential asymptotic
    log E_beta(x) = x^(1/beta) - log(beta) holds with relative error below
    e^-40 of an e^40-sized value, far under double precision.  The seam is
    therefore exact to working precision.  NumericsError where x^(1/beta)
    is past the double range.
    """
    b = number("beta", beta, 0.0, 1.0, "right")
    x = np.asarray(x, float)
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("mittag_leffler_log requires finite x >= 0")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if b == 1.0:
        out = x.astype(float).copy()
    else:
        kmax = max(1024, int(120.0 / b))
        if kmax > 20000:
            raise NumericsError(
                f"mittag_leffler_log: order {b} too small for the series "
                "window (needs > 20000 terms)")
        out = np.empty_like(x)
        cut = 40.0 ** b
        lo = x <= cut
        if lo.any():
            out[lo] = np.log(_ml_series(b, x[lo], kmax=kmax))
        if (~lo).any():
            with np.errstate(over="ignore"):
                out[~lo] = x[~lo] ** (1.0 / b) - np.log(b)
            if not np.all(np.isfinite(out)):
                raise NumericsError(f"log E_beta(x) is past the double range at "
                                    f"beta={b!r}, x={float(x.max())!r}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# sums of exponentials
# ---------------------------------------------------------------------------

#: Taylor coefficients 1/(k+2)! of p(z) = (z - 1 + e^-z)/z^2 in powers of -z
_P_SERIES = np.array([1.0 / math.factorial(k) for k in range(2, 16)])


def _gauss_jacobi(n, beta):
    """n-point Gauss rule for int_-1^1 (1+y)^beta f(y) dy, -1 < beta < 0.

    Golub-Welsch on the Jacobi recurrence with numpy's eigensolver (scipy's
    ``roots_jacobi`` would import scipy.linalg, about 7 MB of resident memory).
    """
    k = np.arange(n, dtype=float)
    diag = beta * beta / ((2.0 * k + beta) * (2.0 * k + beta + 2.0))
    k = k[1:]
    off = np.sqrt(4.0 * k ** 2 * (k + beta) ** 2 / (
        (2.0 * k + beta) ** 2 * (2.0 * k + beta + 1.0) * (2.0 * k + beta - 1.0)))
    y, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return y, 2.0 ** (beta + 1.0) / (beta + 1.0) * vec[0] ** 2


def _exp_cell_weights(z):
    """p(z) = int_0^1 e^(-z v) (1-v) dv and q(z) = int_0^1 e^(-z v) v dv, z >= 0.

    The closed form of p cancels for small z, so p comes from its Taylor
    series below z = 0.5; q follows from p + q = (1 - e^-z)/z.
    """
    em = np.expm1(-z)
    zz = z * z
    p = np.divide(z + em, zz, out=np.empty_like(z), where=zz > 0.0)
    small = z < 0.5
    neg = -z[small]
    ps = np.full_like(neg, _P_SERIES[-1])
    for c in _P_SERIES[-2::-1]:
        ps *= neg
        ps += c
    p[small] = ps
    r = np.divide(-em, z, out=np.ones_like(z), where=z > 0.0)
    return p, r - p


@dataclass(frozen=True)
class ExpSum:
    """sum_l W_l e^(-r_l t) for t_min <= t <= t_max, exponents ``rates`` ascending.

    ``weights()`` gives W: ``coef`` for a ``power`` sum; for a
    ``mittag_leffler`` sum one column per mode mu_k, W_lk = coef_l / ((v_l /
    mu_k + 2 cos(pi beta)) v_l + mu_k) with v_l = ``powers``_l = r_l^beta.
    ``march`` advances the history states of the exponents.
    """

    rates: np.ndarray
    coef: np.ndarray
    powers: np.ndarray | None = None
    beta: float = 1.0

    @classmethod
    def mittag_leffler(cls, beta, mu_min, t_min, t_max):
        """E_beta(-mu t^beta), modes mu >= mu_min > 0, 0 < beta < 1, relative error < 1e-13
        (head <= 4e-14, rounding ~1e-14): W_lk = w_l K(r_l; mu_k) > 0, K = mu r^(beta-1)
        sin(pi beta) / (pi |r^beta e^(i pi beta) + mu|^2) the density in e^(-r t), on
        80-point Gauss-Legendre in r^beta up to 0.01 min(mu_min^(1/beta), 1/t_max), then
        14-point log-r panels to 45/t_min, 0.5 wide (x sin(pi beta), K's peak width, for
        beta > 1/2)."""
        b = number("beta", beta, 0.0, 1.0)
        t_min, t_max = float(t_min), float(t_max)
        if not (0.0 < t_min <= t_max < math.inf and mu_min > 0.0):  # refuses NaN too
            raise DomainError(f"mu_min > 0, 0 < t_min <= t_max < inf violated: "
                              f"{mu_min}, {t_min}, {t_max}")
        with np.errstate(over="ignore"):  # a huge mu_min leaves 1/t_max
            r_head = 0.01 * min(np.float64(mu_min) ** (1.0 / b), 1.0 / t_max)
        v, wv = fixed_panel_nodes([0.0, r_head ** b], n=80)
        u0, u1 = np.log(r_head), np.log(45.0 / t_min)
        width = 0.5 * (np.sin(np.pi * b) if b > 0.5 else 1.0)
        u, wu = fixed_panel_nodes(np.linspace(u0, u1, int(np.ceil((u1 - u0) / width)) + 1), 14)
        # K dr = sin(pi b) / (pi (v^2/mu + 2 v cos(pi b) + mu)) (dv / b head, v du
        # panels); no term of that denominator overflows for a finite mu
        return cls(np.concatenate([v ** (1.0 / b), np.exp(u)]),
                   np.sin(np.pi * b) / np.pi * np.concatenate([wv / b, wu * np.exp(b * u)]),
                   np.concatenate([v, np.exp(b * u)]), b)

    @classmethod
    def power(cls, order, t_min, t_max):
        """t^(order-1)/Gamma(order), 0 < order <= 1, relative error below 3e-14 (a few
        1e-15 for orders up to 0.99): t^(order-1) = 1/Gamma(1-order) int_0^inf s^(-order)
        e^(-s t) ds on 6 Gauss-Jacobi nodes (weight s^-order) in [0, 1/t_max] and 14-point
        Gauss-Legendre panels, 2 wide in log s, to 45/t_min, beyond which the integrand
        is below e^-45 of its scale.  Order 1 is the single exponent 0."""
        gam = number("order", order, 0.0, 1.0, "right")
        delta, horizon = float(t_min), float(t_max)
        if not 0.0 < delta <= horizon < math.inf:  # refuses NaN too
            raise DomainError(f"0 < t_min <= t_max < inf violated: {t_min}, {t_max}")
        if gam == 1.0:
            return cls(np.zeros(1), np.ones(1))
        y, wy = _gauss_jacobi(6, -gam)
        lo, hi = -np.log(horizon), np.log(45.0 / delta)
        u, wu = fixed_panel_nodes(np.linspace(lo, hi, int(np.ceil((hi - lo) / 2.0)) + 1), n=14)
        s = np.concatenate([(1.0 + y) / (2.0 * horizon), np.exp(u)])
        w = np.concatenate([wy * (2.0 * horizon) ** (gam - 1.0), wu * np.exp((1.0 - gam) * u)])
        return cls(s, np.sin(np.pi * gam) / np.pi * w)

    def weights(self, mu=None):
        """Fixed weights (``power``), or W (rates x modes) for a block of modes mu."""
        if self.powers is None:
            return self.coef
        v, m = self.powers[:, None], np.asarray(mu, float)
        return self.coef[:, None] / ((v / m + 2.0 * np.cos(np.pi * self.beta)) * v + m)

    def march(self, times, n=None):
        """advance(U(times[0]), g on times) -> U(times[-1]) for the states U_l(t) =
        int_0^t e^(-r_l (t - tau)) g(tau) dtau, l < n, of a piecewise-linear g."""
        s = self.rates[:n]
        h = np.diff(times)[:, None]
        p, q = _exp_cell_weights(h * s)
        decay = np.exp(-(times[-1] - times[1:])[:, None] * s)
        block_decay = np.exp(-(times[-1] - times[0]) * s)

        def advance(state, values):
            # int over cell i of e^(-s (t_(i+1) - tau)) g, then decay to the block end
            cells = h * (values[1:, None] * p + values[:-1, None] * q)
            return block_decay * state + np.einsum("ij,ij->j", decay, cells)

        return advance


def mode_decay(mu, beta, t):
    """E_beta(-mu_k t^beta) for modes mu_k > 0 at time(s) t > 0, one row per time:
    exp(-outer(t, r)) @ W of one ``ExpSum.mittag_leffler`` for the call, formed
    in blocks of DECAY_CHUNK doubles of exp(-t r) and of W.  beta = 1 is exact.
    """
    b = number("beta", beta, 0.0, 1.0, "right")
    ts = np.asarray(t, float)
    if ts.ndim > 1 or not np.all(np.isfinite(ts) & (ts > 0.0)):
        raise DomainError(f"times must be positive and finite, got {t}")
    ts, mu = np.atleast_1d(ts), np.asarray(mu, float)
    if b == 1.0:
        return np.exp(-np.outer(ts, mu)) if np.ndim(t) else np.exp(-mu * ts[0])
    soe = ExpSum.mittag_leffler(b, mu.min(), ts.min(), ts.max())
    step = max(1, DECAY_CHUNK // soe.rates.size)
    out = np.empty((ts.size, mu.size))
    for k in range(0, mu.size, step):
        W = soe.weights(mu[k:k + step])
        for i in range(0, ts.size, step):
            out[i:i + step, k:k + step] = np.exp(-np.outer(ts[i:i + step], soe.rates)) @ W
    return out if np.ndim(t) else out[0]


# ---------------------------------------------------------------------------
# one-sided stable subordinator density
# ---------------------------------------------------------------------------

def _zolotarev_log_a(beta, phi):
    ob = 1.0 - beta
    return (beta / ob) * np.log(np.sin(beta * phi)) \
        + np.log(np.sin(ob * phi)) - np.log(np.sin(phi)) / ob


def _g_small_u(beta, u):
    """Kanter integral, exact for all u; used on u < 1 where it is best behaved.
    The prefactor u^(-1/(1-beta)) sits in the exponent: the left tail underflows to 0.0.
    Panels: geometric towards 0 and pi, 0.034 pi wide on [0.25 pi, 0.9 pi] where u ~ 1 peaks."""
    ob = 1.0 - beta
    half = np.geomspace(1e-12, 0.5, 44) * np.pi
    edges = np.unique(np.concatenate([[0.0], half, np.pi - half[::-1], [np.pi],
                                      np.linspace(0.25, 0.9, 20) * np.pi]))
    phi, w = fixed_panel_nodes(edges, n=16)
    la = _zolotarev_log_a(beta, phi)
    with np.errstate(over="ignore", under="ignore"):
        c = u ** (-beta / ob)
        f = np.exp(la[:, None] - c[None, :] * np.exp(la)[:, None]
                   - np.log(u)[None, :] / ob)
    return beta / (np.pi * ob) * (w @ f)


_G_TERMS = 700  # terms of the large-u series of g_beta


def _g_large_u(beta, log_power):
    """Reciprocal power series sum_k (-1)^(k+1) Gamma(beta k + 1)/k! sin(pi beta k) u^(-beta k - 1) / pi,
    a row per point, with log_power(k) the logs of the powers u^(-beta k - 1)."""
    k = np.arange(1, _G_TERMS + 1)
    lg = _lgamma(beta * k + 1.0) - _lgamma(k + 1.0)
    sk = np.sin(np.pi * beta * k) * (-1.0) ** (k + 1)
    terms = sk[None, :] * np.exp(lg[None, :] + log_power(k))
    tail = np.abs(terms[:, -1])
    s = terms.sum(axis=1) / np.pi
    if np.any(tail > 1e-14 * np.maximum(np.abs(s) * np.pi, 1e-300)):
        raise NumericsError("subordinator series failed to converge; beta too close to 1")
    return s


def stable_subordinator_density(beta, u):
    """Density g_beta(u) of the standard one-sided beta-stable law, beta in (0,1).

    Laplace transform int_0^inf e^(-s u) g_beta(u) du = exp(-s^beta).
    Positive on u > 0; tiny left-tail values below the double floor are
    reported as 0.0.  Scalar or ndarray u.
    """
    b = number("beta", beta, 0.0, 1.0)
    u = np.asarray(u, float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(~np.isfinite(u)) or np.any(u <= 0.0):
        raise DomainError("stable_subordinator_density requires u > 0")
    out = np.empty_like(u)
    lo = u < 1.0
    if lo.any():
        out[lo] = _g_small_u(b, u[lo])
    if (~lo).any():
        out[~lo] = _g_large_u(b, lambda k: -(b * k + 1.0) * np.log(u[~lo])[:, None])
    return float(out[0]) if scalar else out


def subordinator_small_u_law(beta, u):
    """Leading small-u law K (beta/u)^((1-beta/2)/(1-beta)) exp(-(1-beta)(u/beta)^(-beta/(1-beta))).

    The prefactor K = (2 pi beta (1-beta))^(-1/2) is the steepest-descent
    constant; it reproduces the beta=1/2 closed form exactly and is validated
    against the density's normalization in the tests.
    """
    b = number("beta", beta, 0.0, 1.0)
    u = np.asarray(u, float)
    ob = 1.0 - b
    K = 1.0 / np.sqrt(2.0 * np.pi * b * ob)
    return K * (b / u) ** ((1.0 - b / 2.0) / ob) * np.exp(-ob * (u / b) ** (-b / ob))


def subordinator_tail_law(beta, u):
    """Leading large-u law beta/Gamma(1-beta) * u^(-beta-1)."""
    b = number("beta", beta, 0.0, 1.0)
    u = np.asarray(u, float)
    return b / math.gamma(1.0 - b) * u ** (-b - 1.0)


def inverse_subordinator_density(beta, t, x):
    """Density f_{E_t}(x) of the inverse subordinator E_t = inf{r : D_r > t}.

    f_{E_t}(x) = (t/beta) x^(-1-1/beta) g_beta(t x^(-1/beta)) for x > 0 and
    0 for x <= 0 (the support convention), t > 0.  The Laplace identity
    int_0^inf e^(-mu x) f_{E_t}(x) dx = E_beta(-mu t^beta) ties this to the
    Mittag-Leffler function and is enforced as a test oracle.  Where the
    factor (t/beta) x^(-1-1/beta) passes the double range (and u = t x^(-1/beta)
    with it), it multiplies the large-u series of g_beta through:
    f = sum_k (-1)^(k+1) Gamma(beta k + 1)/k! sin(pi beta k) t^(-beta k) x^(k-1) / (pi beta),
    which tends to t^(-beta)/Gamma(1-beta) as x -> 0.
    """
    b = number("beta", beta, 0.0, 1.0)
    t = number("t", t, 0.0, math.inf)
    x = np.asarray(x, float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(~np.isfinite(x)):
        raise DomainError("inverse_subordinator_density requires finite x")
    out = np.zeros(x.shape)
    pos = x > 0.0
    xp = x[pos]
    with np.errstate(over="ignore", invalid="ignore"):  # t/b = inf times 0 is NaN, not far
        f = (t / b) * xp ** (-1.0 - 1.0 / b)
    far = np.isinf(f)
    if np.any(far):
        lx = np.log(xp[far])[:, None]
        f[far] = _g_large_u(b, lambda k: (k - 1.0) * lx - (b * math.log(t)) * k) / b
    if not np.all(far):
        f[~far] *= stable_subordinator_density(b, t * xp[~far] ** (-1.0 / b))
    out[pos] = f
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Caputo derivative and Riemann-Liouville integral of sampled data
# ---------------------------------------------------------------------------

def _last_cells(times, ts):
    """Index ``last`` per time, with times[last-1] < t <= times[last]."""
    inside = (ts > times[0]) & (ts <= times[-1])
    if not np.all(inside):
        raise DomainError(
            f"evaluation time {ts[~inside][0]} outside sampled range "
            f"({times[0]}, {times[-1]}]"
        )
    return np.searchsorted(times, ts, side="left")


def caputo_derivative(g, beta, t):
    """Caputo derivative of order beta in (0,1) of sampled data at time(s) t.

    D^beta g(t) = 1/Gamma(1-beta) int_0^t g'(r) (t-r)^(-beta) dr.  On cells
    left of t/2, where the kernel is smooth, g is the piecewise-linear
    interpolant of the samples (the L1 rule).  On cells in [t/2, t], next to
    the kernel's singularity, g is the quadratic through the cell and the node
    left of it (the L1-2 rule of Gao, Sun & Zhang): the linear part plus
    g[t_(i-1), t_i, t_(i+1)] (r - t_i)(r - t_(i+1)).  The product integrals
    of the power kernel against both parts are evaluated in closed form.
    Data linear in t is differentiated exactly.  For smooth g on a uniform
    grid the error is O(h^2), from the L1 cells; the L1-2 cells are
    O(h^(3-beta)), where the L1 rule alone would be O(h^(2-beta)).  Only cells
    in [t/2, t] are corrected: the second divided difference of a t^beta-like
    cusp at 0 is huge, and its closed-form product integral on a tiny cell far
    from t would cancel catastrophically.  Narrow cells cancel too: on rough data
    over cell widths 1e-7 to 1e-2 the error is < 1e-6 (2e-7 seen) of sum |cell terms|.
    """
    if not isinstance(g, SampledFunction):
        raise DomainError("caputo_derivative expects a SampledFunction")
    b = number("beta", beta, 0.0, 1.0)
    ts = np.atleast_1d(np.asarray(t, float))
    scalar = np.ndim(t) == 0
    times = g.times
    slopes = np.diff(g.values) / np.diff(times)
    # second divided differences g[t_(i-1), t_i, t_(i+1)] for cells i >= 1
    curv = np.zeros_like(slopes)
    curv[1:] = np.diff(slopes) / (times[2:] - times[:-2])
    b1, b2 = 1.0 - b, 2.0 - b
    lasts = _last_cells(times, ts)
    firsts = np.maximum(np.searchsorted(times, 0.5 * ts, side="left"), 1)
    out = np.empty_like(ts)
    for i, (ti, last, first) in enumerate(zip(ts, lasts, firsts)):
        wa = ti - times[:last]
        wf = ti - times[1:last + 1]  # negative on a cell that t cuts short
        wc = np.maximum(wf, 0.0)
        pa = wa ** b1
        pc = wc ** b1
        # elementwise sums: a threaded BLAS dot costs more than it saves here
        total = (slopes[:last] * (pa - pc)).sum() / b1
        if first < last:
            # int_wc^wa (wa + wf - 2w) w^(-beta) dw, with w = t - r
            n = slice(first, last)
            quad = ((wa[n] + wf[n]) * (pa[n] - pc[n]) / b1
                    - 2.0 * (wa[n] * pa[n] - wc[n] * pc[n]) / b2)
            total += (curv[n] * quad).sum()
        out[i] = total / math.gamma(b1)
    return float(out[0]) if scalar else out


#: grid cells per block of the history march of ``fractional_integral``; a
#: query integrates its last 2 to B + 1 cells exactly.
_HISTORY_BLOCK = 64
#: doubles per working array of a chunk of queries (bounds the extra memory)
_QUERY_CHUNK = 16384


def fractional_integral(g, order, t):
    """Riemann-Liouville integral of order in (0, 1] of sampled data at time(s) t.

    I^gamma g(t) = 1/Gamma(gamma) int_0^t (t-tau)^(gamma-1) g(tau) dtau of
    the piecewise-linear interpolant g, at any t in (0, T]: a scalar, or an
    array in any order, on or off the nodes.  The grid is cut into blocks of
    _HISTORY_BLOCK cells.  The cells from the last block edge at or before
    the cell two back from t up to t are integrated exactly, in a closed form
    that does not cancel.  The older history uses the sum-of-exponentials
    kernel ``ExpSum.power`` (relative error below 3e-14 at the distances it
    sees, which exceed the smallest cell width), marched from edge to edge in
    O(cells x exponents) work and O(block x exponents) memory.  The result
    agrees with the exact cell-by-cell integral to within 1e-13 of
    I^gamma |g|(t).  Order 1 is the plain integral, with the one exponent 0.
    """
    if not isinstance(g, SampledFunction):
        raise DomainError("fractional_integral expects a SampledFunction")
    gam = number("order", order, 0.0, 1.0, "right")  # order 1 reduces to the plain integral
    ts = np.atleast_1d(np.asarray(t, float))
    scalar = np.ndim(t) == 0
    times, values = g.times, g.values
    n = times.size - 1
    h = np.diff(times)
    slopes = np.diff(values) / h
    lasts = _last_cells(times, ts)
    B = _HISTORY_BLOCK
    edges = np.maximum(lasts - 2, 0) // B  # block edge index, in blocks
    soe = ExpSum.power(gam, float(h.min()), g.horizon)
    # history states at the block edges t_k, k = m B; a state at t_k is used only
    # beyond h_k after it, where exponents s_j > 45/h_k weigh < e^-45: left at 0
    nblocks = int(edges.max(initial=0))
    states = np.zeros((nblocks + 1, soe.rates.size))
    kept = np.zeros(nblocks + 1, dtype=int)
    for m in range(nblocks):
        k0, k1 = m * B, (m + 1) * B
        J = kept[m + 1] = np.searchsorted(soe.rates, 45.0 / h[k1], side="right")
        states[m + 1, :J] = soe.march(times[k0:k1 + 1], J)(states[m, :J], values[k0:k1 + 1])
    offsets = np.arange(B + 1)
    out = np.empty_like(ts)
    step = max(1, _QUERY_CHUNK // max(soe.rates.size, B + 1))
    for lo in range(0, ts.size, step):
        q = slice(lo, lo + step)
        tq, kb = ts[q], edges[q] * B
        # exact part: cells kb .. last-1, each [t - wa, t - wc] in w = t - tau.
        # There g = g_a + slope (wa - w), so the cell's integral is
        #   g_a D(g)/g + slope (wa D(g)/g - D(g+1)/(g+1)),  D(p) = wa^p - wc^p.
        # On a cell narrow against wa the difference cancels, so it is taken
        # as D(p) = -wa^p expm1(p log1p(-width/wa)) there.
        idx = kb[:, None] + offsets
        cells = np.minimum(idx, n - 1)
        a = times[cells]
        c = np.minimum(times[cells + 1], tq[:, None])
        wa = np.maximum(tq[:, None] - a, 0.0)
        wc = tq[:, None] - c
        width = np.where(idx < lasts[q, None], c - a, 0.0)
        narrow = width < 0.5 * wa
        lr = np.log1p(-np.divide(width, wa, out=np.zeros_like(wa), where=narrow))
        pa, pc = wa ** gam, wc ** gam
        d0 = np.where(narrow, -pa * np.expm1(gam * lr), pa - pc) / gam
        d1 = np.where(narrow, -wa * pa * np.expm1((gam + 1.0) * lr),
                      wa * pa - wc * pc) / (gam + 1.0)
        local = (values[cells] * d0 + slopes[cells] * (wa * d0 - d1)).sum(axis=1)
        J = kept[edges[q]].max()
        decay = np.exp(-(tq - times[kb])[:, None] * soe.rates[:J])
        out[q] = (local / math.gamma(gam)
                  + np.einsum("ij,ij,j->i", decay, states[edges[q], :J], soe.weights()[:J]))
    return float(out[0]) if scalar else out
