"""Transition densities and subordinated heat kernels.

Free space
----------
``stable_density`` evaluates the symmetric alpha-stable transition density
p(t, x) on the line, with Fourier transform exp(-t nu |xi|^alpha): the
Gaussian closed form at alpha = 2, and otherwise one Bochner subordination
sum of Gaussians against the package's own ``stable_subordinator_density``.
The time-fractional free kernel is the subordination mixture

    G_t(x) = int_0^inf p(s, x) f_{E_t}(s) ds,

whose squared L2 norm obeys  int G_t(x)^2 dx = C(alpha,beta,nu) t^(-beta/alpha)
with

    C = nu^(-1/alpha) (2 pi)^(-1) (2/alpha) int_0^inf z^(1/alpha - 1) E_beta(-z)^2 dz,

valid for 1 < 2 alpha; ``green_l2_constant`` evaluates C and
``free_kernel_l2`` integrates the kernel directly so the law can be checked
through two independent routes.  The module runs on numpy alone.

Bounded interval
----------------
The generator -nu (-Lap)^(alpha/2) with zero exterior condition is
discretized on the cell-centered grid (second differences with ghost-cell
reflection for alpha = 2; quadrature of the singular integral with a
second-order near-field correction and exact far-field exterior mass for
alpha < 2).  Its eigensystem yields two representations of the Dirichlet
time-fractional kernel:

    spectral:       G_B(t,x,y) = sum_n E_beta(-mu_n t^beta) phi_n(x) phi_n(y)
    subordination:  G_B(t,x,y) = int_0^inf p_B(s,x,y) f_{E_t}(s) ds

which must agree; the test suite enforces this.  ``apply_semigroup`` is the
field action G_B(t) v, at one time or at an array of times; it is the only
evaluation of the deterministic part G_B u0 in the package.  It, G_B(t) and
every lag table take E_beta(-mu_n t^beta) from ``fracfun.mode_decay``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError, number
from .fracfun import (inverse_subordinator_density, mittag_leffler, mode_decay,
                      stable_subordinator_density)
from .params import SpaceGrid
from .quadrature import adaptive_gauss, fixed_panel_nodes, integrate_semi_infinite

__all__ = [
    "EigenSystem",
    "stable_density",
    "fractional_free_kernel",
    "green_l2_constant",
    "free_kernel_l2",
    "build_discrete_generator",
    "eigen_system",
    "dirichlet_fractional_kernel",
    "dirichlet_kernel_subordination",
    "apply_semigroup",
    "riesz_kernel_matrix",
    "estimate_floor_constant",
]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of the discrete killed generator on a SpaceGrid.

    mu:   ascending positive eigenvalues, shape (n,)
    phi:  columns phi[:, k] are eigenvectors, orthonormal under the
          h-weighted inner product  h * sum_i phi_n(x_i) phi_m(x_i) = delta_nm
    grid: the underlying grid
    """

    mu: np.ndarray
    phi: np.ndarray
    grid: SpaceGrid

    def __post_init__(self):
        mu = np.asarray(self.mu, float)
        if np.any(np.diff(mu) < 0) or mu[0] <= 0.0:
            raise DomainError("eigenvalues must be ascending and strictly positive")


# ---------------------------------------------------------------------------
# free-space stable density
# ---------------------------------------------------------------------------

_ALPHA_RANGE = (0.5, 1.95)  # where the tests verify the sum; alpha = 2 is closed form
_TABLE_ALPHA_MIN = 0.7  # the table is within 1e-9 of the sum from here to 1.95
_U_MAX = 1e16  # last panel edge in u; g's power tail beyond it is closed form
#: the node mass misses 1 by at most 7.8e-16 over alpha in [0.5, 1.95] in steps of
#: 0.01 (worst at alpha = 0.53); a g_beta off by 1e-12 relative would miss it
_MASS_TOL = 1e-14
_SUM_BLOCK = 256  # points per (points x nodes) block of the sum: 5.6 MB
_TABLE_Y, _TABLE_NODES = 400.0, 2048
#: z past which stable_density takes the large-z series: over alpha in [0.5, 1.95] in
#: steps of 0.01 the series and the sum agree to 4.3e-15 relative for z in [5e2, 1.6e4],
#: and the sum drifts from there (1e-12 at z = 1e5, 4e-9 at 1e6)
_SERIES_Z = 2e3
_LINES: dict = {}


def _power_series(gamma, sine):
    """k = 1..8 and (-1)^(k+1) Gamma(gamma k + 1) sin(pi sine k) / (pi k!): the
    large-argument series of g_beta (gamma = sine = beta) and of p_alpha(1, .)
    (gamma = alpha, sine = alpha/2)."""
    k = np.arange(1, 9)
    lg = np.array([math.lgamma(gamma * j + 1.0) - math.lgamma(j + 1.0) for j in k])
    return k, (-1.0) ** (k + 1) * np.exp(lg) * np.sin(np.pi * sine * k) / np.pi


class _StableLine:
    """p_alpha(1, .) at nu = 1 for one alpha, by Bochner subordination (Sato,
    Levy Processes and Infinitely Divisible Distributions, sec. 30):
    p_alpha(1, z) = int_0^inf g_{alpha/2}(u) (4 pi u)^(-1/2) e^(-z^2/(4u)) du.

    ``sum`` takes it on Gauss panels over [1e-6, 1e16], 4 per decade and 0.04
    wide in log u on [e^-3, e^3], where g_{alpha/2} peaks and narrows as
    alpha -> 2; g's power tail beyond 1e16 is closed form.  NumericsError
    outside _ALPHA_RANGE (g's series refuses alpha = 1.99) or where the node
    mass misses 1 by more than _MASS_TOL.  ``table``, for the free-kernel
    mixture, is cubic Hermite in v = log(1 + y) of log p to y = 400, filled
    from ``sum`` and its exact derivative, and p's large-y series (``series``)
    beyond; NumericsError below _TABLE_ALPHA_MIN (6e-8 from ``sum`` at alpha = 0.5).
    """

    def __init__(self, alpha, where):
        if not _ALPHA_RANGE[0] <= alpha <= _ALPHA_RANGE[1]:
            raise NumericsError(f"stable density is verified for alpha in "
                                f"{list(_ALPHA_RANGE)} and 2 only: {where}")
        b = 0.5 * alpha
        edges = np.concatenate([np.geomspace(1e-6, math.exp(-3.0), 20),
                                np.exp(np.linspace(-3.0, 3.0, 151))[1:-1],
                                np.geomspace(math.exp(3.0), _U_MAX, 60)])
        u, w = fixed_panel_nodes(edges, n=12)
        wg = w * stable_subordinator_density(b, u)
        k, c = _power_series(b, b)
        miss = abs(wg.sum() + np.sum(c * _U_MAX ** (-b * k) / (b * k)) - 1.0)
        if not miss <= _MASS_TOL:
            raise NumericsError(f"subordination nodes miss unit mass by {miss:.2e}: {where}")
        s = b * k + 0.5
        self.tail = np.sum(c * _U_MAX ** -s / s) / math.sqrt(4.0 * np.pi)
        self.u = u
        self.cols = np.stack([wg, wg / u], axis=1) / np.sqrt(4.0 * np.pi * u)[:, None]
        self.alpha, self.dv = alpha, math.log1p(_TABLE_Y) / (_TABLE_NODES - 1)
        y = np.expm1(self.dv * np.arange(_TABLE_NODES))
        p, dp = self.sum(y)
        self.logp, self.dlogp = np.log(p), self.dv * (1.0 + y) * dp / p
        self.coefs = np.concatenate([[0.0], _power_series(alpha, b)[1]])

    def sum(self, z):
        """p_alpha(1, z) and its z-derivative on a 1-d array z >= 0."""
        p, dp = np.empty(z.shape), np.empty(z.shape)
        for lo in range(0, z.size, _SUM_BLOCK):
            zb = z[lo:lo + _SUM_BLOCK]
            m = np.exp(np.multiply.outer(zb * zb, -0.25 / self.u)) @ self.cols
            p[lo:lo + _SUM_BLOCK] = m[:, 0] + self.tail
            dp[lo:lo + _SUM_BLOCK] = -0.5 * zb * m[:, 1]
        return p, dp

    def table(self, y):
        """p_alpha(1, y) on an array y >= 0 from the table and the series."""
        if self.alpha < _TABLE_ALPHA_MIN:
            raise NumericsError(f"free-kernel table is verified for alpha in [{_TABLE_ALPHA_MIN}, "
                                f"{_ALPHA_RANGE[1]}] and 2 only: alpha={self.alpha!r}")
        out = np.empty_like(y)
        near = y <= _TABLE_Y
        v = np.log1p(y[near]) / self.dv
        i = np.minimum(v.astype(np.intp), _TABLE_NODES - 2)
        s = v - i
        r = 1.0 - s
        f0, f1, d0, d1 = self.logp[i], self.logp[i + 1], self.dlogp[i], self.dlogp[i + 1]
        out[near] = np.exp((f0 * (1.0 + 2.0 * s) + d0 * s) * r * r
                           + (f1 * (3.0 - 2.0 * s) - d1 * r) * s * s)
        out[~near] = self.series(y[~near])
        return out

    def series(self, y):
        """p_alpha(1, y) on an array y > 0 from its first 8 large-y terms; 0.0 at inf."""
        return np.polynomial.polynomial.polyval(y ** -self.alpha, self.coefs) / y


def _line(alpha, tn):
    """The _StableLine of alpha, built once; its errors name alpha and t nu."""
    a = float(alpha)
    if a not in _LINES:
        _LINES[a] = _StableLine(a, f"alpha={alpha!r}, t nu={tn!r}")
    return _LINES[a]


def stable_density(alpha, nu, t, x):
    """Symmetric alpha-stable density p(t, x) on the line, Fourier symbol
    exp(-t nu |xi|^alpha); x a scalar or an array.

    alpha = 2 is the Gaussian with variance 2 nu t; every other alpha is
    p(t, x) = s p(1, s|x|), s = (t nu)^(-1/alpha), by ``_StableLine.sum``.
    Tested within 1e-11 of 30-digit Fourier inversion and of the closed forms
    at alpha = 1 and x = 0.  Past z = s|x| = _SERIES_Z, where the two agree to
    rounding, p(1, z) is the large-z series, which is 0.0 where z or the
    density is past the double range.
    alpha outside [0.5, 1.95] but 2, or s past the double range: NumericsError.
    """
    a = number("alpha", alpha, 0.0, 2.0, "right")
    nu = number("nu", nu, 0.0, math.inf)
    t = number("t", t, 0.0, math.inf)
    x = np.asarray(x, float)
    if not np.all(np.isfinite(x)):
        raise DomainError("displacement x must be finite")
    r = np.abs(np.atleast_1d(x))
    if a == 2.0:
        out = (4.0 * np.pi * nu * t) ** -0.5 * np.exp(-r * r / (4.0 * nu * t))
    else:
        tn = t * nu
        with np.errstate(over="ignore", divide="ignore"):    # a t nu underflown to 0 gives inf
            scale = np.float64(tn) ** (-1.0 / a)
        if not 0.0 < scale < math.inf:
            raise NumericsError(f"density scale (t nu)^(-1/alpha) is past the double "
                                f"range at alpha={alpha!r}, t nu={tn!r}")
        with np.errstate(over="ignore"):    # a z past the double range is inf
            z = scale * r.ravel()
        line, far = _line(a, tn), z > _SERIES_Z
        p = np.empty(z.shape)
        p[~far], p[far] = line.sum(z[~far])[0], line.series(z[far])
        out = scale * p.reshape(r.shape)
    return float(out[0]) if x.ndim == 0 else out


def _p_free(params, s, x):
    """p(s, x) vectorized over the outer product of s and x (alpha < 2: the table)."""
    a, nu = params.alpha, params.nu
    s = np.atleast_1d(np.asarray(s, float))
    r = np.abs(np.asarray(x, float))
    if a == 2.0:
        sn = nu * s[:, None]
        return (4.0 * np.pi * sn) ** -0.5 * np.exp(-r[None, :] ** 2 / (4.0 * sn))
    scale = (nu * s) ** (-1.0 / a)
    return scale[:, None] * _line(a, 1.0).table(scale[:, None] * r[None, :])


def fractional_free_kernel(params, t, x):
    """Time-fractional free kernel G_t(x) = int p(s, x) f_{E_t}(s) ds.

    x scalar or array of displacement magnitudes.  In the classical limit
    (beta = 1) the subordinator degenerates and G_t = p(t, .).  At x = 0 the
    mixture converges only for alpha > 1.  For beta < 1 it is verified for
    alpha in [0.7, 1.95] and 2; other alpha raise NumericsError.
    """
    t = number("t", t, 0.0, math.inf)
    x = np.asarray(x, float)
    if not np.all(np.isfinite(x)):
        raise DomainError("displacement x must be finite")
    if np.any(x == 0.0) and params.alpha <= 1.0 and not params.classical:
        raise DomainError(f"free kernel diverges at x=0 for alpha <= 1 (alpha={params.alpha})")
    vals = _free_kernel_at(params, t)(np.atleast_1d(x))
    return float(vals[0]) if x.ndim == 0 else vals


def _free_kernel_at(params, t):
    """x -> G_t(x) on a 1-d array of |x|; f_{E_t}(s), which depends only on
    (beta, t), is evaluated once here for every later x."""
    if params.classical:
        return lambda xv: np.atleast_1d(stable_density(params.alpha, params.nu, t, xv))
    b = float(params.beta)
    tb = t ** b
    # f_{E_t} lives on s ~ t^beta; panels cover both its flat head and
    # stretched-exponential tail.
    edges = tb * np.geomspace(1e-8, 2e3, 220)
    s, w = fixed_panel_nodes(np.concatenate([[tb * 1e-9], edges]), n=10)
    wf = w * inverse_subordinator_density(b, t, s)
    return lambda xv: wf @ _p_free(params, s, xv)


def green_l2_constant(params):
    """Constant C in the free-kernel L2 law  int G_t^2 dx = C t^(-beta/alpha).

    C = nu^(-1/alpha) 2 pi^(1/2) / (alpha Gamma(1/2)) (2 pi)^(-1)
        int_0^inf z^(1/alpha-1) E_beta(-z)^2 dz,   requires 1 < 2 alpha.
    """
    a, b, nu = float(params.alpha), float(params.beta), params.nu
    if not 1.0 < 2.0 * a:
        raise DomainError(f"L2 law requires 1 < 2*alpha, got alpha={a}")
    p = 1.0 / a

    # z = v^(1/p) flattens the z^(p-1) head; z = r^(-1/(2-p)) flattens the
    # E^2 ~ z^(-2) tail.  Both pieces become bounded integrands on (0, 1).
    def head(v):
        e = mittag_leffler(b, -(v ** (1.0 / p)))
        return e * e

    s = 1.0 / (2.0 - p)

    def tail(r):
        e = mittag_leffler(b, -(r ** -s))
        return e * e * r ** (-s * p - 1.0)

    integral = (adaptive_gauss(head, 0.0, 1.0, tol=1e-12) / p
                + s * adaptive_gauss(tail, 0.0, 1.0, tol=1e-12))
    front = nu ** (-p) * 2.0 * np.pi ** 0.5 / (a * math.gamma(0.5))
    return front * (2.0 * np.pi) ** -1.0 * integral


def free_kernel_l2(params, t):
    """Direct quadrature of int_R G_t(x)^2 dx (the independent route).

    Requires alpha > 1 so the kernel stays bounded at the origin; the law
    itself extends to alpha > 1/2 but this direct check does not chase the
    origin singularity.  The integral is twice the one over the half-line.
    """
    t = number("t", t, 0.0, math.inf)
    if not 1.0 < params.alpha:
        raise DomainError(f"direct L2 quadrature needs alpha > 1, got alpha={params.alpha}")

    kernel = _free_kernel_at(params, t)

    def gsq(r):
        g = kernel(r)
        return 2.0 * g * g

    # integrate on (0, inf), rescaled so the kernel's natural width sits at O(1)
    scale = (params.nu * t ** float(params.beta)) ** (1.0 / params.alpha)
    return integrate_semi_infinite(lambda u: gsq(u * scale) * scale, tol=1e-9)


# ---------------------------------------------------------------------------
# discrete Dirichlet generator and eigensystem
# ---------------------------------------------------------------------------

def build_discrete_generator(params, grid):
    """Matrix of nu (-Lap)^(alpha/2) on the grid with zero exterior condition.

    alpha = 2: standard second difference; the Dirichlet value at the cell
    face +-R enters through ghost-cell reflection (u_ghost = -u_edge), which
    keeps second-order accuracy on the staggered grid.

    alpha < 2: quadrature of the singular integral

        (-Lap)^(a/2) u(x) = C_a PV int (u(x) - u(x+z)) |z|^(-1-a) dz,
        C_a = a 2^(a-1) Gamma((1+a)/2) / (sqrt(pi) Gamma(1-a/2)),

    symmetrized in z.  Cell-midpoint weights w_m = int_cell z^(-1-a) dz for
    |z| >= h/2, a second-order near-field correction -u''(x) (h/2)^(2-a)/(2-a)
    for |z| < h/2, and the exact exterior mass (R -+ x)^(-a)/a where the
    zero extension is known analytically.  The result is symmetric and
    positive definite (checked by eigen_system).
    """
    if grid.R != params.R:
        raise DomainError("grid.R must match params.R")
    a, nu, n, h = float(params.alpha), params.nu, grid.n, grid.h
    if a == 2.0:
        A = np.zeros((n, n))
        idx = np.arange(n)
        A[idx, idx] = 2.0
        A[idx[:-1], idx[:-1] + 1] = -1.0
        A[idx[1:], idx[1:] - 1] = -1.0
        A[0, 0] = A[n - 1, n - 1] = 3.0  # ghost reflection at the walls
        return (nu / h ** 2) * A

    C = (a * 2.0 ** (a - 1.0) * math.gamma((1.0 + a) / 2.0)
         / (np.sqrt(np.pi) * math.gamma(1.0 - a / 2.0)))
    x = grid.nodes
    m = np.arange(1, n)
    w = (((m - 0.5) * h) ** (-a) - ((m + 0.5) * h) ** (-a)) / a
    A = np.zeros((n, n))
    i = np.arange(n)
    for mm, wm in zip(m, w):
        hit = i + mm < n
        A[i[hit], i[hit] + mm] -= wm
        A[i[hit] + mm, i[hit]] -= wm
        A[i[hit], i[hit]] += wm
        A[i[hit] + mm, i[hit] + mm] += wm  # the mirror z-cell of the partner row
    # exact exterior mass: z beyond the wall where u = 0
    A[i, i] += ((grid.R - x) ** (-a) + (grid.R + x) ** (-a)) / a
    A *= C
    # near field |z| < h/2: second-order curvature correction
    cnf = C * (h / 2.0) ** (2.0 - a) / (2.0 - a) / h ** 2
    A[i, i] += 2.0 * cnf
    A[i[:-1], i[:-1] + 1] -= cnf
    A[i[1:], i[1:] - 1] -= cnf
    return nu * A


def eigen_system(A, grid):
    """Eigen-decomposition of the discrete generator, h-orthonormalized.

    Returns EigenSystem with ascending eigenvalues; raises NumericsError if
    the matrix fails symmetry or positivity (mu_1 <= 0), which would indicate
    a broken discretization rather than a bad parameter.
    """
    A = np.asarray(A, float)
    n = A.shape[0]
    if A.shape != (n, n) or n != grid.n:
        raise DomainError("generator matrix shape must match the grid")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-10 * np.abs(A).max()):
        raise NumericsError("generator matrix is not symmetric")
    mu, vec = np.linalg.eigh(A)
    if mu[0] <= 0.0:
        raise NumericsError(f"generator not positive definite: mu_1 = {mu[0]:.3e}")
    phi = vec / np.sqrt(grid.h)
    gram = grid.h * phi.T @ phi
    if not np.allclose(gram, np.eye(n), atol=1e-8):
        raise NumericsError("eigenvectors failed h-weighted orthonormality")
    return EigenSystem(mu=mu, phi=phi, grid=grid)


def dirichlet_fractional_kernel(es, beta, t):
    """Spectral Dirichlet kernel G_B(t) as an (n, n) matrix on grid nodes.

    G_B(t, x_i, y_j) = sum_n E_beta(-mu_n t^beta) phi_n(x_i) phi_n(y_j) (by
    ``mode_decay``); an array of times gives shape (len(t), n, n).  On the
    grid the expansion is complete and G = E_beta(-t^beta A) >= 0 entrywise:
    A is an M-matrix (symmetric positive definite, off-diagonals <= 0, for
    alpha = 2 and alpha < 2), so e^(-sA) >= 0, and E_beta(-x) is completely
    monotone, a positive mixture of e^(-rx).  The clip removes rounding only.
    """
    e = mode_decay(es.mu, beta, t)
    G = (es.phi * e[..., None, :]) @ es.phi.T
    return np.clip(G, 0.0, None)


def dirichlet_kernel_subordination(es, beta, t):
    """Subordination route to the same kernel: int p_B(s) f_{E_t}(s) ds.

    p_B(s) = sum_n e^(-mu_n s) phi_n phi_n; the s integral is evaluated per
    mode as a Laplace transform of the inverse-subordinator density on fixed
    panels, fully independent of the Mittag-Leffler evaluation path.
    """
    t = number("t", t, 0.0, math.inf)
    b = float(beta)
    if b == 1.0:
        e = np.exp(-es.mu * t)
        return (es.phi * e) @ es.phi.T
    tb = t ** b
    edges = tb * np.geomspace(1e-13, 2e3, 300)
    s, w = fixed_panel_nodes(np.concatenate([[tb * 1e-14], edges]), n=10)
    f = inverse_subordinator_density(b, t, s)
    lam = np.exp(-np.outer(es.mu, s)) @ (w * f)  # per-mode Laplace transform
    G = (es.phi * lam) @ es.phi.T
    return np.clip(G, 0.0, None)


def apply_semigroup(es, beta, t, v):
    """Action of the fractional Dirichlet semigroup on grid samples v.

    (G_B(t) v)(x_i) = sum_n E_beta(-mu_n t^beta) <phi_n, v>_h phi_n(x_i).
    A scalar t gives shape (n,); a 1-d array of times gives one row per
    time, shape (len(t), n), from one ``mode_decay`` call.
    """
    v = np.asarray(v, float)
    if v.shape != (es.grid.n,):
        raise DomainError("field shape must match the grid")
    if not np.all(np.isfinite(v)):
        raise DomainError("field v must be finite")
    coef = es.grid.h * (es.phi.T @ v)
    return (mode_decay(es.mu, beta, t) * coef) @ es.phi.T


def riesz_kernel_matrix(grid, gamma):
    """Cell-averaged Riesz kernel |x - y|^(-gamma) on the grid, gamma in (0,1).

    Off-diagonal entries use the midpoint value; the diagonal is the exact
    cell-pair average  h^(-gamma) * 2 / ((1-gamma)(2-gamma)), which keeps the
    quadratic form integrable and positive.
    """
    g = number("gamma", gamma, 0.0, 1.0)
    x = grid.nodes
    D = np.abs(x[:, None] - x[None, :])
    with np.errstate(divide="ignore"):
        Cbar = D ** (-g)
    np.fill_diagonal(Cbar, grid.h ** (-g) * 2.0 / ((1.0 - g) * (2.0 - g)))
    return Cbar


def estimate_floor_constant(es, beta, alpha):
    """Near-diagonal kernel floor: fit C and the onset horizon t0.

    Scans the dyadic times t = 0.8 * 2^-k, k = 0..7, for the region
    {|x-y| < t^(beta/alpha), |x|,|y| <= 0.75 R} and records m(t) = min G_B *
    t^(beta / alpha) there.  Returns (C, t0): C is the smallest positive m(t)
    over the passing prefix, t0 the largest scanned t such that every scanned
    t' <= t has m(t') > 0; (0, 0) when none passes.  t0 is measured, never
    assumed.
    """
    b, alpha = float(beta), number("alpha", alpha, 0.0, 2.0, "right")
    ts = 0.8 * 2.0 ** -np.arange(0, 8)
    x = es.grid.nodes
    keep = np.abs(x) <= 0.75 * es.grid.R
    t0, C = 0.0, np.inf
    for t, G in zip(ts.tolist(), dirichlet_fractional_kernel(es, b, ts)):
        sel = (np.abs(x[:, None] - x[None, :]) < t ** (b / alpha)) & np.outer(keep, keep)
        m = float((G[sel] * t ** (b / alpha)).min())
        if m > 0.0:  # descending t; the passing prefix must be contiguous
            if t0 == 0.0:
                t0 = t
            C = min(C, m)
        else:
            t0, C = 0.0, np.inf
    return (C, t0) if np.isfinite(C) else (0.0, 0.0)
