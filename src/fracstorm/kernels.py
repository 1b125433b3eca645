"""Transition densities and subordinated heat kernels.

Free space
----------
``stable_density`` evaluates the symmetric alpha-stable transition density
p(t, x) with Fourier transform exp(-t nu |xi|^alpha) (closed forms for
alpha = 2 and alpha = 1, oscillatory radial inversion otherwise).  The
time-fractional free kernel is the subordination mixture

    G_t(x) = int_0^inf p(s, x) f_{E_t}(s) ds,

whose squared L2 norm obeys  int G_t(x)^2 dx = C(alpha,beta,nu,d) t^(-beta d/alpha)
with

    C = nu^(-d/alpha) 2 pi^(d/2) / (alpha Gamma(d/2)) (2 pi)^(-d)
        int_0^inf z^(d/alpha - 1) E_beta(-z)^2 dz,

valid for d < 2 alpha; ``green_l2_constant`` evaluates C and
``free_kernel_l2`` integrates the kernel directly so the law can be checked
through two independent routes.  The radial inversion and the spline
profile behind these are this module's only use of scipy (``quad``,
``j0``, ``CubicSpline``), imported where they are called, so the bounded
interval code below runs on numpy alone.

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

from .errors import DomainError, NumericsError
from .fracfun import inverse_subordinator_density, mittag_leffler, mode_decay
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


def _check_t(t):
    t = float(t)
    if not np.isfinite(t) or t <= 0.0:
        raise DomainError(f"time must be positive and finite, got {t}")
    return t


# ---------------------------------------------------------------------------
# free-space stable density
# ---------------------------------------------------------------------------

def _stable_radial(alpha, nu, d, t, r):
    """Radial Fourier inversion at a single radius r >= 0; NumericsError
    where the cutoff or the value is not a finite double (tiny alpha)."""
    from scipy.integrate import quad
    from scipy.special import j0

    tn = t * nu
    if math.log(45.0 / tn) / alpha > math.log(np.finfo(float).max):
        raise NumericsError(f"quadrature cutoff K = (45/(t nu))^(1/alpha) is past the "
                            f"double range at alpha={alpha!r}, t nu={tn!r}")
    K = (45.0 / tn) ** (1.0 / alpha)  # exp(-tn k^alpha) < 2e-20 beyond K
    if d == 1 and r == 0.0:
        try:
            val = math.gamma(1.0 + 1.0 / alpha) * tn ** (-1.0 / alpha) / np.pi
        except OverflowError:
            val = math.inf
    elif d == 1:
        val = quad(lambda k: np.exp(-tn * k ** alpha), 0.0, K,
                   weight="cos", wvar=r, limit=400)[0] / np.pi
    elif d == 2:
        val = quad(lambda k: np.exp(-tn * k ** alpha) * j0(k * r) * k,
                   0.0, K, limit=800)[0] / (2.0 * np.pi)
    elif r == 0.0:  # d == 3
        val = quad(lambda k: np.exp(-tn * k ** alpha) * k * k, 0.0, K,
                   limit=400)[0] / (2.0 * np.pi ** 2)
    else:
        val = quad(lambda k: np.exp(-tn * k ** alpha) * k, 0.0, K,
                   weight="sin", wvar=r, limit=400)[0] / (2.0 * np.pi ** 2 * r)
    if not math.isfinite(val):
        raise NumericsError(f"stable density at r={r!r} is not a finite double at "
                            f"alpha={alpha!r}, t nu={tn!r}")
    return val


def stable_density(alpha, nu, d, t, x):
    """Symmetric alpha-stable density p(t, x), Fourier symbol exp(-t nu |xi|^alpha).

    x may be a scalar or an array of displacement magnitudes (for d > 1 the
    density is radial; pass |x|).  alpha = 2 is the Gaussian with per-axis
    variance 2 nu t; alpha = 1 the Cauchy/Poisson kernel.
    """
    a = float(alpha)
    if not (0.0 < a <= 2.0):
        raise DomainError(f"alpha in (0, 2] violated: {alpha}")
    if d not in (1, 2, 3):
        raise DomainError(f"d in {{1,2,3}} violated: {d}")
    if nu <= 0.0:
        raise DomainError(f"nu > 0 violated: {nu}")
    t = _check_t(t)
    x = np.asarray(x, float)
    scalar = x.ndim == 0
    r = np.abs(np.atleast_1d(x)).astype(float)
    if a == 2.0:
        out = (4.0 * np.pi * nu * t) ** (-d / 2.0) * np.exp(-r * r / (4.0 * nu * t))
    elif a == 1.0:
        cd = math.gamma((d + 1.0) / 2.0) / np.pi ** ((d + 1.0) / 2.0)
        out = cd * nu * t / ((nu * t) ** 2 + r * r) ** ((d + 1.0) / 2.0)
    else:
        out = np.array([_stable_radial(a, nu, d, t, float(ri)) for ri in r])
    return float(out[0]) if scalar else out


class _StableProfile1d:
    """Cubic-spline profile of p(1, u) for nu=1, d=1, plus the exact tail law.

    Self-similarity p(t, x) = (nu t)^(-1/alpha) profile(|x| (nu t)^(-1/alpha))
    turns this single table into a fast vectorized evaluator used inside
    subordination quadratures.  The public ``stable_density`` never uses it,
    so profile-vs-direct agreement stays a meaningful test.
    """

    U_MAX = 400.0

    def __init__(self, alpha):
        from scipy.interpolate import CubicSpline

        self.alpha = float(alpha)
        u = np.concatenate([np.linspace(0.0, 2.0, 321),
                            np.geomspace(2.02, self.U_MAX, 700)])
        p = np.array([_stable_radial(self.alpha, 1.0, 1, 1.0, float(ui)) for ui in u])
        self._spline = CubicSpline(u, p)
        self.tail_c = math.gamma(1.0 + self.alpha) * np.sin(np.pi * self.alpha / 2.0) / np.pi

    def __call__(self, u):
        u = np.abs(np.asarray(u, float))
        out = np.empty_like(u)
        near = u <= self.U_MAX
        out[near] = self._spline(u[near])
        out[~near] = self.tail_c * u[~near] ** (-1.0 - self.alpha)
        return out


_PROFILES: dict = {}


def _profile(alpha):
    key = round(float(alpha), 12)
    if key not in _PROFILES:
        _PROFILES[key] = _StableProfile1d(alpha)
    return _PROFILES[key]


def _p_free(params, s, x):
    """p(s, x) vectorized over the outer product of s and x."""
    a, nu, d = params.alpha, params.nu, params.d
    s = np.atleast_1d(np.asarray(s, float))
    r = np.abs(np.asarray(x, float))
    if a == 2.0:
        sn = nu * s[:, None]
        return (4.0 * np.pi * sn) ** (-d / 2.0) * np.exp(-r[None, :] ** 2 / (4.0 * sn))
    if a == 1.0:
        cd = math.gamma((d + 1.0) / 2.0) / np.pi ** ((d + 1.0) / 2.0)
        sn = nu * s[:, None]
        return cd * sn / (sn ** 2 + r[None, :] ** 2) ** ((d + 1.0) / 2.0)
    if d == 1:
        scale = (nu * s) ** (-1.0 / a)
        return scale[:, None] * _profile(a)(scale[:, None] * r[None, :])
    return np.stack([stable_density(a, nu, d, float(si), r) for si in s])


def fractional_free_kernel(params, t, x):
    """Time-fractional free kernel G_t(x) = int p(s, x) f_{E_t}(s) ds.

    x scalar or array of displacement magnitudes.  In the classical limit
    (beta = 1) the subordinator degenerates and G_t = p(t, .).  At x = 0 the
    mixture converges only for d < alpha.
    """
    t = _check_t(t)
    x = np.asarray(x, float)
    if np.any(x == 0.0) and params.d >= params.alpha and not params.classical:
        raise DomainError(
            f"free kernel diverges at x=0 for d >= alpha (d={params.d}, alpha={params.alpha})"
        )
    vals = _free_kernel_at(params, t)(np.atleast_1d(x))
    return float(vals[0]) if x.ndim == 0 else vals


def _free_kernel_at(params, t):
    """x -> G_t(x) on a 1-d array of |x|; f_{E_t}(s), which depends only on
    (beta, t), is evaluated once here for every later x."""
    if params.classical:
        return lambda xv: np.atleast_1d(stable_density(params.alpha, params.nu, params.d, t, xv))
    b = float(params.beta)
    tb = t ** b
    # f_{E_t} lives on s ~ t^beta; panels cover both its flat head and
    # stretched-exponential tail.
    edges = tb * np.geomspace(1e-8, 2e3, 220)
    s, w = fixed_panel_nodes(np.concatenate([[tb * 1e-9], edges]), n=10)
    wf = w * inverse_subordinator_density(b, t, s)
    return lambda xv: wf @ _p_free(params, s, xv)


def green_l2_constant(params):
    """Constant C in the free-kernel L2 law  int G_t^2 dx = C t^(-beta d/alpha).

    C = nu^(-d/alpha) 2 pi^(d/2) / (alpha Gamma(d/2)) (2 pi)^(-d)
        int_0^inf z^(d/alpha-1) E_beta(-z)^2 dz,   requires d < 2 alpha.
    """
    a, b, d, nu = float(params.alpha), float(params.beta), params.d, params.nu
    if not d < 2.0 * a:
        raise DomainError(f"L2 law requires d < 2*alpha, got d={d}, alpha={a}")
    p = d / a

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
    front = nu ** (-p) * 2.0 * np.pi ** (d / 2.0) / (a * math.gamma(d / 2.0))
    return front * (2.0 * np.pi) ** (-d) * integral


def free_kernel_l2(params, t):
    """Direct quadrature of int_{R^d} G_t(x)^2 dx (the independent route).

    Requires d < alpha so the kernel stays bounded at the origin; the law
    itself extends to d < 2 alpha but this direct check does not chase the
    origin singularity.  As alpha <= 2, only d = 1 qualifies: the integral
    is twice the one over the half-line.
    """
    t = _check_t(t)
    d = params.d
    if not d < params.alpha:
        raise DomainError(
            f"direct L2 quadrature needs d < alpha, got d={d}, alpha={params.alpha}")

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
    t = _check_t(t)
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
    coef = es.grid.h * (es.phi.T @ v)
    return (mode_decay(es.mu, beta, t) * coef) @ es.phi.T


def riesz_kernel_matrix(grid, gamma):
    """Cell-averaged Riesz kernel |x - y|^(-gamma) on the grid, gamma in (0,1).

    Off-diagonal entries use the midpoint value; the diagonal is the exact
    cell-pair average  h^(-gamma) * 2 / ((1-gamma)(2-gamma)), which keeps the
    quadratic form integrable and positive.
    """
    g = float(gamma)
    if not (0.0 < g < 1.0):
        raise DomainError(f"riesz exponent gamma in (0,1) violated: {gamma}")
    x = grid.nodes
    D = np.abs(x[:, None] - x[None, :])
    with np.errstate(divide="ignore"):
        Cbar = D ** (-g)
    np.fill_diagonal(Cbar, grid.h ** (-g) * 2.0 / ((1.0 - g) * (2.0 - g)))
    return Cbar


def estimate_floor_constant(es, beta, alpha, d=1, interior_frac=0.75,
                            t_grid=None):
    """Near-diagonal kernel floor: fit C and the onset horizon t0.

    Scans dyadic times for the region {|x-y| < t^(beta/alpha), |x|,|y| <=
    interior_frac * R} and records m(t) = min G_B * t^(beta d / alpha) there.
    Returns (C, t0, table): C is the smallest positive m(t) over the passing
    prefix, t0 the largest scanned t such that every scanned t' <= t has
    m(t') > 0.  t0 is measured, never assumed.
    """
    b = float(beta)
    if t_grid is None:
        t_grid = 0.8 * 2.0 ** -np.arange(0, 8)
    x = es.grid.nodes
    keep = np.abs(x) <= interior_frac * es.grid.R
    ts = np.sort(np.asarray(t_grid, float))[::-1]
    table = []
    for t, G in zip(ts.tolist(), dirichlet_fractional_kernel(es, b, ts)):
        sel = (np.abs(x[:, None] - x[None, :]) < t ** (b / alpha)) & np.outer(keep, keep)
        table.append((t, float((G[sel] * t ** (b * d / alpha)).min())))
    t0, C = 0.0, np.inf
    for t, m in table:  # descending t; the passing prefix must be contiguous
        if m > 0.0:
            if t0 == 0.0:
                t0 = t
            C = min(C, m)
        else:
            t0, C = 0.0, np.inf
    if not np.isfinite(C):
        return 0.0, 0.0, table
    return C, t0, table
