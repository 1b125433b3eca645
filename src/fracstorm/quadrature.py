"""Deterministic quadrature helpers used throughout the library.

All integrals here are evaluated with composite Gauss-Legendre panels and
interval bisection, never with randomized or platform-dependent methods, so
repeated runs produce bit-identical values.  Semi-infinite integrals use the
documented substitution u = x/(1-x), mapping (0,1) -> (0,inf).

Integrands are called with ndarray arguments and must evaluate pointwise.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericsError

_RULES = {}
_PANEL_NODES = 15  # Gauss points per panel of ``adaptive_gauss``
_MAX_DEPTH = 48  # bisection depth at which ``adaptive_gauss`` gives up


def _rule(n):
    if n not in _RULES:
        _RULES[n] = leggauss(n)
    return _RULES[n]


def gauss_panel(f, a, b, n=15):
    """Single n-point Gauss-Legendre estimate of int_a^b f."""
    x, w = _rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.dot(w, f(mid + half * x))


def adaptive_gauss(f, a, b, tol=1e-10):
    """Adaptive composite Gauss-Legendre integration of f on [a, b].

    A panel is accepted when its n-point estimate agrees with the sum of the
    two half-panel estimates to within the locally allotted tolerance;
    otherwise the panel is bisected.  Raises NumericsError if the recursion
    depth limit is hit before the tolerance is met (non-integrable or
    under-resolved singularity).
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NumericsError("adaptive_gauss requires finite endpoints")
    if a == b:
        return 0.0
    whole = gauss_panel(f, a, b, _PANEL_NODES)
    # iterative stack to avoid Python recursion limits at deep subdivision
    stack = [(a, b, whole, tol, 0)]
    total = 0.0
    while stack:
        a_, b_, est, tol_, depth = stack.pop()
        m = 0.5 * (a_ + b_)
        left = gauss_panel(f, a_, m, _PANEL_NODES)
        right = gauss_panel(f, m, b_, _PANEL_NODES)
        err = abs(left + right - est)
        if err <= tol_ or (b_ - a_) <= abs(m) * 1e-15:
            total += left + right
        elif depth >= _MAX_DEPTH:
            raise NumericsError(
                f"adaptive_gauss: depth {_MAX_DEPTH} exceeded on "
                f"[{a_:.3e}, {b_:.3e}] (residual {err:.1e} > {tol_:.1e})"
            )
        else:
            stack.append((a_, m, left, 0.5 * tol_, depth + 1))
            stack.append((m, b_, right, 0.5 * tol_, depth + 1))
    return total


def integrate_semi_infinite(f, tol=1e-10):
    """int_0^inf f(u) du via the substitution u = x/(1-x).

    The image integrand is g(x) = f(x/(1-x)) / (1-x)^2 on (0,1); adaptive
    bisection concentrates panels near x=1 when f has a slowly decaying tail
    and near x=0 when f has an integrable origin singularity.
    """

    def g(x):
        u = x / (1.0 - x)
        return f(u) / (1.0 - x) ** 2

    # stay strictly inside (0,1); the excluded slivers are controlled by the
    # integrability of f and shrink the result below tol for the tolerances
    # used here.
    eps = 1e-14
    return adaptive_gauss(g, eps, 1.0 - eps, tol=tol)


def fixed_panel_nodes(edges, n=12):
    """Gauss nodes/weights for a fixed set of panel edges (vectorized rules).

    Returns flat arrays (nodes, weights) covering all panels; callers
    evaluate their integrand once on the node array and take a dot product.
    """
    x, w = _rule(n)
    edges = np.asarray(edges, float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (mid + half * x[None, :]).ravel()
    weights = (half * w[None, :]).ravel()
    return nodes, weights
