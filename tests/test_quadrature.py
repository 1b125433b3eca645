"""Quadrature layer: panel rules, adaptivity and the semi-infinite map."""

import numpy as np
import pytest
from mpmath import mp

from fracstorm.errors import NumericsError
from fracstorm.quadrature import (
    adaptive_gauss,
    fixed_panel_nodes,
    gauss_panel,
    integrate_semi_infinite,
)


def test_gauss_panel_polynomial_exactness():
    # An n-point Gauss rule integrates degree 2n-1 exactly.
    for k in range(16):
        est = gauss_panel(lambda x: x ** k, 0.0, 1.0, n=8)
        assert est == pytest.approx(1.0 / (k + 1), abs=5e-15)


def test_adaptive_gauss_smooth_integrand():
    val = adaptive_gauss(np.exp, 0.0, 1.0, tol=1e-13)
    assert abs(val - (np.e - 1.0)) < 1e-12


def test_adaptive_gauss_oscillatory_vs_mpmath():
    val = adaptive_gauss(lambda x: np.cos(37.0 * x) * np.exp(-x), 0.0, 3.0,
                         tol=1e-12)
    mp.dps = 30
    ref = float(mp.quad(lambda x: mp.cos(37 * x) * mp.e ** (-x), [0, 3]))
    assert abs(val - ref) < 1e-10


def test_semi_infinite_exponential_moments():
    assert abs(integrate_semi_infinite(lambda x: np.exp(-x)) - 1.0) < 1e-10
    second = integrate_semi_infinite(lambda x: x ** 2 * np.exp(-x))
    assert abs(second - 2.0) < 1e-9


def test_fixed_panel_nodes_matches_closed_form():
    edges = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 200)])
    x, w = fixed_panel_nodes(edges, n=8)
    ref = 1.0 - 11.0 * np.exp(-10.0)  # integral of t e^ -t over (0, 10)
    assert abs(np.dot(w, x * np.exp(-x)) - ref) < 1e-12


def test_infinite_endpoint_rejected():
    with pytest.raises(NumericsError):
        adaptive_gauss(np.exp, 0.0, np.inf)
