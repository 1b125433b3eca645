"""Kernel layer: stable densities, eigen systems, subordinated Dirichlet kernels."""

import math

import numpy as np
import pytest

from fracstorm.errors import DomainError
from fracstorm.fracfun import inverse_subordinator_density
from fracstorm.kernels import (
    apply_semigroup,
    dirichlet_fractional_kernel,
    dirichlet_kernel_subordination,
    fractional_free_kernel,
    green_l2_constant,
    riesz_kernel_matrix,
    stable_density,
)
from fracstorm.params import ModelParams, NoiseModel, SpaceGrid


def test_stable_density_gaussian_case():
    # alpha = 2 is the heat kernel with diffusivity nu.
    for t in (0.1, 1.0):
        for x in (0.0, 0.5, 2.0):
            exact = math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
            assert stable_density(2.0, 1.0, 1, t, x) == pytest.approx(exact, rel=1e-10)


def test_stable_density_cauchy_case():
    # alpha = 1 in one dimension is the Cauchy (Poisson) kernel.
    for t in (0.2, 1.5):
        for x in (0.0, 0.3, 4.0):
            exact = t / (math.pi * (t * t + x * x))
            assert stable_density(1.0, 1.0, 1, t, x) == pytest.approx(exact, rel=1e-8)


def test_stable_density_scaling_identity():
    # p_t(x) = t^(-1/alpha) p_1(t^(-1/alpha) x).
    rng = np.random.default_rng(11)
    for alpha in (1.5, 1.8):
        for t, x in zip(rng.uniform(0.2, 3.0, 8), rng.uniform(-5.0, 5.0, 8)):
            scaled = t ** (-1.0 / alpha) * stable_density(
                alpha, 1.0, 1, 1.0, t ** (-1.0 / alpha) * x)
            assert stable_density(alpha, 1.0, 1, t, x) == pytest.approx(
                scaled, rel=1e-8)


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
            dens = np.array([stable_density(2.0, 1.0, 1, float(si), x)
                             for si in s])
            return dens * inverse_subordinator_density(0.5, t, s)

        return integrate_semi_infinite(f, tol=1e-10)

    for t, x in ((0.2, 0.1), (0.8, 0.6)):
        assert fractional_free_kernel(p, t, np.array([x]))[0] == pytest.approx(
            mixture(t, x), rel=1e-7)


def test_l2_decay_follows_power_law(check_outcome):
    # The law's one implementation is the registry check: three (alpha, beta)
    # regimes, six t, |l2 / (C t^(-beta d/alpha)) - 1| <= 1e-3.
    passed, measured, tolerance, _ = check_outcome("l2-decay-law")
    assert passed, f"{measured} (tolerance {tolerance})"


def test_l2_constant_requires_integrability():
    with pytest.raises(DomainError):
        green_l2_constant(ModelParams(alpha=1.0, beta=0.9, d=2,
                                      noise=NoiseModel("riesz", gamma=0.5)))


def test_riesz_matrix_properties():
    grid = SpaceGrid(R=1.0, n=20)
    C = riesz_kernel_matrix(grid, 0.5)
    assert np.max(np.abs(C - C.T)) < 1e-12
    assert np.all(np.diff(C[0]) < 0.0)  # decays away from the diagonal
    w = np.linalg.eigvalsh(C)
    assert w.min() > -1e-8  # positive semidefinite covariance
