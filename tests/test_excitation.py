"""Lambda sweeps: growth-index fits, grid validation, backend parity."""

import numpy as np
import pytest

from conftest import TEST_THREADS
from fracstorm.errors import DomainError, NumericsError
from fracstorm.excitation import (
    ExcitationFit,
    excitation_sweep,
    theoretical_index,
)
from fracstorm.params import ModelParams, NoiseModel
from fracstorm.simulate import linear_sigma, table_sigma

WHITE = ModelParams(alpha=2.0, beta=0.5)
COLORED = ModelParams(alpha=2.0, beta=0.5, noise=NoiseModel(kind="riesz", gamma=0.5))
LAM13 = np.geomspace(1e2, 1e6, 13)


@pytest.fixture(scope="module")
def white_fit(eigen_cache):
    es = eigen_cache(2.0, 32)
    u0 = np.cos(0.5 * np.pi * es.grid.nodes / es.grid.R)
    return excitation_sweep(WHITE, es, u0, 0.1, LAM13, nt=96)


def test_theoretical_index_closed_forms():
    assert theoretical_index(2.0, 0.5, 1, "white") == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert theoretical_index(2.0, 0.5, 0.5, "riesz") == pytest.approx(16.0 / 7.0, rel=1e-15)
    assert theoretical_index(1.8, 0.5, 1, "white") == pytest.approx(3.6 / 1.3, rel=1e-15)
    # A NoiseModel instance is accepted in place of the kind string.
    nm = NoiseModel(kind="riesz", gamma=0.5)
    assert theoretical_index(2.0, 0.5, 0.5, nm) == pytest.approx(16.0 / 7.0, rel=1e-15)


def test_theoretical_index_rejects_degenerate_parameters():
    with pytest.raises(DomainError):
        theoretical_index(1.0, 0.9, 2, "white")   # alpha - d*beta < 0
    with pytest.raises(DomainError):
        theoretical_index(2.0, 1.0, 2, "white")   # alpha - d*beta = 0
    with pytest.raises(DomainError):
        theoretical_index(2.0, 0.5, 1, "pink")


def test_volterra_sweep_recovers_white_index(white_fit):
    fit = white_fit
    assert fit.method == "volterra" and fit.functional == "energy"
    assert fit.slope == pytest.approx(fit.theory, rel=1e-6)
    assert fit.theory == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert fit.fit_mask.sum() >= 4
    # The fit window is the top decade of the sweep.
    assert np.all(fit.lambdas[fit.fit_mask] >= fit.lambdas.max() / 10.0 * (1 - 1e-9))
    assert np.abs(fit.residuals).max() < 1e-6
    assert np.all(np.diff(fit.log_values) > 0.0)


def test_volterra_sweep_recovers_colored_index(eigen_cache, bump):
    es = eigen_cache(2.0, 32)
    fit = excitation_sweep(COLORED, es, bump(es), 0.1,
                           np.geomspace(1e2, 1e5, 10), nt=96)
    assert fit.theory == pytest.approx(16.0 / 7.0, rel=1e-15)
    assert fit.slope == pytest.approx(fit.theory, rel=1e-4)


def test_sup_functional_gives_same_index(eigen_cache, bump, white_fit):
    es = eigen_cache(2.0, 32)
    fit = excitation_sweep(WHITE, es, bump(es), 0.1, LAM13, nt=96,
                           functional="sup")
    assert fit.functional == "sup"
    assert fit.slope == pytest.approx(white_fit.slope, rel=1e-6)


def test_volterra_sweep_is_thread_deterministic(eigen_cache, bump, white_fit):
    es = eigen_cache(2.0, 32)
    fit = excitation_sweep(WHITE, es, bump(es), 0.1, LAM13, nt=96,
                           threads=TEST_THREADS)
    assert np.array_equal(fit.log_values, white_fit.log_values)
    assert fit.slope == white_fit.slope


def test_montecarlo_sweep_runs_and_is_thread_deterministic(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    lam = np.geomspace(5.0, 50.0, 6)
    seq = excitation_sweep(WHITE, es, u0, 0.1, lam, method="montecarlo",
                           nt=64, replicates=200, seed=3, threads=1)
    par = excitation_sweep(WHITE, es, u0, 0.1, lam, method="montecarlo",
                           nt=64, replicates=200, seed=3, threads=TEST_THREADS)
    assert seq.method == "montecarlo"
    assert np.isfinite(seq.slope)
    assert seq.fit_mask.sum() >= 4
    assert np.array_equal(seq.log_values, par.log_values)
    assert seq.slope == par.slope


@pytest.mark.parametrize("method, lam, nt", [
    ("volterra", np.geomspace(1e2, 1e5, 10), 48),
    ("montecarlo", np.geomspace(5.0, 50.0, 6), 16),
])
def test_sweep_couples_noise_as_lambda_times_sigma_slope(eigen_cache, bump, method, lam, nt):
    # sigma(u) = l u enters only through lam l, so slope 2 at lam is the
    # default sigma at 2 lam, to the bit
    es = eigen_cache(2.0, 16)
    u0 = bump(es)
    kw = dict(method=method, nt=nt, replicates=8, seed=1)
    scaled = excitation_sweep(WHITE, es, u0, 0.1, lam, sigma=linear_sigma(2.0), **kw)
    doubled = excitation_sweep(WHITE, es, u0, 0.1, 2.0 * lam, **kw)
    assert np.array_equal(scaled.log_values, doubled.log_values)
    plain = excitation_sweep(WHITE, es, u0, 0.1, lam, **kw)
    assert not np.array_equal(scaled.log_values, plain.log_values)


def test_lambda_grid_validation(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)

    def sweep(lam, method="volterra"):
        return excitation_sweep(WHITE, es, u0, 0.1, lam, method=method, nt=48)

    with pytest.raises(DomainError, match=">= 6 points"):
        sweep(np.geomspace(1e2, 1e6, 4))
    with pytest.raises(DomainError, match="geometric"):
        sweep(np.linspace(1e2, 1e6, 13))
    with pytest.raises(DomainError, match="increasing"):
        sweep(np.geomspace(1e6, 1e2, 13))
    with pytest.raises(DomainError, match=">= 1"):
        sweep(np.geomspace(0.1, 1e3, 13))
    with pytest.raises(DomainError, match="increasing"):
        sweep(np.full(6, 5.0))
    with pytest.raises(DomainError, match="3 decades"):
        sweep(np.geomspace(10.0, 100.0, 6))
    with pytest.raises(DomainError, match="1 decade"):
        sweep(np.geomspace(2.0, 200.0, 6), method="montecarlo")


def test_sweep_rejects_bad_arguments(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    with pytest.raises(DomainError, match="method"):
        excitation_sweep(WHITE, es, u0, 0.1, LAM13, method="exact")
    with pytest.raises(DomainError, match="functional"):
        excitation_sweep(WHITE, es, u0, 0.1, LAM13, functional="max")
    with pytest.raises(DomainError, match="t > 0"):
        excitation_sweep(WHITE, es, u0, 0.0, LAM13)
    with pytest.raises(DomainError, match="EigenSystem"):
        excitation_sweep(WHITE, np.eye(4), u0, 0.1, LAM13)
    with pytest.raises(DomainError, match="linear sigma"):
        excitation_sweep(WHITE, es, u0, 0.1, LAM13,
                         sigma=table_sigma([-1.0, 0.0, 1.0], [-0.5, 0.0, 2.0]))


@pytest.mark.parametrize("method", ["volterra", "montecarlo"])
@pytest.mark.parametrize("threads", [0, -3, 2.5])
def test_sweep_rejects_bad_thread_counts(eigen_cache, bump, method, threads):
    es = eigen_cache(2.0, 24)
    lam = LAM13 if method == "volterra" else np.geomspace(5.0, 50.0, 6)
    with pytest.raises(DomainError, match="threads"):
        excitation_sweep(WHITE, es, bump(es), 0.1, lam, method=method, nt=8,
                         replicates=2, threads=threads)


def test_fit_dataclass_validation():
    ok = dict(
        lambdas=np.array([1.0, 10.0, 100.0]),
        functional="energy",
        log_values=np.array([0.0, 1.0, 2.0]),
        slope=2.0,
        theory=2.0,
        t=0.1,
        method="volterra",
        fit_mask=np.array([True, True, True]),
        residuals=np.zeros(3),
    )
    ExcitationFit(**ok)  # baseline constructs fine
    with pytest.raises(DomainError, match="two lambdas"):
        ExcitationFit(**{**ok, "lambdas": np.array([1.0])})
    with pytest.raises(DomainError, match="increasing"):
        ExcitationFit(**{**ok, "lambdas": np.array([1.0, 100.0, 10.0])})
    with pytest.raises(DomainError, match=">= 1"):
        ExcitationFit(**{**ok, "lambdas": np.array([0.5, 10.0, 100.0])})
    with pytest.raises(DomainError, match="functional"):
        ExcitationFit(**{**ok, "functional": "max"})
    with pytest.raises(NumericsError, match="not finite"):
        ExcitationFit(**{**ok, "slope": float("nan")})
    with pytest.raises(NumericsError, match="sanity band"):
        ExcitationFit(**{**ok, "slope": 5.0})
