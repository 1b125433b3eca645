"""Lambda sweeps: growth-index fits, grid validation, the lambda-sigma coupling."""

import numpy as np
import pytest

from fracstorm.errors import DomainError, NumericsError
from fracstorm.excitation import (
    ExcitationFit,
    excitation_sweep,
    theoretical_index,
)
from fracstorm.params import ModelParams, NoiseModel

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
    # outside the model's alpha in (0, 2] and beta in (0, 1], although
    # alpha - d*beta > 0
    with pytest.raises(DomainError, match="^beta"):
        theoretical_index(2.0, -0.5, 1, "white")
    with pytest.raises(DomainError, match="^alpha"):
        theoretical_index(2.5, 0.5, 1, "white")


def test_volterra_sweep_recovers_white_index(white_fit):
    fit = white_fit
    assert fit.functional == "energy"
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


@pytest.mark.parametrize("method, lam, nt", [
    ("volterra", np.geomspace(1e2, 1e5, 10), 48),
])
def test_sweep_couples_noise_as_lambda_times_sigma_slope(eigen_cache, bump, method, lam, nt):
    # sigma(u) = l u enters only through lam l, so slope 2 at lam is the
    # default sigma at 2 lam, to the bit (the Monte Carlo scheme's case is
    # test_simulate's test_mc_couples_noise_as_lambda_times_sigma_slope)
    es = eigen_cache(2.0, 16)
    u0 = bump(es)
    scaled = excitation_sweep(WHITE, es, u0, 0.1, lam, nt=nt, l_sigma=2.0)
    doubled = excitation_sweep(WHITE, es, u0, 0.1, 2.0 * lam, nt=nt)
    assert np.array_equal(scaled.log_values, doubled.log_values)
    plain = excitation_sweep(WHITE, es, u0, 0.1, lam, nt=nt)
    assert not np.array_equal(scaled.log_values, plain.log_values)


def test_lambda_grid_validation(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)

    def sweep(lam):
        return excitation_sweep(WHITE, es, u0, 0.1, lam, nt=48)

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
    with pytest.raises(DomainError, match="1-d"):
        sweep(np.geomspace(1e2, 1e6, 12).reshape(2, 6))


def test_sweep_rejects_bad_arguments(eigen_cache, bump):
    es = eigen_cache(2.0, 24)
    u0 = bump(es)
    with pytest.raises(DomainError, match="functional"):
        excitation_sweep(WHITE, es, u0, 0.1, LAM13, functional="max")
    with pytest.raises(DomainError, match=r"^t must be a finite number in \(0, inf\)"):
        excitation_sweep(WHITE, es, u0, 0.0, LAM13)
    with pytest.raises(DomainError, match="EigenSystem"):
        excitation_sweep(WHITE, np.eye(4), u0, 0.1, LAM13)
    # the sweep has one route, so there is no route to ask for
    with pytest.raises(TypeError, match="method"):
        excitation_sweep(WHITE, es, u0, 0.1, LAM13, method="volterra")


def test_sweep_refuses_a_zero_initial_profile_before_solving(eigen_cache, monkeypatch):
    # E_t(lambda) = 0 at every lambda has no growth index: a domain error
    # naming u0, raised before any solve
    import fracstorm.excitation as excitation

    def solve(*args, **kwargs):
        raise AssertionError("the sweep solved a zero u0")

    monkeypatch.setattr(excitation, "second_moment_white", solve)
    es = eigen_cache(2.0, 16)
    with pytest.raises(DomainError, match="^u0 is zero everywhere"):
        excitation_sweep(WHITE, es, np.zeros(es.grid.n), 0.1, LAM13, nt=8)


def test_fit_dataclass_validation():
    ok = dict(
        lambdas=np.array([1.0, 10.0, 100.0]),
        functional="energy",
        log_values=np.array([0.0, 1.0, 2.0]),
        slope=2.0,
        theory=2.0,
        t=0.1,
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
