"""Argument checks: each scalar argument is refused by ``errors.integer`` or
``errors.number``, whose message starts with its name and shows its value."""

import math

import numpy as np
import pytest

from fracstorm.errors import DomainError, integer, number
from fracstorm.excitation import excitation_sweep, theoretical_index
from fracstorm.fracfun import (ExpSum, SampledFunction, caputo_derivative, fractional_integral,
                               inverse_subordinator_density, mittag_leffler, mittag_leffler_log,
                               mode_decay, stable_subordinator_density, subordinator_small_u_law,
                               subordinator_tail_law)
from fracstorm.kernels import (dirichlet_kernel_subordination, estimate_floor_constant,
                               fractional_free_kernel, free_kernel_l2, riesz_kernel_matrix,
                               stable_density)
from fracstorm.moments import (MomentPlan, lower_series_log, renewal_growth_exponent,
                               renewal_volterra_solve, second_moment_white)
from fracstorm.params import ModelParams, NoiseModel, SpaceGrid
from fracstorm.simulate import SigmaSpec, SimConfig, simulate_mild
from fracstorm.validate import run_validation

INF = math.inf
P = ModelParams(alpha=2.0, beta=0.5)
G = SampledFunction(times=np.linspace(0.0, 1.0, 5), values=np.linspace(0.0, 1.0, 5))
LAM = np.geomspace(1e2, 1e5, 6)
SEED_MAX = 2 ** 64 - 1

# (argument, low, high, closed, call): call(v, es, u0) passes v as the argument
# and valid values elsewhere; closed is number's, or "integer" for a count
ARGUMENTS = [
    ("beta", 0.0, 1.0, "right", lambda v, es, u0: mittag_leffler(v, 0.5)),
    ("beta", 0.0, 1.0, "right", lambda v, es, u0: mittag_leffler_log(v, 0.5)),
    ("beta", 0.0, 1.0, "neither", lambda v, es, u0: ExpSum.mittag_leffler(v, 1.0, 0.1, 1.0)),
    ("order", 0.0, 1.0, "right", lambda v, es, u0: ExpSum.power(v, 0.1, 1.0)),
    ("beta", 0.0, 1.0, "right", lambda v, es, u0: mode_decay(es.mu, v, 0.1)),
    ("beta", 0.0, 1.0, "neither", lambda v, es, u0: stable_subordinator_density(v, 1.0)),
    ("beta", 0.0, 1.0, "neither", lambda v, es, u0: subordinator_small_u_law(v, 0.5)),
    ("beta", 0.0, 1.0, "neither", lambda v, es, u0: subordinator_tail_law(v, 2.0)),
    ("beta", 0.0, 1.0, "neither", lambda v, es, u0: inverse_subordinator_density(v, 1.0, 0.5)),
    ("t", 0.0, INF, "neither", lambda v, es, u0: inverse_subordinator_density(0.5, v, 0.5)),
    ("beta", 0.0, 1.0, "neither", lambda v, es, u0: caputo_derivative(G, v, 0.5)),
    ("order", 0.0, 1.0, "right", lambda v, es, u0: fractional_integral(G, v, 0.5)),
    ("alpha", 0.0, 2.0, "right", lambda v, es, u0: stable_density(v, 1.0, 1.0, 0.0)),
    ("nu", 0.0, INF, "neither", lambda v, es, u0: stable_density(2.0, v, 1.0, 0.0)),
    ("t", 0.0, INF, "neither", lambda v, es, u0: stable_density(2.0, 1.0, v, 0.0)),
    ("t", 0.0, INF, "neither", lambda v, es, u0: fractional_free_kernel(P, v, 0.5)),
    ("t", 0.0, INF, "neither", lambda v, es, u0: free_kernel_l2(P, v)),
    ("t", 0.0, INF, "neither", lambda v, es, u0: dirichlet_kernel_subordination(es, 0.5, v)),
    ("gamma", 0.0, 1.0, "neither", lambda v, es, u0: riesz_kernel_matrix(es.grid, v)),
    ("alpha", 0.0, 2.0, "right", lambda v, es, u0: estimate_floor_constant(es, 0.5, v)),
    ("T", 0.0, INF, "neither", lambda v, es, u0: MomentPlan.build(P, es, u0, v, 24)),
    ("nt", 2, INF, "integer", lambda v, es, u0: MomentPlan.build(P, es, u0, 0.1, v)),
    ("l_sigma", -INF, INF, "neither", lambda v, es, u0: second_moment_white(P, es, u0, v, 0.1, 24)),
    ("c1", -INF, INF, "neither", lambda v, es, u0: renewal_volterra_solve(v, 1.0, 0.5, 1.0, 24)),
    ("kappa", 0.0, INF, "left", lambda v, es, u0: renewal_volterra_solve(1.0, v, 0.5, 1.0, 24)),
    ("rho", 0.0, 1.0, "right", lambda v, es, u0: renewal_volterra_solve(1.0, 1.0, v, 1.0, 24)),
    ("T", 0.0, INF, "neither", lambda v, es, u0: renewal_volterra_solve(1.0, 1.0, 0.5, v, 24)),
    ("nt", 2, INF, "integer", lambda v, es, u0: renewal_volterra_solve(1.0, 1.0, 0.5, 1.0, v)),
    ("kappa", 0.0, INF, "left", lambda v, es, u0: renewal_growth_exponent(v, 0.5)),
    ("rho", 0.0, 1.0, "right", lambda v, es, u0: renewal_growth_exponent(1.0, v)),
    ("t", 0.0, INF, "left", lambda v, es, u0: lower_series_log(v, 0.5)),
    ("rho", 0.0, INF, "neither", lambda v, es, u0: lower_series_log(1.0, v)),
    ("slope", -INF, INF, "neither", lambda v, es, u0: SigmaSpec(slope=v)),
    ("nt", 1, INF, "integer", lambda v, es, u0: SimConfig(nt=v)),
    ("T", 0.0, INF, "neither", lambda v, es, u0: SimConfig(T=v)),
    ("replicates", 2, INF, "integer", lambda v, es, u0: SimConfig(replicates=v)),
    ("seed", 0, SEED_MAX, "integer", lambda v, es, u0: SimConfig(seed=v)),
    ("nt", 2, INF, "integer", lambda v, es, u0: excitation_sweep(P, es, u0, 0.1, LAM, nt=v)),
    ("threads", 1, INF, "integer",
     lambda v, es, u0: simulate_mild(P, es, u0, SimConfig(nt=4, replicates=2), threads=v)),
    ("alpha", 0.0, 2.0, "right", lambda v, es, u0: theoretical_index(v, 0.5, 1, "white")),
    ("beta", 0.0, 1.0, "right", lambda v, es, u0: theoretical_index(2.0, v, 1, "white")),
    ("d", 0.0, INF, "neither", lambda v, es, u0: theoretical_index(2.0, 0.5, v, "white")),
    ("gamma", 0.0, INF, "neither", lambda v, es, u0: theoretical_index(2.0, 0.5, v, "riesz")),
    ("t", 0.0, INF, "neither", lambda v, es, u0: excitation_sweep(P, es, u0, v, LAM)),
    ("l_sigma", -INF, INF, "neither",
     lambda v, es, u0: excitation_sweep(P, es, u0, 0.1, LAM, l_sigma=v)),
    ("gamma", 0.0, INF, "neither", lambda v, es, u0: NoiseModel("riesz", gamma=v)),
    ("alpha", 0.0, 2.0, "right", lambda v, es, u0: ModelParams(alpha=v, beta=0.5)),
    ("beta", 0.0, 1.0, "right", lambda v, es, u0: ModelParams(alpha=2.0, beta=v)),
    ("nu", 0.0, INF, "neither", lambda v, es, u0: ModelParams(alpha=2.0, beta=0.5, nu=v)),
    ("R", 0.0, INF, "neither", lambda v, es, u0: ModelParams(alpha=2.0, beta=0.5, R=v)),
    ("lam", 0.0, INF, "left", lambda v, es, u0: ModelParams(alpha=2.0, beta=0.5, lam=v)),
    ("R", 0.0, INF, "neither", lambda v, es, u0: SpaceGrid(R=v, n=16)),
    ("n", 4, INF, "integer", lambda v, es, u0: SpaceGrid(R=1.0, n=v)),
    ("seed", 0, SEED_MAX, "integer", lambda v, es, u0: run_validation(seed=v)),
    ("threads", 1, INF, "integer", lambda v, es, u0: run_validation(threads=v)),
]


def _refused(low, high, closed):
    """NaN, +-inf, and each finite end's first value outside the range;
    a count also gets a float and a bool."""
    bad = [math.nan, INF, -INF]
    if closed == "integer":
        return bad + [float(low), True, low - 1] + ([high + 1] if high < INF else [])
    if low > -INF:
        bad.append(low if closed in ("neither", "right") else low - 1.0)
    if high < INF:
        bad.append(high if closed in ("neither", "left") else high + 1.0)
    return bad


CASES = [pytest.param(name, call, value, id=f"{i}-{name}={value!r}")
         for i, (name, low, high, closed, call) in enumerate(ARGUMENTS)
         for value in _refused(low, high, closed)]


@pytest.mark.parametrize("name, call, value", CASES)
def test_every_checked_argument_is_refused_by_name(eigen_cache, bump, name, call, value):
    es = eigen_cache(2.0, 16)
    with pytest.raises(DomainError, match=rf"^{name}\b") as refused:
        call(value, es, bump(es))
    assert f"{name}={value!r}" in str(refused.value)


def test_numpy_scalars_and_closed_ends_are_accepted():
    assert integer("n", np.int64(5), 4) == 5 and integer("seed", np.uint64(SEED_MAX), 0,
                                                         SEED_MAX) == SEED_MAX
    assert number("t", np.float64(0.5), 0.0, INF) == 0.5
    assert number("t", np.float32(0.5), 0.0, INF) == 0.5
    assert number("t", np.int64(2), 0.0, INF) == 2.0
    assert number("lam", 0.0, 0.0, INF, "left") == 0.0
    assert number("alpha", 2.0, 0.0, 2.0, "right") == 2.0
    assert number("x", -1.0, -1.0, 1.0, "both") == -1.0


def test_messages_state_the_range():
    with pytest.raises(DomainError, match=r"^nt must be an integer in \[2, inf\), got nt=2\.5$"):
        integer("nt", 2.5, 2)
    with pytest.raises(DomainError, match=r"^alpha must be a finite number in \(0, 2\], "
                                          r"got alpha=nan$"):
        number("alpha", math.nan, 0.0, 2.0, "right")
