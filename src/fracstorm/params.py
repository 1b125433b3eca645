"""Shared model/domain types: noise description, equation parameters, space grid.

The stochastic model solved throughout is

    D_t^beta u = -nu (-Laplacian)^(alpha/2) u + I_t^(1-beta)[ lambda sigma(u) F ]

on the centered interval (-R, R) with zero exterior (Dirichlet) condition,
where F is either space-time white noise or white-in-time noise with a
Riesz spatial covariance |x-y|^(-gamma).  Parameter admissibility encodes
the moment-existence conditions:

    white noise:  1 < min(2, 1/beta) * alpha
    Riesz noise:  0 < gamma < min(alpha, 1)

beta = 1 selects the classical (non-fractional) limit and is tracked by the
``classical`` flag rather than through the subordination machinery.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, integer, number

__all__ = ["NoiseModel", "ModelParams", "SpaceGrid"]


@dataclass(frozen=True)
class NoiseModel:
    """Noise specification: kind 'white' or 'riesz' (gamma required for riesz)."""

    kind: str = "white"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("white", "riesz"):
            raise DomainError(f"noise kind must be 'white' or 'riesz', got {self.kind!r}")
        if self.kind == "riesz":
            number("gamma", self.gamma, 0.0, np.inf)
        elif self.gamma is not None:
            raise DomainError("gamma is only meaningful for riesz noise")


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter set for the fractional stochastic heat model."""

    alpha: float
    beta: float
    nu: float = 1.0
    R: float = 1.0
    lam: float = 1.0
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        a = number("alpha", self.alpha, 0.0, 2.0, "right")
        b = number("beta", self.beta, 0.0, 1.0, "right")
        number("nu", self.nu, 0.0, np.inf)
        number("R", self.R, 0.0, np.inf)
        number("lam", self.lam, 0.0, np.inf, "left")
        if self.noise.kind == "white":
            cap = min(2.0, 1.0 / b) * a
            if not 1.0 < cap:
                raise DomainError(f"1 < min(2, 1/beta)*alpha violated: bound={cap:.6g}")
        else:
            g = float(self.noise.gamma)
            if not (0.0 < g < min(a, 1.0)):
                raise DomainError(f"0 < gamma < min(alpha, 1) violated: gamma={g}, alpha={a}")

    @property
    def classical(self):
        """True in the beta = 1 (non-fractional) limit."""
        return float(self.beta) == 1.0


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform cell-centered grid on (-R, R): n cells of width h = 2R/n."""

    R: float
    n: int

    def __post_init__(self):
        number("R", self.R, 0.0, np.inf)
        # a float n, even an integral one, would fail later as an array size
        integer("n", self.n, 4)

    @property
    def h(self):
        return 2.0 * self.R / self.n

    @property
    def nodes(self):
        h = self.h
        return -self.R + h * (np.arange(self.n) + 0.5)
