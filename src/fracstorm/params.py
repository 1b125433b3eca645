"""Shared model/domain types: noise description, equation parameters, space grid.

The stochastic model solved throughout is

    D_t^beta u = -nu (-Laplacian)^(alpha/2) u + I_t^(1-beta)[ lambda sigma(u) F ]

on the centered interval (-R, R) with zero exterior (Dirichlet) condition,
where F is either space-time white noise or white-in-time noise with a
Riesz spatial covariance |x-y|^(-gamma).  Parameter admissibility encodes
the moment-existence conditions:

    white noise:  d < (2 AND 1/beta) * alpha
    Riesz noise:  0 < gamma < min(alpha, d)

beta = 1 selects the classical (non-fractional) limit and is tracked by the
``classical`` flag rather than through the subordination machinery.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

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
            if self.gamma is None or not np.isfinite(self.gamma) or self.gamma <= 0.0:
                raise DomainError("riesz noise requires gamma > 0")
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
    d: int = 1
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not np.isfinite(a) or not (0.0 < a <= 2.0):
            raise DomainError(f"alpha in (0, 2] violated: alpha={self.alpha}")
        if not np.isfinite(b) or not (0.0 < b <= 1.0):
            raise DomainError(f"beta in (0, 1] violated: beta={self.beta}")
        if not np.isfinite(self.nu) or self.nu <= 0.0:
            raise DomainError(f"nu > 0 violated: nu={self.nu}")
        if not np.isfinite(self.R) or self.R <= 0.0:
            raise DomainError(f"R > 0 violated: R={self.R}")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise DomainError(f"lambda >= 0 violated: lambda={self.lam}")
        if self.d not in (1, 2, 3):
            raise DomainError(f"d in {{1,2,3}} violated: d={self.d}")
        if self.noise.kind == "white":
            cap = min(2.0, 1.0 / b) * a
            if not self.d < cap:
                raise DomainError(
                    f"d < (2 AND 1/beta)*alpha violated: d={self.d}, bound={cap:.6g}"
                )
        else:
            g = float(self.noise.gamma)
            if not (0.0 < g < min(a, float(self.d))):
                raise DomainError(
                    f"0 < gamma < min(alpha, d) violated: gamma={g}, "
                    f"min(alpha,d)={min(a, float(self.d)):.6g}"
                )

    @property
    def classical(self):
        """True in the beta = 1 (non-fractional) limit."""
        return float(self.beta) == 1.0

    @property
    def dissipation_exponent(self):
        """Lag-kernel exponent d*beta/alpha governing the white-noise moment kernel."""
        return self.d * float(self.beta) / float(self.alpha)


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform cell-centered grid on (-R, R): n cells of width h = 2R/n."""

    R: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.R) or self.R <= 0.0:
            raise DomainError(f"grid R > 0 violated: R={self.R}")
        if int(self.n) != self.n or self.n < 4:
            raise DomainError(f"grid needs n >= 4 cells, got {self.n}")

    @property
    def h(self):
        return 2.0 * self.R / self.n

    @property
    def nodes(self):
        h = self.h
        return -self.R + h * (np.arange(self.n) + 0.5)
