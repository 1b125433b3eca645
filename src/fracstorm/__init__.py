"""fracstorm: numerics for time-fractional stochastic heat equations.

Modules
-------
fracfun     Mittag-Leffler functions, stable subordinator densities,
            Caputo/Riemann-Liouville operators on sampled data.
kernels     symmetric-stable transition densities, subordinated free and
            Dirichlet heat kernels, discrete generators and eigensystems.
moments     second-moment Volterra solvers (white and spatially colored
            noise), renewal machinery, the lower-bound lemma's series.
simulate    Monte Carlo mild-solution simulation with white or Riesz noise.
excitation  noise-excitation index: theory values, sweeps, and fits.
cli         command line front end (`fracstorm`).

The package imports only numpy; Gamma comes from ``math``.
"""

__version__ = "0.1.0"

from .errors import DomainError, NumericsError

__all__ = ["DomainError", "NumericsError", "__version__"]
