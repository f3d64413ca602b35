"""Mutual information and MMSE toolkit for inputs in Gaussian noise.

Modules:
  laws        input distributions (atoms, Gaussian, mixtures, gridded)
  quadrature  rules for E over the output, ∫_0^snr and d/dsnr; McConfig
  scalar      scalar channel: posterior statistics, I-MMSE, Fisher, Taylor
  vector      vector channel: closed forms, atom Monte Carlo, de Bruijn
  ct          continuous time: telegraph filtering/smoothing, OU spectra
  dt          discrete time: Kalman triple, block MI, sandwich bounds
  represent   entropy / non-Gaussianness / MI as MMSE integrals
  cli         command-line entry point (curves, verify suites, simulations)
"""

__version__ = "0.1.0"

from .errors import (DegenerateCovariance, ImmseError, NonConvergence,
                     StepTooLarge, TailNotResolved)
from .laws import (DiscreteAtoms, Gaussian, GaussianMixture, GriddedDensity,
                   InputLaw, binary_law, standard_gaussian_law)
from .quadrature import McConfig
from .report import Check, Report
from .scalar import ScalarChannel, conditional_mean, mmse, mutual_information

__all__ = [
    "__version__",
    "Check", "Report",
    "DegenerateCovariance", "ImmseError", "NonConvergence", "StepTooLarge",
    "TailNotResolved",
    "DiscreteAtoms", "Gaussian", "GaussianMixture", "GriddedDensity",
    "InputLaw", "binary_law", "standard_gaussian_law",
    "McConfig",
    "ScalarChannel", "conditional_mean", "mmse", "mutual_information",
]
