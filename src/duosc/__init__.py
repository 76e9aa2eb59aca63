"""Exact Gaussian-state evolution of two driven, coupled, damped quantum
oscillators, each in contact with its own Ohmic heat bath.

The engine builds each state from its phase-space moments: normal modes of
the coupled damped pair, the bath noise block of the influence functional,
the drive's mode moments, and a closed-form map from means and covariance
to the density-matrix parameters.  The paper's boundary-value route
(classical boundary paths, the bath phase over their endpoints, an exact
Gaussian contraction with the initial state) stays as a cross-check, and
an independent oracle (ODE means, fluctuation-dissipation spreads,
brute-force kernel integrals) cross-validates every stage.
"""

from .config import (BathParams, ForceSpec, InternalConfig, OscillatorParams,
                     SystemConfig, TimeGrid, config_from_dict, load_config,
                     to_internal, validate_config)
from .engine import SimulationResult, simulate
from .errors import (CausticTime, ConfigError, CouplingTooStrong,
                     DegenerateModes, DuoscError, NonHermitianLarge,
                     NotNormalizable, QuadratureNonConvergence)
from .modes import NormalModes, solve_determinant
from .observables import CovarianceReport, report
from .reduction import GaussianStateParams, initial_state

__version__ = "0.1.0"

__all__ = [
    "BathParams", "CausticTime", "ConfigError", "CouplingTooStrong",
    "CovarianceReport", "DegenerateModes", "DuoscError", "ForceSpec",
    "GaussianStateParams", "InternalConfig", "NonHermitianLarge",
    "NormalModes", "NotNormalizable", "OscillatorParams",
    "QuadratureNonConvergence", "SimulationResult", "SystemConfig",
    "TimeGrid", "config_from_dict", "initial_state", "load_config",
    "report", "simulate", "solve_determinant", "to_internal",
    "validate_config",
]
