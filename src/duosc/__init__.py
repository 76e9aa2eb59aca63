"""Exact Gaussian-state evolution of two driven, coupled, damped quantum
oscillators, each in contact with its own Ohmic heat bath.

The engine solves the dynamics as a boundary-value problem: normal modes of
the coupled damped pair, classical boundary paths, the bath-induced phase
functional, and an exact Gaussian contraction with the initial state.  An
independent oracle (ODE means, fluctuation-dissipation spreads, brute-force
kernel integrals) cross-validates every stage.
"""

from .config import (BathParams, ForceSpec, InternalConfig, OscillatorParams,
                     SystemConfig, TimeGrid, config_from_dict, load_config,
                     to_internal, validate_config)
from .engine import SimulationResult, simulate, state_at
from .errors import (CausticTime, ConfigError, CouplingTooStrong,
                     DegenerateModes, DuoscError, NonHermitianLarge,
                     NonRealRatio, NotNormalizable, QuadratureNonConvergence,
                     StepFailure)
from .modes import NormalModes, solve_determinant
from .observables import CovarianceReport, report
from .reduction import GaussianStateParams, initial_state

__version__ = "0.1.0"

__all__ = [
    "BathParams", "CausticTime", "ConfigError", "CouplingTooStrong",
    "CovarianceReport", "DegenerateModes", "DuoscError", "ForceSpec",
    "GaussianStateParams", "InternalConfig", "NonHermitianLarge",
    "NonRealRatio", "NormalModes", "NotNormalizable", "OscillatorParams",
    "QuadratureNonConvergence", "SimulationResult", "StepFailure",
    "SystemConfig", "TimeGrid", "config_from_dict", "initial_state",
    "load_config", "report", "simulate", "solve_determinant", "state_at",
    "to_internal", "validate_config",
]
