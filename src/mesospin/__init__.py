"""Dissipative fluctuation dynamics of two spin chains in a common bath.

The package propagates the Gaussian fluctuation state of two non-interacting
spin-1/2 chains coupled to one thermal environment and tracks the logarithmic
negativity between the first collective mode of each chain: bath-mediated
entanglement that a shared reservoir creates, sustains, and eventually kills.
An exact microscopic oracle (the one-site-pair Heisenberg generator and
finite-size Weyl expectations) certifies every ingredient of the mesoscopic
model.
"""

from __future__ import annotations

from .checks import CheckResult, format_report, run_checks
from .errors import ClosureError, ConfigError, ContractViolation, NumericError
from .experiments import (
    ExperimentConfig,
    NegativityCurve,
    SweepResult,
    run_curve,
    sweep_gamma,
    sweep_temperature,
)
from .modes import GaussianState, drift_matrix, initial_state, propagate
from .negativity import NegativityResult, log_negativity, min_symplectic_pt
from .sites import GAMMA_MAX, ModelParams, dissipation_matrix, thermal_state

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ClosureError",
    "ConfigError",
    "ContractViolation",
    "ExperimentConfig",
    "GAMMA_MAX",
    "GaussianState",
    "ModelParams",
    "NegativityCurve",
    "NegativityResult",
    "NumericError",
    "SweepResult",
    "__version__",
    "dissipation_matrix",
    "drift_matrix",
    "format_report",
    "initial_state",
    "log_negativity",
    "min_symplectic_pt",
    "propagate",
    "run_checks",
    "run_curve",
    "sweep_gamma",
    "sweep_temperature",
    "thermal_state",
]
