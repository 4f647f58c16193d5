"""Exception types and generic tolerances shared across the package.

This module declares STRUCTURAL_TOL and SPECTRAL_TOL; a tolerance that
belongs to one routine or one check is declared beside it, in that routine's
or check's module.
"""

from __future__ import annotations

# Structural identities (symmetry, CCR, invariance) must hold to near machine
# precision; spectral quantities inherit eigensolver conditioning.
STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-9


class ContractViolation(ValueError):
    """An input violates a documented precondition; field names the input at fault, if known."""

    def __init__(self, message: str = "", field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class ConfigError(ValueError):
    """An experiment configuration field is invalid; message names the field."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy or convergence contract."""


class ClosureError(NumericError):
    """The generator does not close on the fluctuation observables."""
