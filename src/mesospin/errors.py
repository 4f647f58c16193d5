"""Exception types shared across the package."""

from __future__ import annotations


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
