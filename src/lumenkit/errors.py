"""Exception types shared across the toolkit, and the shared check for
positive, finite arguments."""

import math


class LumenError(Exception):
    """Base class for all toolkit errors."""


class DomainError(LumenError, ValueError):
    """An argument lies outside the physically meaningful domain."""


class NonConvergenceError(LumenError, RuntimeError):
    """An iterative numeric procedure hit its depth or iteration limit."""


class ZeroSpectrumError(LumenError, ValueError):
    """A spectrum is identically zero where a nonzero integral is required."""


class UnsupportedModelError(LumenError, TypeError):
    """The operation cannot handle this spectrum model variant."""


class ParseError(LumenError, ValueError):
    """A data file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(LumenError, ValueError):
    """Parsed data violates a structural invariant."""


def check_positive(what: str, value: float, unit: str) -> None:
    """Raise :class:`DomainError` unless ``value`` is finite and > 0.

    NaN and infinity are rejected here, at the boundary, because the
    fixed-rule integrals downstream would carry them into a result.
    """
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value} {unit}")
