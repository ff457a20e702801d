"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "ExpmorseError",
    "InvalidArgumentError",
    "ResourceLimitError",
    "PreconditionError",
    "InvalidChainError",
    "InternalConsistencyError",
    "LemmaViolationError",
]


class ExpmorseError(Exception):
    """Base class for package errors."""


class InvalidArgumentError(ExpmorseError, ValueError):
    """An argument violates a documented precondition."""


class ResourceLimitError(ExpmorseError, RuntimeError):
    """An enumeration would exceed a configured size bound."""


class PreconditionError(ExpmorseError, RuntimeError):
    """A step of a structured construction failed its entry check."""


class InvalidChainError(ExpmorseError, RuntimeError):
    """Boundary matrices do not compose to zero or have mismatched shapes."""


class InternalConsistencyError(ExpmorseError, RuntimeError):
    """A derived object fell outside the structure that construction guarantees."""


class LemmaViolationError(ExpmorseError, RuntimeError):
    """A structural fact the construction relies on failed to hold."""
