"""Exception hierarchy shared by all sedopt modules."""

from __future__ import annotations


class SedoptError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SedoptError, ValueError):
    """An argument violates a precondition (wrong sign, shape, ordering...)."""


class StructureError(SedoptError):
    """Data is well-formed but structurally unusable (several closed
    classes of regimes, non-contiguous replenish set, mismatched shapes)."""


class DomainError(SedoptError, ValueError):
    """The requested operation is undefined for these parameter values."""


class NoInteriorThresholdError(DomainError):
    """No replenishment threshold exists strictly inside (0, 1)."""


class ConvergenceError(SedoptError, RuntimeError):
    """A steady-state solve stopped before its residual reached the tolerance."""
