"""Exception types shared across the package."""


class BinallocError(Exception):
    """Base class for all package errors."""


class ShapeError(BinallocError, ValueError):
    """Dimension mismatch between problem data and an argument."""


class DomainError(BinallocError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidCoefficientError(BinallocError, ValueError):
    """Cost-coefficient fit is impossible (e.g. a zero quadratic coefficient)."""


class InvalidGraphError(BinallocError, ValueError):
    """Malformed edge list (self-loop or out-of-range endpoint)."""


class ConnectivityError(BinallocError, ValueError):
    """Operation requires a connected communication graph."""


class SizeError(BinallocError, ValueError):
    """Problem too large for an exhaustive method."""


class NumericFailureError(BinallocError, RuntimeError):
    """A flow produced non-finite values; carries the last valid state and its step count."""

    def __init__(self, message, state=None, trajectory=None, iterations=0):
        super().__init__(message)
        self.state = state
        self.trajectory = trajectory
        self.iterations = iterations


class IncompleteCampaignError(BinallocError, ValueError):
    """A benchmark campaign is missing a (trial, method) record, or repeats one."""
