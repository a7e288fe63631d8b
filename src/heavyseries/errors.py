"""Exception types shared across the package."""


class HeavySeriesError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(HeavySeriesError, ValueError):
    """A parameter is outside its admissible domain."""


class ShapeError(HeavySeriesError, ValueError):
    """Array shapes or index layouts do not match."""


class ConvergenceError(HeavySeriesError, RuntimeError):
    """A numerical routine did not reach its tolerance.

    Carries the achieved error estimate so callers can decide whether the
    result is still usable.  When raised for one coordinate of a fit it
    also names that coordinate: its index, observation x, noise precision
    n, log prior scale and tail name (None otherwise).
    """

    def __init__(self, message, achieved=None, index=None, observation=None,
                 noise_precision=None, log_scale=None, tail=None):
        super().__init__(message)
        self.achieved = achieved
        self.index = index
        self.observation = observation
        self.noise_precision = noise_precision
        self.log_scale = log_scale
        self.tail = tail


class StateError(HeavySeriesError, RuntimeError):
    """An operation was called on an object missing required state."""
