"""Exception types shared across the package, and the argument rules
that raise them: `require_integer`, `require_real`, `require_list`,
`require_bool` and `real_or_inf` are the one test of a value against
bool, `numbers.Integral` and `numbers.Real`.  This module imports only
the standard library, so every other module can use them.
"""

import math
import numbers


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


def require_integer(name, value):
    """`value` as an int, or InvalidParameterError naming `name` when it
    is not an integer: a float such as 10.5 or 2.0 is not one, nor is a
    bool.  numpy integers are."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, not {value!r}")
    return int(value)


def require_real(name, value):
    """`value` unchanged, or InvalidParameterError naming `name` when it
    is not a real number: a bool is not one, nor is a string such as
    "1e3"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(
            f"{name} must be a real number, not {value!r}")
    return value


def require_list(name, value, item=object):
    """`value` as a tuple, or InvalidParameterError naming `name` unless it
    is a list (or tuple) of `item`s: a string such as "inf" is not one, nor
    is a number or a single JSON object."""
    if isinstance(value, (list, tuple)) and all(isinstance(entry, item)
                                                for entry in value):
        return tuple(value)
    kind = "a list" if item is object else f"a list of {item.__name__}s"
    raise InvalidParameterError(f"{name} must be {kind}, not {value!r}")


def require_bool(name, value):
    """`value` unchanged, or InvalidParameterError naming `name` unless it
    is True, False or None (an experiment's default): a string such as
    "no" or "false" is not one, nor is 1 or 0."""
    if value is not None and not isinstance(value, bool):
        raise InvalidParameterError(
            f"{name} must be true, false or null, not {value!r}")
    return value


def real_or_inf(name, value):
    """`require_real`, reading the string "inf" as math.inf: JSON, which
    configs are written in, has no literal for an infinite exponent."""
    return require_real(name, math.inf if value == "inf" else value)
