"""Eager argument validation helpers.

Small, uniform checks used by public constructors so that a bad parameter
fails at construction time with a message naming the offending argument,
instead of surfacing as a confusing numerical error rounds later.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number > 0 and return it as float."""
    _check_real(name, value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def check_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number >= 0 and return it as float."""
    _check_real(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_positive_int(name: str, value: int) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as int."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    _check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def _check_real(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
