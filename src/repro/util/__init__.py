"""Shared utilities: seeded randomness and argument validation.

These helpers enforce two conventions used throughout the library:

* every stochastic component takes either an integer seed or a
  :class:`numpy.random.Generator` and is deterministic given that input
  (:func:`repro.util.rng.ensure_rng`), and
* public constructors validate their arguments eagerly and raise
  :class:`ValueError`/:class:`TypeError` with actionable messages
  (:mod:`repro.util.validation`).
"""

from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_non_negative",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
