"""Server load functions ``load(v, t) = f(ω(v), η(v, t))`` (§II-B).

The access cost of a round is the sum of request latencies *plus* the load
of every node: the load captures the latency contribution of a busy server.
The paper's examples are the linear model ``η/ω`` and — in the motivating
Figure 1/2 experiments — a quadratic model where the marginal cost of a
request grows with the queue, pushing the algorithms to allocate more
servers.

A load function maps (``strengths``, ``request counts``) arrays to per-node
load values; all implementations are vectorised over nodes. Custom shapes
can be supplied with :class:`CallableLoad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "LoadFunction", "LinearLoad", "QuadraticLoad", "PowerLoad", "CallableLoad",
    "dyadic_linear_strength",
]


@runtime_checkable
class LoadFunction(Protocol):
    """Protocol for load models: per-node load from strength and demand."""

    #: True when total load depends only on the *total* number of requests
    #: (not on how they are split across servers) under uniform strengths.
    #: The candidate evaluators exploit this to rank configurations by
    #: latency alone (see DESIGN.md §3).
    assignment_invariant_for_uniform_strength: bool

    def __call__(self, strengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Per-node load values for ``counts`` requests on nodes of ``strengths``."""


@dataclass(frozen=True)
class LinearLoad:
    """The paper's simple model ``load = η(v, t) / ω(v)``.

    With uniform strengths the summed load equals ``Σ η / ω`` — a constant
    for a fixed request set — so the split across servers does not matter,
    which is why this is the cheap default for large-network sweeps.
    """

    assignment_invariant_for_uniform_strength: bool = True

    def __call__(self, strengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
        return np.asarray(counts, dtype=np.float64) / np.asarray(strengths, dtype=np.float64)


@dataclass(frozen=True)
class QuadraticLoad:
    """Quadratic congestion model ``load = (η(v, t) / ω(v))²``.

    Used by the paper's Figure 1/2 motivation: steeper load functions make
    ONTH allocate more servers to balance the per-server queue.
    """

    assignment_invariant_for_uniform_strength: bool = False

    def __call__(self, strengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
        ratio = np.asarray(counts, dtype=np.float64) / np.asarray(strengths, dtype=np.float64)
        return ratio * ratio


@dataclass(frozen=True)
class PowerLoad:
    """General monomial model ``load = (η/ω)^exponent`` for ablations.

    ``exponent=1`` reproduces :class:`LinearLoad`, ``exponent=2``
    :class:`QuadraticLoad`; intermediate exponents let the ablation bench
    sweep the congestion sensitivity continuously.
    """

    exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.exponent >= 1.0:
            raise ValueError(f"exponent must be >= 1 (convex load), got {self.exponent}")

    @property
    def assignment_invariant_for_uniform_strength(self) -> bool:
        return self.exponent == 1.0

    def __call__(self, strengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
        ratio = np.asarray(counts, dtype=np.float64) / np.asarray(strengths, dtype=np.float64)
        return np.power(ratio, self.exponent)


@dataclass(frozen=True)
class CallableLoad:
    """Adapter wrapping an arbitrary ``f(ω, η) -> load`` vectorised callable."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    assignment_invariant_for_uniform_strength: bool = False

    def __call__(self, strengths: np.ndarray, counts: np.ndarray) -> np.ndarray:
        result = np.asarray(self.fn(strengths, counts), dtype=np.float64)
        if result.shape != np.asarray(counts).shape:
            raise ValueError(
                f"load callable returned shape {result.shape}, expected {np.asarray(counts).shape}"
            )
        return result


def dyadic_linear_strength(load: LoadFunction, strengths: np.ndarray) -> "float | None":
    """The common strength ``s`` when summed load is exact, else ``None``.

    Under :class:`LinearLoad` with every strength equal to one power of two
    ``s``, each term ``count/s`` is a dyadic rational, and so is every
    partial sum of such terms — no addition rounds. The summed load of
    *any* split of a round's requests over servers, in any summation
    order, therefore equals ``size/s`` bit for bit, and a window's equals
    ``Σ sizes/s``. Callers use this to skip the assignment entirely.
    """
    if type(load) is not LinearLoad or strengths.size == 0:
        return None
    strength = float(strengths[0])
    if not np.all(strengths == strength):
        return None
    if not (math.isfinite(strength) and strength > 0.0):
        return None
    return strength if math.frexp(strength)[0] == 0.5 else None
