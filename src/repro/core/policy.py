"""Allocation-policy interface: the decision maker of the online game (§II-E).

Every strategy — online (§III) or offline (§IV) — is an
:class:`AllocationPolicy`. The simulator drives the synchronous game:

1. the round's requests arrive,
2. the policy's *current* configuration pays the access cost,
3. the policy returns the next configuration and the simulator prices the
   transition (running + migration + creation costs).

Offline strategies additionally implement :class:`OfflinePolicy` and receive
the entire trace before the run starts — the paper's "demand known ahead of
time" standpoint. They still run through the same simulator so that their
ledgers are produced by exactly the same accounting code as the online
algorithms.

Request windows come from :meth:`AllocationPolicy.new_window`, which the
simulator serves from a shared distance gather when it can.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.routing import RoutingResult
from repro.topology.substrate import Substrate
from repro.workload.base import Trace

__all__ = ["AllocationPolicy", "OfflinePolicy"]


class AllocationPolicy(ABC):
    """Base class for server allocation strategies."""

    #: Whether the policy must see the complete trace before the run. Online
    #: policies leave this ``False`` and the simulator feeds them rounds from
    #: any round-iterable — including lazily generated
    #: :class:`~repro.traces.streaming.StreamingTrace` streams — in O(round)
    #: memory. :class:`OfflinePolicy` overrides it to ``True``, making the
    #: simulator materialise streaming input before :meth:`~OfflinePolicy.prepare`.
    requires_full_trace: bool = False

    @property
    def name(self) -> str:
        """Display name used in ledgers and reports."""
        return type(self).__name__

    @abstractmethod
    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        """Bind to a substrate and return the initial configuration ``γ0``.

        Called once per run before any request arrives; implementations must
        clear all epoch state so a policy object can be reused across runs.
        The returned configuration is *not* charged (the system starts there,
        as in OPT's ``opt[0]`` base case).
        """

    @abstractmethod
    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        """Choose the configuration for the end of round ``t``.

        Args:
            t: round index.
            requests: the round's request multiset (access-point indices).
            routing: how those requests were served by the *current*
                configuration, including the access cost just paid.

        Returns:
            The next configuration; returning the current one means "no
            change" and is free.
        """

    # -- request windows ------------------------------------------------------

    #: The distance gather of the run in progress: bound by
    #: :func:`~repro.core.simulator.simulate` around ``reset``/``decide``
    #: when it runs a materialised trace, ``None`` otherwise.
    _run_gather = None

    def new_window(self, substrate: Substrate, costs: CostModel) -> RequestBatch:
        """An empty request window for the current run, created in ``reset``.

        Feed it every round in order (``add_round``) and ``clear`` it at
        epoch boundaries. Over a materialised trace it is a
        :class:`~repro.core.batch.GatherWindow` slicing the run's distance
        gather, otherwise a plain :class:`RequestBatch`; both evaluate
        candidates bit for bit alike.
        """
        if self._run_gather is not None:
            return self._run_gather.new_window()
        return RequestBatch(substrate, costs)


class OfflinePolicy(AllocationPolicy):
    """A policy that sees the full request sequence before the run."""

    requires_full_trace: bool = True

    @abstractmethod
    def prepare(self, trace: Trace) -> None:
        """Receive the complete trace ahead of time (called before reset).

        Declaring ``requires_full_trace`` means ``trace`` is always a fully
        materialised :class:`~repro.workload.base.Trace`: the simulator (and
        ``Opt.solve``) run streaming input through
        :func:`~repro.workload.base.as_trace` first, which is exactly the
        O(trace)-memory cost an offline policy's lookahead implies.
        Implementations may therefore index and re-iterate ``trace`` freely.
        """
