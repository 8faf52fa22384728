"""Allocation-policy interface: the decision maker of the online game (§II-E).

Every strategy — online (§III) or offline (§IV) — is an
:class:`AllocationPolicy`. The simulator drives the synchronous game:

1. the round's requests arrive,
2. the policy's *current* configuration pays the access cost,
3. the policy returns the next configuration and the simulator prices the
   transition (running + migration + creation costs).

Offline strategies are :class:`OfflinePolicy` subclasses and receive the
entire trace (``prepare``) before the run starts — the paper's "demand known
ahead of time" standpoint. They still run through the same simulator so that
their ledgers are produced by exactly the same accounting code as the online
algorithms. Offline *planners* (OPT, BEAM-OPT, MILP-OPT) compute one
configuration per round ahead of time and replay it: they are
:class:`PlannedPolicy` subclasses, which implement ``_solve`` and nothing
else — preparing, resetting, replaying and the ``plan`` accessor are shared.

Every policy places its single initial server with :func:`resolve_start`.

Request windows come from :meth:`AllocationPolicy.new_window`, which the
simulator serves from a shared distance gather when it can.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections.abc import Hashable

import numpy as np

from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.routing import RoutingResult
from repro.topology.substrate import Substrate
from repro.workload.base import RoundIterable, Trace, as_trace

__all__ = ["AllocationPolicy", "OfflinePolicy", "PlannedPolicy", "resolve_start"]


def resolve_start(substrate: Substrate, node: "int | None") -> int:
    """The node of a policy's initial server: ``node``, or the network center.

    Raises:
        ValueError: if ``node`` is not a whole number or not a node of
            ``substrate``.
    """
    if node is None:
        start = substrate.center
    else:
        try:
            start = operator.index(node)
        except TypeError:
            raise ValueError(
                f"start node must be a whole node index, got {node!r}"
            ) from None
    if not 0 <= start < substrate.n:
        raise ValueError(f"start node {start} outside the substrate")
    return start


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

    def recurrence_key(self) -> "Hashable | None":
        """The state that shapes the policy's future, or ``None`` (the default).

        Over a gathered trace that repeats every ``P`` rounds
        (:attr:`~repro.core.batch.DistanceGather.period`),
        :func:`~repro.core.simulator.simulate` reads this key with the
        current configuration before each round ``t = jP``. When both equal
        those of an earlier day boundary ``t0``, the game's whole state has
        recurred over the same input. A ledger row is a pure function of
        that state and the round's content (the gather's memo and the span
        router are content-keyed caches), so rounds ``[t, horizon)`` repeat
        rounds ``[t0, t)`` bit for bit: the simulator copies their rows
        instead of playing them. The policy object is then left in its
        state at round ``t``; :meth:`reset` discards it.

        A key must therefore hold every value that later ``decide`` calls
        read: accumulators, counters, thresholds, cache entries by *age*
        and each request window's
        :attr:`~repro.core.batch.GatherWindow.content_key`, never an
        absolute round or tick (no day would ever recur). A policy whose
        decisions read its rng, the round index or rounds beyond its
        windows (lookahead, plans) keeps ``None`` and is always played
        round by round.
        """
        return None

    # -- request windows ------------------------------------------------------

    #: The distance gather of the run in progress: bound by
    #: :func:`~repro.core.simulator.simulate` around ``reset``/``decide``
    #: when it runs a materialised trace, ``None`` otherwise.
    _run_gather = None

    def new_window(self, substrate: Substrate, costs: CostModel) -> RequestBatch:
        """An empty request window for the current run, created in ``reset``.

        Feed it every round in order (``add_round``) and ``clear`` it at
        epoch boundaries. Over a materialised trace it is a
        :class:`~repro.core.batch.GatherWindow` reading the run's distance
        gather, otherwise a plain :class:`RequestBatch`; both evaluate
        candidates bit for bit alike.
        """
        if self._run_gather is not None:
            return self._run_gather.new_window()
        return RequestBatch(substrate, costs)


class OfflinePolicy(AllocationPolicy):
    """A policy that sees the full request sequence before the run.

    Subclasses read the trace from ``self._trace`` and call
    :meth:`_require_prepared` first thing in ``reset``. An offline planner
    that fixes one configuration per round ahead of time derives from
    :class:`PlannedPolicy` instead and implements ``_solve`` and nothing
    else.
    """

    requires_full_trace: bool = True

    #: The trace handed to :meth:`prepare`; ``None`` until then.
    _trace: "Trace | None" = None

    def prepare(self, trace: Trace) -> None:
        """Receive the complete trace ahead of time (called before reset).

        Declaring ``requires_full_trace`` means ``trace`` is always a fully
        materialised :class:`~repro.workload.base.Trace`: the simulator (and
        the planners' ``solve``) run streaming input through
        :func:`~repro.workload.base.as_trace` first, which is exactly the
        O(trace)-memory cost an offline policy's lookahead implies.
        Implementations may therefore index and re-iterate ``trace`` freely.
        """
        self._trace = trace

    def _require_prepared(self) -> None:
        if self._trace is None:
            raise RuntimeError(f"{self.name}.prepare(trace) must be called before reset")


class PlannedPolicy(OfflinePolicy):
    """An offline planner: solve the whole trace in ``reset``, then replay it.

    A planner implements :meth:`_solve` and nothing else: it reads
    ``self._trace`` and sets ``self._plan`` to one configuration per round.
    Its constructor stores the initial server location as
    ``self._start_node`` (``None`` = network center); the system starts with
    a single active server there.
    """

    _start_node: "int | None" = None
    _plan: "list[Configuration] | None" = None

    def prepare(self, trace: Trace) -> None:
        super().prepare(trace)
        self._plan = None

    def reset(
        self,
        substrate: Substrate,
        costs: CostModel,
        rng: np.random.Generator,
    ) -> Configuration:
        return Configuration.single(self._solve_prepared(substrate, costs))

    def decide(
        self,
        t: int,
        requests: np.ndarray,
        routing: RoutingResult,
    ) -> Configuration:
        return self._plan[t]

    @property
    def plan(self) -> list[Configuration]:
        """The planned configuration per round (after solving)."""
        return list(self._solved_plan())

    def _solved_plan(self) -> list[Configuration]:
        if self._plan is None:
            raise RuntimeError(
                f"{self.name} has not been solved yet (run reset/simulate first)"
            )
        return self._plan

    @abstractmethod
    def _solve(self, substrate: Substrate, costs: CostModel, start: int) -> None:
        """Plan ``self._trace`` from a single server at ``start``."""

    def _solve_prepared(self, substrate: Substrate, costs: CostModel) -> int:
        """Solve the prepared trace from the resolved start node; returns it."""
        self._require_prepared()
        start = resolve_start(substrate, self._start_node)
        self._solve(substrate, costs, start)
        return start

    def _solve_trace(
        self, substrate: Substrate, trace: RoundIterable, costs: CostModel
    ) -> int:
        """``prepare`` + solve without simulating: backs the ``solve`` helpers."""
        self.prepare(as_trace(trace))
        return self._solve_prepared(substrate, costs)
