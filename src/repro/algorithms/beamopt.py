"""Beam-search offline planner — the "sampling heuristic" OPT of §IV-B.

The exact dynamic program of :class:`~repro.algorithms.opt.Opt` enumerates
all ``3^n`` configurations, which the paper concedes limits it to small
(line) graphs: "clustering or sampling heuristics may be used to speed up
the computations (which may come at a loss of allocation quality)".

:class:`BeamOpt` is that heuristic, made concrete: the same round-by-round
recurrence, but instead of the full state space it keeps only the
``beam_width`` cheapest states per round, and instead of all placements it
considers a *generated* candidate pool around the surviving states — stay,
single-server moves to the round's demand hot nodes, activations,
deactivations and single creations. Properties:

* with a wide enough beam on a small graph it recovers the exact optimum
  (tested against :class:`Opt`);
* its cost is always an upper bound on OPT and a valid offline comparator
  for OFFSTAT-style studies on graphs far beyond OPT's reach (hundreds of
  nodes).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_policy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.policy import PlannedPolicy
from repro.core.routing import route_requests
from repro.topology.substrate import Substrate
from repro.util.validation import check_positive_int

__all__ = ["BeamOpt"]

#: Demand hot nodes considered as migration/creation targets per round.
_TARGETS_PER_ROUND = 6
#: Migration sources considered per target (farthest-first).
_MOVE_SOURCES = 3


@register_policy("beamopt")
class BeamOpt(PlannedPolicy):
    """Offline beam-search allocation planner (§IV-B sampling heuristic).

    Args:
        beam_width: states kept per round; larger = closer to OPT, slower.
        max_servers: optional cap on simultaneous in-use servers.
        start_node: initial server location (``None`` = network center).
    """

    def __init__(
        self,
        beam_width: int = 64,
        max_servers: "int | None" = None,
        start_node: "int | None" = None,
    ) -> None:
        self._beam_width = check_positive_int("beam_width", beam_width)
        if max_servers is not None:
            max_servers = check_positive_int("max_servers", max_servers)
        self._k = max_servers
        self._start_node = start_node
        self._planned_cost: "float | None" = None

    @property
    def name(self) -> str:
        return f"BEAM-OPT({self._beam_width})"

    @property
    def planned_cost(self) -> float:
        """The planner's cost estimate (equals the simulated total; tested)."""
        self._solved_plan()
        return self._planned_cost

    # -- the beam search -----------------------------------------------------

    def _solve(self, substrate: Substrate, costs: CostModel, start: int) -> None:
        # States are (active frozenset, inactive frozenset) — the FIFO order
        # of the cache is irrelevant to planning costs, and lightweight
        # frozensets keep the inner loop free of Configuration validation.
        gamma0 = (frozenset((start,)), frozenset())
        beam: dict[tuple, float] = {gamma0: 0.0}
        parents: list[dict[tuple, tuple]] = []
        # Offline privilege: the whole trace's busiest nodes are standing
        # move/create targets, so the beam can also build the strong static
        # fleets OFFSTAT would pick when flexibility does not pay.
        global_hot = self._global_hot_nodes(substrate)
        run_a, run_i = costs.run_active, costs.run_inactive

        for t, requests in enumerate(self._trace):
            access = {
                state: self._access(substrate, costs, state[0], requests)
                for state in beam
            }
            candidates: dict[tuple, tuple[float, tuple]] = {}
            round_hot = self._hot_nodes(substrate, requests)
            targets = list(dict.fromkeys(round_hot + global_hot))
            for state, sunk in beam.items():
                served = sunk + access[state]
                if not np.isfinite(served):
                    continue
                act, inact = state
                # Each successor carries the §II-C delta cost of its single
                # change (stay/activate/deactivate/drop = 0, migrate =
                # min(β, c), create = c) — cheaper than re-deriving it from
                # set differences for every candidate.
                for nxt_act, nxt_inact, delta in self._successors(
                    substrate, costs, act, inact, targets
                ):
                    cost = (
                        served + delta
                        + run_a * len(nxt_act) + run_i * len(nxt_inact)
                    )
                    key = (nxt_act, nxt_inact)
                    best = candidates.get(key)
                    if best is None or cost < best[0]:
                        candidates[key] = (cost, state)
            if not candidates:
                raise RuntimeError(
                    f"beam died at round {t} (no feasible successor)"
                )
            kept = self._select(candidates)
            beam = {state: cost for state, (cost, _parent) in kept}
            parents.append({state: parent for state, (_cost, parent) in kept})

        final = min(beam, key=beam.get)
        self._planned_cost = float(beam[final])

        states: list[tuple] = [final]
        for t in range(len(self._trace) - 1, 0, -1):
            states.append(parents[t][states[-1]])
        states.reverse()
        self._plan = [
            Configuration(tuple(sorted(act)), tuple(sorted(inact)))
            for act, inact in states
        ]

    def _select(
        self, candidates: dict
    ) -> list[tuple[tuple, tuple[float, tuple]]]:
        """Stratified beam cut: reserve slots per fleet size, then top up.

        A plain top-``beam_width`` cut starves growth: a configuration that
        just paid a creation cost is dominated for many rounds before its
        access savings accrue, so it would be evicted and the beam could
        never discover larger fleets. Keeping the best few states of *every*
        fleet size preserves those paths at negligible extra width.
        """
        ranked = sorted(candidates.items(), key=lambda item: item[1][0])
        by_size: dict[int, list] = {}
        for item in ranked:
            by_size.setdefault(len(item[0][0]), []).append(item)

        per_stratum = max(2, self._beam_width // max(len(by_size), 1))
        kept = []
        chosen = set()
        for size_rank in by_size.values():
            for item in size_rank[:per_stratum]:
                kept.append(item)
                chosen.add(item[0])
        for item in ranked:  # fill remaining slots by global rank
            if len(kept) >= self._beam_width:
                break
            if item[0] not in chosen:
                kept.append(item)
                chosen.add(item[0])
        return kept[: max(self._beam_width, len(by_size) * 2)]

    @staticmethod
    def _access(
        substrate: Substrate,
        costs: CostModel,
        active: frozenset,
        requests: np.ndarray,
    ) -> float:
        if requests.size == 0:
            return 0.0
        if not active:
            return float("inf")
        return route_requests(
            substrate, np.fromiter(active, dtype=np.int64), requests, costs
        ).access_cost

    @staticmethod
    def _hot_nodes(substrate: Substrate, requests: np.ndarray) -> list[int]:
        """The round's busiest access nodes — natural move/create targets."""
        if requests.size == 0:
            return []
        counts = np.bincount(requests, minlength=substrate.n)
        hot = np.argsort(counts, kind="stable")[::-1]
        hot = hot[counts[hot] > 0][:_TARGETS_PER_ROUND]
        return [int(v) for v in hot]

    def _global_hot_nodes(self, substrate: Substrate) -> list[int]:
        """The trace's busiest access nodes overall (standing targets)."""
        histogram = self._trace.node_histogram(substrate.n)
        hot = np.argsort(histogram, kind="stable")[::-1]
        hot = hot[histogram[hot] > 0][:_TARGETS_PER_ROUND]
        return [int(v) for v in hot]

    def _successors(
        self,
        substrate: Substrate,
        costs: CostModel,
        act: frozenset,
        inact: frozenset,
        targets: list[int],
    ) -> list[tuple[frozenset, frozenset, float]]:
        """Single-change neighbourhood of a state, with per-change cost.

        Yields ``(new_active, new_inactive, transition_cost)`` triples; the
        costs follow §II-C exactly because every successor differs by one
        priced operation (verified against ``price_transition`` in tests).
        """
        move_cost = min(costs.migration, costs.creation)
        create_cost = costs.creation
        out = [(act, inact, 0.0)]
        occupied = act | inact
        free_targets = [u for u in targets if u not in occupied]
        limit = self._k if self._k is not None else substrate.n

        distances = substrate.distances
        for u in free_targets:
            target_set = frozenset((u,))
            # Moving *which* server matters less than moving *to* u (the
            # fleet is interchangeable except for coverage); consider the
            # few servers farthest from u — the likeliest to be redundant
            # there — to keep the branching factor independent of k.
            if len(act) > _MOVE_SOURCES:
                sources = sorted(
                    act, key=lambda s: -distances[s, u]
                )[:_MOVE_SOURCES]
            else:
                sources = act
            for src_node in sources:
                out.append((act - {src_node} | target_set, inact, move_cost))
            if len(act) + len(inact) < limit:
                out.append((act | target_set, inact, create_cost))

        for node in inact:  # activate a cached server in place (free)
            out.append((act | {node}, inact - {node}, 0.0))

        if len(act) >= 2:
            for node in act:  # deactivate into the cache / drop entirely
                remaining = act - {node}
                out.append((remaining, inact | {node}, 0.0))
                out.append((remaining, inact, 0.0))
        return out
