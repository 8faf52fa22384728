"""A trace's distance columns, gathered once and shared by the round loop.

:func:`~repro.core.simulator.simulate` runs a materialised trace over a
:class:`DistanceGather` instead of re-gathering the same distance columns
from the substrate for every epoch window of every policy, and memoises
what those windows compute. This module does both without changing a
single ledger bit:

* :class:`DistanceGather` reads the trace's flat request array and round
  offsets as they are stored (read-only, no copy) and gathers the
  substrate's distance columns for the whole trace **once**, one column
  per distinct request node (``distances[:, nodes]``), so its size does
  not grow with the trace (a commuter trace at n=1000 holds ~14k
  requests from 128 nodes). An epoch window's scan reads its requests'
  columns of that gather chunk by chunk, as C-contiguous rows of
  ``columns.T`` (``columns.T[col_of[c0 + j0 : c0 + j1]]``, the values of
  ``distances[:, flat[j0:j1]].T``), so no ``(n, requests)`` block is
  ever copied;
* :class:`GatherWindow` is a drop-in :class:`~repro.core.evaluation.RequestBatch`
  whose ``add_round``/``clear`` just move window pointers over the gather.
  Policies get one from
  :meth:`~repro.core.policy.AllocationPolicy.new_window`; their epoch
  logic runs unchanged. The window holds no scan of its own: the one
  :meth:`~repro.core.evaluation.RequestBatch.epoch_scan` reads its
  distance blocks and, under dyadic loads, takes the window load without
  counting it.

The gather also holds one memo that every window and the round loop share,
keyed on **content**, not position. At build, each round is interned into
:attr:`DistanceGather.round_ids` (equal request arrays share an id), and a
window's :attr:`~GatherWindow.content_key` is the bytes of its run of ids.
Periodic demand repeats whole windows (a commuter day recurs every
``T·λ`` rounds), so one decision serves every recurrence, across sibling
policies too. Three things are memoised under it: exact access costs
(:meth:`GatherWindow.memoised`), a policy's decision at an epoch boundary
(the chosen family representative,
:func:`~repro.algorithms._families.choose`), and nearest routing of a
repeated round under one active set (the simulator's span router). Each
value is a pure function of its key: it reads only the window's gathered
columns and reduces into freshly allocated arrays, so its values, layout
and summation order are the same at any position.

Bit-identity ground rules (why these transformations are safe):

* numpy's pairwise summation is a pure function of the summand sequence
  and the operand layout, so every pairwise sum here (routing, exact
  costs, the scan's leave-one-out base rows) runs over the exact values,
  in the exact layout, that per-round routing and a plain
  ``RequestBatch`` sum (never padded, never transposed);
* the scan's candidate sums are a sequential fold in request order, not
  pairwise, so they depend only on the summand sequence: any chunking of
  the window's requests gives the same bits;
* ``min``/``argmin``/gathers are exact, so a leave-one-out base is the
  min over the remaining rows in any grouping, and a row of minima sums
  like the argmin gather it equals;
* integer ``bincount`` equals ``np.add.at`` counts, so derived load floats
  are identical;
* dyadic exactness: under :class:`~repro.core.load.LinearLoad` with one
  uniform power-of-two strength ``s``, every ``count/s`` and every partial
  sum of them is exact, so the summed load of *any* assignment is
  ``Σ sizes/s`` bit for bit (:func:`~repro.core.load.dyadic_linear_strength`
  decides this from the model). Only then may the scan and the round loop
  skip the argmin → bincount → load → sum chain.

Any other algebraic shortcut that changes float values in ULPs is
deliberately avoided.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.load import dyadic_linear_strength
from repro.core.results import RunResult
from repro.topology.substrate import Substrate
from repro.workload.base import Trace

__all__ = [
    "DistanceGather",
    "GatherWindow",
    "simulate_batched",
]

# ---------------------------------------------------------------------------
# Distance gather


class DistanceGather:
    """Distance columns of one trace's request nodes, gathered once.

    ``columns[v, col_of[j]]`` is the distance from node ``v`` to the
    ``j``-th request of the flattened trace: ``columns`` holds one column
    per distinct request node and ``col_of`` maps each request to its
    column. Round ``t`` is the request range ``offsets[t]:offsets[t+1]``,
    and any epoch window of a policy is likewise a range. ``flat`` and
    ``offsets`` are the trace's own read-only arrays
    (:attr:`~repro.workload.base.Trace.flat`), shared, not copied, and a
    window's requests are read-only views into them. The gather is
    lazy: a run that never scans candidates never pays for it, and the
    round loop's router reads the substrate's distances directly.
    """

    def __init__(
        self,
        substrate: Substrate,
        costs: CostModel,
        trace: Trace,
    ) -> None:
        self.substrate = substrate
        self.costs = costs
        rounds = trace.rounds
        #: Round boundaries in :attr:`flat` (the trace's own, read-only).
        self.offsets = trace.offsets
        self.sizes = trace.requests_per_round()
        #: ``offsets`` as Python ints, for indexing in per-round code.
        self.offset_list: list[int] = self.offsets.tolist()
        # Intern the rounds: equal request arrays (``Trace`` rounds are all
        # int64) share one id, so equal ids mean equal content.
        interned: dict[bytes, int] = {}
        first_seen = np.fromiter(
            (interned.setdefault(r.tobytes(), len(interned)) for r in rounds),
            dtype=np.int64,
            count=len(rounds),
        )
        # Number the contents held by two or more rounds first, so a
        # round's routing is memoised only when its content recurs.
        repeated = np.bincount(first_seen, minlength=len(interned)) > 1
        del interned
        # Half the bytes of int64 in every content key (and the id array).
        id_type = np.int32 if repeated.size < 2**31 else np.int64
        renumber = np.empty(repeated.size, dtype=id_type)
        #: How many contents recur: ids below this belong to repeated rounds.
        self.repeated_ids = int(np.count_nonzero(repeated))
        renumber[repeated] = np.arange(self.repeated_ids, dtype=id_type)
        renumber[~repeated] = np.arange(self.repeated_ids, repeated.size, dtype=id_type)
        #: Content id of each round: equal ids hold equal request arrays.
        self.round_ids = renumber[first_seen]
        #: Every request of the trace, in round order (the trace's own
        #: read-only array).
        self.flat = trace.flat
        if self.flat.size:
            lo, hi = int(self.flat.min()), int(self.flat.max())
            if lo < 0:
                # Fancy indexing would wrap it to the substrate's last nodes.
                raise ValueError(
                    f"trace references negative node {lo} "
                    f"(a negative node index {lo} is not a substrate node)"
                )
            if hi >= substrate.n:
                raise ValueError(
                    f"trace references node {hi} but substrate has "
                    f"{substrate.n} nodes"
                )
        #: The uniform strength when summed loads are exact in any order
        #: (see :func:`~repro.core.load.dyadic_linear_strength`), else None.
        self.exact_strength = dyadic_linear_strength(costs.load, substrate.strengths)
        self._columns: "np.ndarray | None" = None
        self._col_of: "np.ndarray | None" = None
        self._row_of: "np.ndarray | None" = None
        self._sizes_f64: "np.ndarray | None" = None
        self._arange: "np.ndarray | None" = None
        self._period = -1  # not computed yet; 0 once known to be aperiodic
        # Memo shared by every window over this gather and by the round
        # loop's router. Window entries are keyed (kind, *state, content
        # key) through GatherWindow.memoised, routes ("route", round id,
        # active). A recurring window, in any policy run over the trace,
        # hits; every value is a pure function of its key.
        self._memo: dict = {}

    def arange(self, size: int) -> np.ndarray:
        """``np.arange(size)`` served from one preallocated buffer."""
        if self._arange is None or self._arange.size < size:
            self._arange = np.arange(
                max(size, int(self.sizes.max(initial=0))), dtype=np.int64
            )
        return self._arange[:size]

    def memo_get(self, key):
        """Cached decision, exact cost or routing for ``key`` (or ``None``)."""
        return self._memo.get(key)

    def memo_put(self, key, value) -> None:
        """Cache a decision, exact cost or routing (bounded)."""
        if len(self._memo) >= 32768:
            self._memo.clear()
        self._memo[key] = value

    @property
    def period(self) -> "int | None":
        """The smallest ``P`` with ``round_ids[P:] == round_ids[:-P]`` and
        ``2P <= horizon``, or ``None``: every round ``t >= P`` then holds
        the content of round ``t - P``. Computed on first use, once per
        gather, and only by a run whose policy has a
        :meth:`~repro.core.policy.AllocationPolicy.recurrence_key`.
        """
        if self._period < 0:
            self._period = _smallest_period(self.round_ids)
        return self._period or None

    @property
    def columns(self) -> np.ndarray:
        """``(n, U)`` distances to the trace's ``U`` distinct request nodes.

        Built on first use, together with :attr:`col_of`. The distinct
        nodes come from a presence table over the substrate, not a sort.
        """
        if self._columns is None:
            present = np.zeros(self.substrate.n, dtype=bool)
            present[self.flat] = True
            # Column of each node, in node order (valid where present).
            self._col_of = (np.cumsum(present, dtype=np.intp) - 1)[self.flat]
            # Must be the same gather op a plain RequestBatch uses: a
            # column fancy-index yields a Fortran-ordered array, and numpy's
            # axis-1 reductions are only bitwise-reproducible when the
            # operand layout matches (np.take would give C order and shift
            # the pairwise summation order by a ULP on fractional weights).
            # Fortran order also makes columns.T, whose rows the scan's
            # candidate fold reads, C-contiguous.
            self._columns = self.substrate.distances[:, np.flatnonzero(present)]
        return self._columns

    @property
    def col_of(self) -> np.ndarray:
        """Column of :attr:`columns` that holds each flattened request."""
        if self._col_of is None:
            self.columns  # builds both
        return self._col_of

    @property
    def row_of(self) -> np.ndarray:
        """Round index of each flattened request."""
        if self._row_of is None:
            self._row_of = np.repeat(
                np.arange(self.sizes.size, dtype=np.int64), self.sizes
            )
        return self._row_of

    @property
    def sizes_f64(self) -> np.ndarray:
        """Per-round request counts as float64 (for load bounds)."""
        if self._sizes_f64 is None:
            self._sizes_f64 = self.sizes.astype(np.float64)
        return self._sizes_f64

    def matches(self, substrate: Substrate, costs: CostModel) -> bool:
        """Whether the gather was built for exactly this substrate/costs."""
        return substrate is self.substrate and costs is self.costs

    def new_window(self) -> "GatherWindow":
        """A fresh empty request window over this gather (at round 0)."""
        return GatherWindow(self)


def _smallest_period(ids: np.ndarray) -> int:
    """The smallest shift ``P <= ids.size // 2`` under which ``ids`` repeats, or 0."""
    if ids.size < 2:
        return 0
    last = ids.size - 1
    shifts = np.arange(1, ids.size // 2 + 1)
    # A period keeps the first and the last id; test every shift on those
    # two at once, and compare whole shifted copies only for survivors.
    shifts = shifts[(ids[shifts] == ids[0]) & (ids[last - shifts] == ids[last])]
    for shift in shifts.tolist():
        if np.array_equal(ids[shift:], ids[:-shift]):
            return shift
    return 0


class GatherWindow(RequestBatch):
    """A :class:`RequestBatch` served from a :class:`DistanceGather`.

    ``add_round``/``clear`` move ``[t0, t1)`` pointers instead of copying
    request arrays; ``flat``/``round_ids``/``round_sizes`` are slices of the
    gather, and the distance accessors read the window's requests' columns
    from it: a ``(rows, requests)`` block for exact costs and the scan's
    base rows, and ``(chunk, n)`` candidate rows for the scan's fold. The
    base class's epoch scan and exact costs therefore see byte-identical
    inputs in the same shapes, layouts and reduction orders as a freshly
    built plain window — the outputs are bit-identical, just cheaper to
    produce; exact costs and decisions are memoised on the gather.
    """

    def __init__(self, gather: DistanceGather) -> None:
        self._substrate = gather.substrate
        self._costs = gather.costs
        self._gather = gather
        self._t0 = 0
        self._t1 = 0
        self._invariant: "bool | None" = None
        self._key_span: "tuple[int, int] | None" = None
        self._key = b""

    # -- window pointers --------------------------------------------------------

    def add_round(self, requests: np.ndarray) -> None:
        bounds = self._gather.offset_list
        t = self._t1
        if t >= len(bounds) - 1 or requests.size != (
            bounds[t + 1] - bounds[t]
        ):
            raise RuntimeError(
                "gather window out of sync: fed a round that does not match "
                "the gathered trace"
            )
        self._t1 = t + 1

    def clear(self) -> None:
        self._t0 = self._t1

    @property
    def n_rounds(self) -> int:
        return self._t1 - self._t0

    @property
    def _c0(self) -> int:
        return self._gather.offset_list[self._t0]

    @property
    def _c1(self) -> int:
        return self._gather.offset_list[self._t1]

    @property
    def flat(self) -> np.ndarray:
        return self._gather.flat[self._c0 : self._c1]

    @property
    def round_ids(self) -> np.ndarray:
        return self._gather.row_of[self._c0 : self._c1] - self._t0

    @property
    def round_sizes(self) -> np.ndarray:
        return self._gather.sizes_f64[self._t0 : self._t1]

    def _invariant_load(self) -> float:
        strength = self._gather.exact_strength
        if strength is None:
            return RequestBatch._invariant_load(self)
        # Dyadic loads: Σ sizes/s is exact, hence (requests)/s.
        return (self._c1 - self._c0) / strength

    def _dyadic_load(self) -> "float | None":
        return None if self._gather.exact_strength is None else self._invariant_load()

    # -- distance access --------------------------------------------------------

    def _distance_block(self, rows: np.ndarray) -> np.ndarray:
        # Only exact min/argmin read the block, so no layout of it could
        # change a bit; rows[:, None] skips np.ix_'s index reshaping.
        gather = self._gather
        return gather.columns[rows[:, None], gather.col_of[self._c0 : self._c1]]

    def _candidate_rows(self, j0: int, j1: int) -> np.ndarray:
        # columns is Fortran-ordered, so its transpose is C-contiguous and
        # a row gather is distances[:, flat[j0:j1]].T in value and layout.
        gather = self._gather
        c0 = self._c0
        return gather.columns.T[gather.col_of[c0 + j0 : c0 + j1]]

    # -- content-keyed memo -----------------------------------------------------

    @property
    def content_key(self) -> bytes:
        """What the window holds: the bytes of its rounds' content ids.

        Two windows anywhere in the trace with equal keys hold the same
        rounds in the same order, hence the same gathered columns. The
        bytes are built once per window range, so the decision entry and
        the simulator's recurrence key of one epoch share them.
        """
        span = (self._t0, self._t1)
        if self._key_span != span:
            self._key = self._gather.round_ids[self._t0 : self._t1].tobytes()
            self._key_span = span
        return self._key

    def memoised(self, key: tuple, compute):
        """``compute()``, memoised on the gather under ``key`` + :attr:`content_key`."""
        key = (*key, self.content_key)
        value = self._gather.memo_get(key)
        if value is None:
            value = compute()
            self._gather.memo_put(key, value)
        return value

    def exact_access_cost(self, active: "np.ndarray | tuple[int, ...]") -> float:
        """Memoised: the non-invariant scans' shortlists re-score the same
        placements across sibling policies and recurring windows."""
        active = np.asarray(active, dtype=np.int64)
        return self.memoised(
            ("exact", active.tobytes()),
            lambda: RequestBatch.exact_access_cost(self, active),
        )


def simulate_batched(*args, **kwargs) -> RunResult:
    """Former name of :func:`~repro.core.simulator.simulate`; forwards to it."""
    from repro.core.simulator import simulate

    return simulate(*args, **kwargs)
