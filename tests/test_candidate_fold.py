"""The epoch scan's candidate fold against the stacked broadcast it replaced.

``RequestBatch._candidate_latencies`` folds the candidate sums over chunks
of a window's requests. Policies argmin over these floats, so the contract
is exact equality with the one-shot expression below, on plain and
gathered windows, for windows shorter than, equal to and longer than one
chunk, and for forced 1- and 3-request chunks. A scan over a long window
must also stay in bounded memory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import evaluation
from repro.core.batch import DistanceGather
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch, _fold_chunk
from repro.topology.generators import erdos_renyi
from repro.workload.base import Trace

NODES = (1, 2, 3, 25, 400)
ROWS = range(1, 8)


def reference(candidates, stack):
    """The one-shot stacked broadcast the fold must reproduce bit for bit."""
    return np.minimum(candidates[None, :, :], stack[:, None, :]).sum(axis=2)


@pytest.fixture(scope="module")
def substrates():
    rng = np.random.default_rng(31)
    return {n: erdos_renyi(n=n, p=min(1.0, 4.0 / n), seed=rng) for n in NODES}


def windows(substrate, m, rng):
    """A plain batch and a gather window over the same ``m`` requests.

    The gather's trace opens with a prefix round, so the window's requests
    start past the trace's first offset.
    """
    n = substrate.n
    cuts = np.sort(rng.integers(0, m + 1, size=3))
    flat = rng.integers(0, n, size=m)
    rounds = np.split(flat, cuts)
    costs = CostModel.paper_default()
    trace = Trace((rng.integers(0, n, size=5), *rounds), scenario_name="fold")
    gather = DistanceGather(substrate, costs, trace)
    window = gather.new_window()
    window.add_round(trace.rounds[0])
    window.clear()
    for requests in trace.rounds[1:]:
        window.add_round(requests)
    plain = RequestBatch(substrate, costs, rounds)
    old_plain = substrate.distances[:, plain.flat]
    old_gather = gather.columns[:, gather.col_of[window._c0 : window._c1]]
    return [(plain, old_plain), (window, old_gather)]


def random_stack(substrate, rows, m, rng):
    """Leave-one-out-like rows: request distances, some entries ``inf``."""
    stack = substrate.distances[rng.integers(0, substrate.n, size=rows)][
        :, rng.integers(0, substrate.n, size=m)
    ].copy()
    stack[rng.random((rows, m)) < 0.1] = np.inf
    return stack


def lengths(chunk):
    return sorted({1, 7, 8, 9, chunk - 1, chunk, chunk + 1, 3 * chunk + 5} - {0})


def assert_fold_equals_reference(substrate, rows, m, rng):
    stack = random_stack(substrate, rows, m, rng)
    for batch, candidates in windows(substrate, m, rng):
        expected = reference(candidates, stack)
        got = batch._candidate_latencies(stack)
        assert got.shape == (rows, substrate.n)
        assert np.array_equal(got, expected), (type(batch).__name__, rows, m)


class TestCandidateFold:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("n", NODES)
    def test_equals_the_stacked_broadcast(self, substrates, n, rows):
        substrate = substrates[n]
        rng = np.random.default_rng([n, rows])
        for m in lengths(_fold_chunk(rows, n)):
            assert_fold_equals_reference(substrate, rows, m, rng)

    @pytest.mark.parametrize("chunk", (1, 3))
    @pytest.mark.parametrize("n", NODES)
    def test_forced_small_chunks(self, substrates, monkeypatch, n, chunk):
        substrate = substrates[n]
        rng = np.random.default_rng([n, chunk, 7])
        monkeypatch.setattr(evaluation, "_FOLD_MIN_REQUESTS", 1)
        for rows in ROWS:
            monkeypatch.setattr(evaluation, "_FOLD_BYTES", 8 * rows * n * chunk)
            assert _fold_chunk(rows, n) == chunk
            for m in (1, 2, 3, 4, 7, 10, 40):
                assert_fold_equals_reference(substrate, rows, m, rng)

    def test_chunk_floor_and_budget(self):
        assert _fold_chunk(1, 1) == evaluation._FOLD_BYTES // 8
        assert _fold_chunk(7, 400) == evaluation._FOLD_MIN_REQUESTS
        assert _fold_chunk(0, 400) == evaluation._FOLD_BYTES // 8


def test_long_window_scan_memory_is_bounded(substrates):
    """One scan of a 20,000-request window at n=400 stays under 4 MiB.

    The stacked broadcast it replaced needed an ``(n, R)`` copy and an
    ``(n, R)`` temporary: ~123 MiB here.
    """
    substrate = substrates[400]
    rng = np.random.default_rng(5)
    flat = rng.integers(0, substrate.n, size=20_000)
    trace = Trace(tuple(np.split(flat, 40)), scenario_name="long")
    gather = DistanceGather(substrate, CostModel.paper_default(), trace)
    window = gather.new_window()
    for requests in trace.rounds:
        window.add_round(requests)
    gather.columns  # built once per trace, not per scan
    active = np.array([3, 90, 250], dtype=np.int64)
    tracemalloc.start()
    try:
        scan = window.epoch_scan(active, active)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan.addition.shape == (substrate.n,)
    assert peak < 4 << 20, f"scan peaked at {peak / 2**20:.1f} MiB"


# -- leave-one-out base rows ---------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 8))
def test_leave_one_out_minima_equal_the_stacked_copy(substrates, k):
    """Prefix and suffix minima give the rows the ``(k, k-1, R)`` copy gave."""
    substrate = substrates[400]
    rng = np.random.default_rng([k, 11])
    for m in (1, 5, 300):
        block = substrate.distances[rng.integers(0, substrate.n, size=k)][
            :, rng.integers(0, substrate.n, size=m)
        ]
        if k > 2:
            block[rng.integers(0, k)] = block[rng.integers(0, k)]  # tied rows
        expected = block[evaluation._leave_one_out(k)].min(axis=1, initial=np.inf)
        out = np.full((k, m), -1.0)
        evaluation._leave_one_out_minima(block, out)
        assert np.array_equal(out, expected), (k, m)


@pytest.mark.parametrize("load", ("s3", "power"))
@pytest.mark.parametrize("k", (2, 3, 5, 7))
def test_removal_loads_one_server_at_a_time(substrates, load, k):
    """Under a load the scan must count, each removal's access equals the
    stacked leave-one-out expression it replaced."""
    from repro.core.load import LinearLoad, PowerLoad
    from repro.topology.substrate import Substrate

    base = substrates[25]
    if load == "s3":
        substrate = Substrate(base.n, base.links, strengths=3.0)
        costs = CostModel.paper_default(load=LinearLoad())
    else:
        substrate = base
        costs = CostModel.paper_default(load=PowerLoad(1.5))
    rng = np.random.default_rng([k, len(load)])
    rounds = [rng.integers(0, substrate.n, size=int(rng.integers(0, 30))) for _ in range(6)]
    batch = RequestBatch(substrate, costs, rounds)
    active = np.sort(rng.choice(substrate.n, size=k, replace=False))
    scan = batch.epoch_scan(active, active)

    block = substrate.distances[np.ix_(active, batch.flat)]
    index = evaluation._leave_one_out(k)
    stacked = block[index]
    sums = stacked.min(axis=1).sum(axis=1) + costs.wireless_hop * batch.flat.size
    expected = sums + batch._placement_loads(stacked, active[index])
    assert np.array_equal(scan.removal, expected)


def test_long_window_scan_memory_is_bounded_at_five_servers(substrates):
    """The k=5 scan of the 20,000-request window also stays under 4 MiB,
    on a gather window and on a plain batch: the leave-one-out rows cost
    O(k·R), not the ``(k, k-1, R)`` copy (6.2 and 8.7 MiB before)."""
    substrate = substrates[400]
    rng = np.random.default_rng(5)
    flat = rng.integers(0, substrate.n, size=20_000)
    trace = Trace(tuple(np.split(flat, 40)), scenario_name="long")
    gather = DistanceGather(substrate, CostModel.paper_default(), trace)
    window = gather.new_window()
    for requests in trace.rounds:
        window.add_round(requests)
    gather.columns  # built once per trace, not per scan
    plain = RequestBatch(substrate, CostModel.paper_default(), trace.rounds)
    plain.flat
    active = np.array([3, 90, 170, 250, 333], dtype=np.int64)
    for batch in (window, plain):
        tracemalloc.start()
        try:
            scan = batch.epoch_scan(active, active)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.removal.shape == (5,)
        assert peak < 4 << 20, f"{type(batch).__name__} scan peaked at {peak / 2**20:.1f} MiB"
