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
