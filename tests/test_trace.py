"""Tests for request traces (repro.workload.base)."""

import numpy as np
import pytest

from repro.algorithms import OnTH
from repro.core.results import LEDGER_COLUMNS
from repro.core.simulator import simulate
from repro.topology.generators import line
from repro.traces.streaming import StreamingTrace
from repro.workload.base import Scenario, Trace, check_round, generate_trace
from repro.workload.commuter import CommuterScenario


class TestConstruction:
    def test_rounds_frozen(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace[0][0] = 9

    def test_source_arrays_copied(self):
        src = np.array([1, 2])
        trace = Trace((src,))
        src[0] = 99
        assert trace[0][0] == 1

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative"):
            Trace((np.array([-1]),))

    def test_rejects_2d_round(self):
        with pytest.raises(ValueError, match="1-D"):
            Trace((np.zeros((2, 2)),))

    def test_empty_trace(self):
        trace = Trace(())
        assert len(trace) == 0
        assert trace.total_requests == 0
        assert trace.max_node == -1


def assert_same_ledger(a, b):
    for column in LEDGER_COLUMNS:
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))


class TestRoundCheck:
    """``check_round`` is the one rule for a valid round, wherever it arrives."""

    @pytest.mark.parametrize("bad", [[1.7], [0.0, 2.5], [True, False],
                                     [np.nan], [np.inf]])
    def test_non_integral_rounds_rejected(self, bad):
        with pytest.raises(ValueError, match="round 3 must hold whole-number"):
            check_round(3, np.array(bad))

    def test_trace_rejects_fraction_instead_of_truncating(self):
        with pytest.raises(ValueError, match="round 1 must hold whole-number"):
            Trace((np.array([0]), np.array([1.7])))

    def test_trace_rejects_booleans(self):
        with pytest.raises(ValueError, match="round 0 .* bool"):
            Trace(([True, False],))

    def test_integral_floats_and_lists_accepted(self):
        trace = Trace((np.array([1.0, 3.0]), [2, 0], []))
        assert [r.tolist() for r in trace] == [[1, 3], [2, 0], []]
        assert all(r.dtype == np.int64 for r in trace)

    def test_simulate_rejects_streamed_fraction(self):
        with pytest.raises(ValueError, match="round 0 must hold whole-number"):
            simulate(line(5), OnTH(), iter([np.array([1.7, 3.2])]))

    def test_simulate_rejects_streamed_booleans(self):
        with pytest.raises(ValueError, match="round 1 .* bool"):
            simulate(line(5), OnTH(), iter([np.array([0]), np.array([True])]))

    def test_simulate_rejects_streamed_2d_round(self):
        with pytest.raises(ValueError, match="round 0 must be a 1-D array"):
            simulate(line(5), OnTH(), iter([np.array([[0, 1]])]))

    def test_simulate_accepts_streamed_lists_and_integral_floats(self):
        rounds = [[0, 1], [4], [], [2, 2, 3]]
        reference = simulate(line(5), OnTH(), Trace(tuple(rounds)))
        as_lists = simulate(line(5), OnTH(), iter(rounds))
        as_floats = simulate(
            line(5), OnTH(), iter(np.array(r, dtype=float) for r in rounds)
        )
        assert_same_ledger(as_lists, reference)
        assert_same_ledger(as_floats, reference)

    def test_streaming_trace_rejects_fraction(self):
        class Fractional(Scenario):
            scenario_name = "fractional"

            def stream(self, horizon, rng):
                for _ in range(horizon):
                    yield np.array([0.5])

        with pytest.raises(ValueError, match="round 0 must hold whole-number"):
            list(StreamingTrace(Fractional(), 2, seed=0))


class TestQueries:
    def test_len_and_iter(self, tiny_trace):
        assert len(tiny_trace) == 5
        assert sum(arr.size for arr in tiny_trace) == tiny_trace.total_requests

    def test_total_requests(self, tiny_trace):
        assert tiny_trace.total_requests == 9

    def test_max_requests_per_round(self, tiny_trace):
        assert tiny_trace.max_requests_per_round == 4

    def test_max_node(self, tiny_trace):
        assert tiny_trace.max_node == 4

    def test_requests_per_round(self, tiny_trace):
        np.testing.assert_array_equal(
            tiny_trace.requests_per_round(), [3, 1, 0, 4, 1]
        )

    def test_node_histogram(self, tiny_trace):
        hist = tiny_trace.node_histogram(5)
        np.testing.assert_array_equal(hist, [2, 2, 1, 1, 3])

    def test_node_histogram_range_checked(self, tiny_trace):
        with pytest.raises(ValueError, match="n_nodes"):
            tiny_trace.node_histogram(3)


class TestWindowAndConcat:
    def test_window(self, tiny_trace):
        sub = tiny_trace.window(1, 4)
        assert len(sub) == 3
        np.testing.assert_array_equal(sub[0], [4])

    def test_window_bounds_checked(self, tiny_trace):
        with pytest.raises(ValueError, match="window"):
            tiny_trace.window(3, 99)

    def test_concat(self, tiny_trace):
        double = tiny_trace.concat(tiny_trace)
        assert len(double) == 10
        assert double.total_requests == 18


class TestPersistence:
    def test_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "trace.npz"
        tiny_trace.save(path)
        loaded = Trace.load(path)
        assert len(loaded) == len(tiny_trace)
        for a, b in zip(loaded, tiny_trace):
            np.testing.assert_array_equal(a, b)
        assert loaded.scenario_name == "tiny"

    def test_metadata_round_trip(self, tmp_path):
        trace = Trace(
            (np.array([1]),), scenario_name="x", metadata={"T": 4, "kind": "test"}
        )
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.metadata == {"T": 4, "kind": "test"}

    def test_empty_rounds_survive(self, tmp_path):
        trace = Trace((np.zeros(0, dtype=np.int64), np.array([2])))
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded[0].size == 0
        np.testing.assert_array_equal(loaded[1], [2])


class TestSuffixNormalisation:
    """np.savez silently appends .npz — save/load must agree on the name."""

    def test_save_without_suffix_round_trips(self, tiny_trace, tmp_path):
        written = tiny_trace.save(tmp_path / "trace")
        assert written.name == "trace.npz"
        assert written.exists()
        loaded = Trace.load(tmp_path / "trace")  # suffixless load too
        for a, b in zip(loaded, tiny_trace):
            np.testing.assert_array_equal(a, b)

    def test_save_returns_written_path(self, tiny_trace, tmp_path):
        written = tiny_trace.save(tmp_path / "trace.npz")
        assert written == tmp_path / "trace.npz"

    def test_load_prefers_literal_path(self, tiny_trace, tmp_path):
        # a file literally named "trace" (no suffix) must still load
        target = tiny_trace.save(tmp_path / "t.npz")
        exact = tmp_path / "trace"
        exact.write_bytes(target.read_bytes())
        assert len(Trace.load(exact)) == len(tiny_trace)

    def test_load_missing_file_mentions_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trace.load(tmp_path / "nope")


class TestMemoisedProperties:
    def test_histogram_matches_bincount_of_concat(self, tiny_trace):
        flat = np.concatenate(tiny_trace.rounds)
        np.testing.assert_array_equal(
            tiny_trace.node_histogram(8), np.bincount(flat, minlength=8)
        )

    def test_histogram_dtype_and_empty(self):
        hist = Trace(()).node_histogram(4)
        assert hist.dtype == np.int64
        np.testing.assert_array_equal(hist, np.zeros(4))

    def test_max_node_and_total_requests_cached(self, tiny_trace):
        assert tiny_trace.max_node == 4
        assert tiny_trace.total_requests == 9
        # memoized on the frozen instance after first access
        assert tiny_trace.__dict__["_max_node"] == 4
        assert tiny_trace.__dict__["_total_requests"] == 9


class TestGenerateTrace:
    def test_horizon_respected(self, line5):
        scenario = CommuterScenario(line5, period=4, sojourn=2)
        trace = generate_trace(scenario, 17, seed=0)
        assert len(trace) == 17

    def test_zero_horizon(self, line5):
        scenario = CommuterScenario(line5, period=4, sojourn=2)
        assert len(generate_trace(scenario, 0, seed=0)) == 0

    def test_negative_horizon_rejected(self, line5):
        scenario = CommuterScenario(line5, period=4, sojourn=2)
        with pytest.raises(ValueError, match="horizon"):
            generate_trace(scenario, -1, seed=0)

    def test_deterministic_given_seed(self, line5):
        scenario = CommuterScenario(line5, period=4, sojourn=2)
        a = generate_trace(scenario, 20, seed=5)
        b = generate_trace(scenario, 20, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def _first_round_error(rounds) -> str:
    """The message the per-round rule gives: ``check_round`` over each round in order."""
    for t, requests in enumerate(rounds):
        try:
            check_round(t, requests)
        except ValueError as error:
            return str(error)
    raise AssertionError("no bad round")


BAD_ROUNDS = {
    "2-D": np.zeros((2, 2), dtype=np.int64),
    "bool": np.array([True, False]),
    "fractional": np.array([1.0, 2.5]),
    "NaN": np.array([np.nan]),
    "negative": np.array([3, -2, -7]),
    "negative float": np.array([1.0, -4.0]),
    "negative list": [0, -1],
}


class TestBulkValidation:
    """``Trace`` checks its rounds in bulk with ``check_round``'s rule and messages."""

    @pytest.mark.parametrize("kind", sorted(BAD_ROUNDS))
    @pytest.mark.parametrize("position", [0, 2, 5])
    def test_first_bad_round_gives_check_rounds_message(self, kind, position):
        rounds = [np.array([1, 2]), [], np.array([0]), np.array([4.0]), [3], [2, 2]]
        rounds[position] = BAD_ROUNDS[kind]
        with pytest.raises(ValueError) as error:
            Trace(tuple(rounds))
        assert str(error.value) == _first_round_error(rounds)
        assert f"round {position} " in str(error.value)

    @pytest.mark.parametrize("kind", sorted(BAD_ROUNDS))
    def test_an_earlier_negative_round_fails_first(self, kind):
        rounds = [np.array([1]), np.array([0, -5]), BAD_ROUNDS[kind]]
        with pytest.raises(ValueError, match="^round 1 references negative node -5$"):
            Trace(tuple(rounds))

    def test_mixed_integer_dtypes_are_exact(self):
        rounds = (np.array([1, 2], dtype=np.int8), np.array([7], dtype=np.uint32),
                  np.array([3.0]), [], np.array([2**40]))
        trace = Trace(rounds)
        assert [r.tolist() for r in trace] == [[1, 2], [7], [3], [], [2**40]]
        assert trace.flat.dtype == np.int64

    def test_integral_floats_and_empty_rounds_accepted(self):
        trace = Trace((np.array([2.0, 0.0]), [], np.zeros(0), np.array([], dtype=int)))
        assert [r.tolist() for r in trace] == [[2, 0], [], [], []]
        np.testing.assert_array_equal(trace.offsets, [0, 2, 2, 2, 2])

    def test_rounds_are_views_of_flat(self):
        trace = Trace((np.array([4, 1]), [], np.array([2, 2, 3])))
        np.testing.assert_array_equal(trace.flat, [4, 1, 2, 2, 3])
        np.testing.assert_array_equal(trace.offsets, [0, 2, 2, 5])
        assert all(np.shares_memory(r, trace.flat) for r in trace if r.size)

    def test_views_cannot_be_made_writeable(self, tiny_trace):
        for arr in (*tiny_trace.rounds, tiny_trace.flat, tiny_trace.offsets):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        window = tiny_trace.window(1, 4)
        for arr in (*window.rounds, window.flat, window.offsets):
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_window_and_concat_keep_flat_storage(self, tiny_trace):
        window = tiny_trace.window(1, 4)
        assert np.shares_memory(window.flat, tiny_trace.flat)
        np.testing.assert_array_equal(window.offsets, [0, 1, 1, 5])
        double = tiny_trace.concat(window)
        assert [r.tolist() for r in double] == [
            r.tolist() for r in (*tiny_trace.rounds, *window.rounds)
        ]
        np.testing.assert_array_equal(
            double.flat, np.concatenate([*tiny_trace.rounds, *window.rounds])
        )

    def test_commuter_rounds_are_read_only_views(self, line5):
        scenario = CommuterScenario(line5, period=4, sojourn=2)
        rounds = list(scenario.stream(12, np.random.default_rng(0)))
        assert all(not r.flags.writeable for r in rounds)
        with pytest.raises(ValueError):
            rounds[-1].flags.writeable = True
        trace = scenario.generate(12, np.random.default_rng(0))
        for streamed, stored in zip(rounds, trace):
            np.testing.assert_array_equal(streamed, stored)
