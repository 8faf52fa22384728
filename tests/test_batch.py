"""Tests for the batched simulation core (repro.core.batch).

The contract under test is *bit-identity*: the exact costs and the epoch
scan of a GatherWindow and every ledger column of ``simulate_batched``
must equal the scalar path's floats exactly — not approximately — because
policy decisions argmin over these values and a single ULP can flip a
near-tie (the timezones scenario, with its heavily duplicated request
nodes, is the regression case that caught exactly that).

Backend coverage: the pool and queue backends run the same
``_simulate_spec`` entry point as the serial backend, and their
bit-identity to serial is pinned by the existing execution/queue suites —
so the serial comparisons here transitively cover every backend.
"""

import itertools

import numpy as np
import pytest

from repro.api.registry import resolve_policy
from repro.core.batch import DistanceGather, simulate_batched
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.evaluation import RequestBatch
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi
from repro.topology.substrate import Substrate
from repro.workload.base import Trace, generate_trace
from repro.workload.commuter import CommuterScenario, default_period_for
from repro.workload.timezones import TimeZoneScenario

LEDGER_FIELDS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active",
    "n_inactive", "n_requests",
)

POLICY_BUILDS = [
    ("onth", lambda: resolve_policy("onth")()),
    ("onbr", lambda: resolve_policy("onbr")()),
    ("onbr-dyn", lambda: resolve_policy("onbr")(dynamic_threshold=True)),
]


def assert_runs_identical(scalar, batched, context=""):
    for field in LEDGER_FIELDS:
        a, b = getattr(scalar, field), getattr(batched, field)
        assert np.array_equal(a, b), (
            f"{context}: ledger column {field!r} diverged at rounds "
            f"{np.nonzero(a != b)[0][:5]}"
        )


def make_trace(rounds):
    return Trace(
        tuple(np.asarray(r, dtype=np.int64) for r in rounds),
        scenario_name="test",
    )


def bypass_trace(rounds):
    """A Trace built around __post_init__ validation (simulating corrupt or
    hand-deserialised data) so downstream defense-in-depth layers can be
    exercised."""
    trace = object.__new__(Trace)
    object.__setattr__(
        trace, "rounds", tuple(np.asarray(r, dtype=np.int64) for r in rounds)
    )
    object.__setattr__(trace, "scenario_name", "bypass")
    object.__setattr__(trace, "metadata", {})
    return trace


# ---------------------------------------------------------------------------
# GatherWindow: bitwise equality with the scalar RequestBatch


def window_pair(substrate, costs, trace, t0, t1, gather=None):
    """A scalar RequestBatch and a GatherWindow over the same rounds."""
    base = RequestBatch(substrate, costs, trace.rounds[t0:t1])
    gather = gather or DistanceGather(substrate, costs, trace)
    window = gather.new_window()
    for t in range(t1):
        window.add_round(trace.rounds[t])
    window._t0 = t0
    return base, window


class TestGatherWindowBitIdentity:
    @pytest.mark.parametrize("trial", range(8))
    def test_all_cost_methods_uniform_strengths(self, trial):
        rng = np.random.default_rng([41, trial])
        n = 40
        sub = erdos_renyi(n=n, p=0.15, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(n)).generate(
            24, rng
        )
        t0 = int(rng.integers(0, 16))
        t1 = t0 + int(rng.integers(1, 8))
        base, window = window_pair(sub, costs, trace, t0, t1)
        k = int(rng.integers(1, 6))
        active = rng.choice(n, size=k, replace=False).astype(np.int64)
        self._assert_methods_equal(base, window, active)

    @pytest.mark.parametrize("trial", range(4))
    def test_all_cost_methods_nonuniform_strengths(self, trial):
        rng = np.random.default_rng([43, trial])
        n = 30
        er = erdos_renyi(n=n, p=0.2, seed=rng)
        sub = Substrate(n, er.links, strengths=rng.uniform(0.5, 2.0, n))
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(n)).generate(
            20, rng
        )
        base, window = window_pair(sub, costs, trace, 2, 2 + int(rng.integers(1, 6)))
        k = int(rng.integers(2, 5))
        active = rng.choice(n, size=k, replace=False).astype(np.int64)
        self._assert_methods_equal(base, window, active)

    @staticmethod
    def _assert_methods_equal(base, window, active):
        assert base.exact_access_cost(active) == window.exact_access_cost(active)
        for flags in itertools.product((False, True), repeat=3):
            a = base.epoch_scan(active, active, *flags)
            b = window.epoch_scan(active, active, *flags)
            assert a.stay == b.stay, f"stay not bit-identical under {flags}"
            for field in ("migrate_target", "migrate_access", "removal", "addition"):
                x, y = getattr(a, field), getattr(b, field)
                if x is None or y is None:
                    assert x is None and y is None, field
                else:
                    assert np.array_equal(x, y), f"{field} not bit-identical under {flags}"

    def test_memoised_results_shared_between_windows(self):
        rng = np.random.default_rng(7)
        sub = erdos_renyi(n=20, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(20)).generate(
            6, rng
        )
        gather = DistanceGather(sub, costs, trace)
        _, w1 = window_pair(sub, costs, trace, 0, 3, gather)
        _, w2 = window_pair(sub, costs, trace, 0, 3, gather)
        active = np.array([1, 4], dtype=np.int64)
        assert w1.exact_access_cost(active) == w2.exact_access_cost(active)
        assert gather._memo  # sibling windows hit the shared memo

    def test_out_of_sync_window_raises(self):
        rng = np.random.default_rng(9)
        sub = erdos_renyi(n=10, p=0.4, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(10)).generate(
            4, rng
        )
        window = DistanceGather(sub, costs, trace).new_window()
        with pytest.raises(RuntimeError, match="out of sync"):
            window.add_round(np.array([1, 2, 3], dtype=np.int64))


def random_rounds(rng, nodes, count, max_size, empty_share=0.2):
    """``count`` rounds drawn with repeats from ``nodes``, some empty."""
    return [
        rng.choice(nodes, size=0 if rng.random() < empty_share
                   else int(rng.integers(1, max_size + 1)))
        for _ in range(count)
    ]


def gather_cases():
    """(case id, substrate, trace) over the distinct-node gather's edges."""
    rng = np.random.default_rng(2026)
    er = erdos_renyi(n=25, p=0.2, seed=rng)
    for trial in range(4):
        nodes = rng.choice(25, size=int(rng.integers(1, 8)), replace=False)
        yield f"repeated-{trial}", er, make_trace(random_rounds(rng, nodes, 12, 9))
    yield "empty-rounds", er, make_trace([[], [], []])
    every = [rng.permutation(25) for _ in range(3)]
    yield "every-node", er, make_trace([*every, [], *random_rounds(rng, 25, 4, 30)])
    one = Substrate(1, [])
    yield "one-node", one, make_trace([[0, 0], [], [0], [0, 0, 0]])


class TestDistinctNodeGather:
    """The gather holds one column per distinct node; every window's
    distances must still equal a plain RequestBatch's in value and layout."""

    @pytest.mark.parametrize(
        "substrate, trace",
        [case[1:] for case in gather_cases()],
        ids=[case[0] for case in gather_cases()],
    )
    def test_windows_equal_plain_batches(self, substrate, trace):
        costs = CostModel.paper_default()
        gather = DistanceGather(substrate, costs, trace)
        rng = np.random.default_rng(substrate.n)
        horizon = len(trace.rounds)
        for t0, t1 in itertools.combinations(range(horizon + 1), 2):
            base, window = window_pair(substrate, costs, trace, t0, t1, gather)
            m = base.total_requests
            cut = int(rng.integers(0, m + 1))
            pairs = [
                (base._candidate_rows(j0, j1), window._candidate_rows(j0, j1))
                for j0, j1 in {(0, m), (0, cut), (cut, m), (cut, min(cut + 3, m))}
            ]
            for size in {1, substrate.n, int(rng.integers(1, substrate.n + 1))}:
                rows = rng.choice(substrate.n, size=size, replace=False)
                pairs.append((base._distance_block(rows), window._distance_block(rows)))
            for plain, gathered in pairs:
                assert np.array_equal(plain, gathered), (t0, t1)
                assert plain.flags.f_contiguous == gathered.flags.f_contiguous
                assert plain.flags.c_contiguous == gathered.flags.c_contiguous
        distinct = np.unique(np.concatenate(trace.rounds)).size
        assert gather.columns.shape == (substrate.n, distinct)
        assert gather.col_of.shape == gather.flat.shape


# ---------------------------------------------------------------------------
# simulate_batched: ledger bit-identity with scalar simulate


class TestSimulateBatchedIdentity:
    @pytest.mark.parametrize("name,build", POLICY_BUILDS)
    def test_commuter_ledgers_identical(self, name, build):
        rng = np.random.default_rng(11)
        sub = erdos_renyi(n=40, p=0.1, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(40)).generate(
            60, rng
        )
        gather = DistanceGather(sub, costs, trace)
        scalar = simulate(sub, build(), trace, costs, seed=np.random.default_rng(0))
        batched = simulate_batched(
            sub, build(), trace, costs, seed=np.random.default_rng(0),
            gather=gather,
        )
        assert_runs_identical(scalar, batched, f"commuter/{name}")

    @pytest.mark.parametrize("name,build", POLICY_BUILDS)
    def test_timezones_ledgers_identical(self, name, build):
        # Regression: timezones traces duplicate request nodes heavily, so
        # candidate costs tie to the ULP and any reduction-order drift in
        # the gather path flips argmin targets (found via fig05 goldens).
        rng = np.random.default_rng([0, 2])
        sub = erdos_renyi(n=30, p=0.2, seed=rng)
        costs = CostModel.paper_default()
        scenario = TimeZoneScenario(
            sub, sojourn=5, requests_per_round=10, period=4
        )
        trace = generate_trace(scenario, 80, rng)
        gather = DistanceGather(sub, costs, trace)
        scalar = simulate(sub, build(), trace, costs, seed=np.random.default_rng(0))
        batched = simulate_batched(
            sub, build(), trace, costs, seed=np.random.default_rng(0),
            gather=gather,
        )
        assert_runs_identical(scalar, batched, f"timezones/{name}")

    def test_static_policy_identical(self):
        rng = np.random.default_rng(13)
        sub = erdos_renyi(n=25, p=0.2, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(25)).generate(
            30, rng
        )
        target = Configuration((sub.center,), ())
        scalar = simulate(sub, resolve_policy("static")(target), trace, costs)
        batched = simulate_batched(
            sub, resolve_policy("static")(target), trace, costs
        )
        assert_runs_identical(scalar, batched, "static")

    def test_offline_policy_falls_back_to_scalar(self):
        rng = np.random.default_rng(17)
        sub = erdos_renyi(n=15, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(15)).generate(
            16, rng
        )
        scalar = simulate(
            sub, resolve_policy("offstat")(), trace, costs,
            seed=np.random.default_rng(0),
        )
        batched = simulate_batched(
            sub, resolve_policy("offstat")(), trace, costs,
            seed=np.random.default_rng(0),
        )
        assert_runs_identical(scalar, batched, "offstat-fallback")

    def test_non_opting_policy_falls_back(self):
        rng = np.random.default_rng(19)
        sub = erdos_renyi(n=15, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(15)).generate(
            12, rng
        )
        scalar = simulate(
            sub, resolve_policy("onconf")(), trace, costs,
            seed=np.random.default_rng(0),
        )
        batched = simulate_batched(
            sub, resolve_policy("onconf")(), trace, costs,
            seed=np.random.default_rng(0),
        )
        assert_runs_identical(scalar, batched, "onconf-fallback")

    def test_mismatched_gather_raises(self):
        rng = np.random.default_rng(23)
        sub = erdos_renyi(n=12, p=0.3, seed=rng)
        other = erdos_renyi(n=12, p=0.3, seed=rng)
        costs = CostModel.paper_default()
        trace = CommuterScenario(sub, period=default_period_for(12)).generate(
            8, rng
        )
        gather = DistanceGather(other, costs, trace)
        with pytest.raises(ValueError, match="different substrate"):
            simulate_batched(
                sub, resolve_policy("onth")(), trace, costs, gather=gather
            )


# ---------------------------------------------------------------------------
# Negative-index validation (the bugfix satellites)


class TestNegativeIndexValidation:
    def evil_trace(self):
        return bypass_trace([[0, 1], [2, -4]])

    def substrate(self):
        return erdos_renyi(n=8, p=0.5, seed=np.random.default_rng(1))

    def test_trace_constructor_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative node"):
            make_trace([[0, -3]])

    def test_scalar_simulate_rejects_negative_nodes(self):
        # materialised traces hit the route_requests backstop; streaming
        # traces hit the round-loop check — either way the run dies before
        # numpy fancy indexing can wrap the index to the last node.
        with pytest.raises(ValueError, match="negative node index -4"):
            simulate(
                self.substrate(), resolve_policy("onth")(), self.evil_trace()
            )

    def test_scalar_simulate_rejects_negative_nodes_streaming(self):
        rounds = [np.array([0, 1]), np.array([2, -4])]
        with pytest.raises(ValueError, match="negative node -4"):
            simulate(
                self.substrate(), resolve_policy("onth")(), iter(rounds)
            )

    def test_batched_simulate_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative node -4"):
            simulate_batched(
                self.substrate(), resolve_policy("onth")(), self.evil_trace()
            )

    def test_gather_rejects_negative_nodes(self):
        with pytest.raises(ValueError, match="negative node"):
            DistanceGather(
                self.substrate(), CostModel.paper_default(), self.evil_trace()
            )

    def test_check_config_rejects_bypassed_negative_config(self):
        # Configuration validates on construction, so a buggy policy can
        # only smuggle a negative node through by bypassing __init__; the
        # round loop's _check_config is the backstop.
        from repro.core.simulator import _check_config

        config = object.__new__(Configuration)
        object.__setattr__(config, "active", (-2, 3))
        object.__setattr__(config, "inactive", ())
        with pytest.raises(ValueError, match="negative node"):
            _check_config(config, self.substrate(), None, t=0)

    def test_route_requests_rejects_negative_request(self):
        sub = self.substrate()
        with pytest.raises(ValueError, match="negative node index -1"):
            from repro.core.routing import route_requests

            route_requests(
                sub, [0], np.array([2, -1]), CostModel.paper_default()
            )

    def test_route_requests_rejects_negative_server(self):
        sub = self.substrate()
        from repro.core.routing import route_requests

        with pytest.raises(ValueError, match="negative server node -3"):
            route_requests(
                sub, np.array([-3]), np.array([2]), CostModel.paper_default()
            )
