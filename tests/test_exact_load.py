"""The dyadic exact-load rule and the round-loop ledgers on both sides of it.

Under :class:`LinearLoad` with one power-of-two strength ``s`` every term
``count/s`` is a dyadic rational, so no partial sum rounds: the summed load
of any split equals ``Σ sizes/s`` bit for bit. The batched core relies on
this to skip assignments (``dyadic_linear_strength`` selects it); the
tests below check the premise itself, the gate, and that the batched round
loop still reproduces the scalar ledgers bit for bit with the shortcut on
(strength 2.0) and off (strength 3.0), with and without a wireless hop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import resolve_policy
from repro.core.batch import DistanceGather, simulate_batched
from repro.core.costs import CostModel
from repro.core.load import (
    CallableLoad,
    LinearLoad,
    PowerLoad,
    QuadraticLoad,
    dyadic_linear_strength,
)
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi
from repro.topology.substrate import Substrate
from repro.workload.commuter import CommuterScenario

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


class TestExactLoadPremise:
    @settings(max_examples=200, deadline=None)
    @given(
        exponent=st.integers(-12, 12),
        sizes=st.lists(st.integers(0, 500), min_size=1, max_size=12),
        servers=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_split_sums_to_sizes_over_strength(
        self, exponent, sizes, servers, seed
    ):
        strength = 2.0**exponent
        strengths = np.full(servers, strength)
        assert dyadic_linear_strength(LinearLoad(), strengths) == strength

        rng = np.random.default_rng(seed)
        sizes = np.asarray(sizes, dtype=np.int64)
        counts = np.stack(
            [np.bincount(rng.integers(0, servers, size), minlength=servers)
             for size in sizes]
        )
        loads = LinearLoad()(strengths, counts)
        expected = float((sizes / strength).sum())
        assert float(loads.sum()) == expected
        # Any order of summation gives the same bits.
        terms = loads.ravel()[rng.permutation(loads.size)].tolist()
        total = 0.0
        for term in terms:
            total += term
        assert total == expected
        assert float(sizes.sum()) / strength == expected

    @pytest.mark.parametrize("strength", [1.0, 0.5, 2.0, 0.125, 1024.0])
    def test_gate_accepts_uniform_powers_of_two(self, strength):
        assert dyadic_linear_strength(LinearLoad(), np.full(5, strength)) == strength

    @pytest.mark.parametrize(
        "load,strengths",
        [
            (LinearLoad(), np.full(5, 3.0)),
            (LinearLoad(), np.full(5, 0.1)),
            (LinearLoad(), np.array([1.0, 2.0, 1.0])),
            (LinearLoad(), np.array([2.0, 2.0, 4.0])),
            (QuadraticLoad(), np.ones(5)),
            (PowerLoad(1.0), np.ones(5)),
            (PowerLoad(2.0), np.ones(5)),
            (CallableLoad(lambda s, c: c / s, True), np.ones(5)),
        ],
        ids=[
            "strength-3", "strength-0.1", "nonuniform", "nonuniform-dyadic",
            "quadratic", "power-1", "power-2", "callable",
        ],
    )
    def test_gate_rejects(self, load, strengths):
        assert dyadic_linear_strength(load, strengths) is None


class TestRoundLoopAcrossTheGate:
    @pytest.mark.parametrize("name,build", POLICY_BUILDS)
    @pytest.mark.parametrize("hop", [0.0, 1.5])
    @pytest.mark.parametrize("strength", [2.0, 3.0])
    def test_batched_ledgers_equal_scalar(self, strength, hop, name, build):
        # One sparse substrate and trace for every case (the fig08 shape at
        # small scale), on which every policy migrates.
        rng = np.random.default_rng(0)
        n = 80
        er = erdos_renyi(n=n, p=0.01, seed=rng)
        substrate = Substrate(n, er.links, strengths=strength)
        costs = CostModel.paper_default(wireless_hop=hop)
        trace = CommuterScenario(
            substrate, period=8, sojourn=5, dynamic_load=True
        ).generate(300, rng)
        gather = DistanceGather(substrate, costs, trace)
        assert (gather.exact_strength is not None) == (strength == 2.0)

        scalar = simulate(
            substrate, build(), trace, costs, seed=np.random.default_rng(0)
        )
        batched = simulate_batched(
            substrate, build(), trace, costs, seed=np.random.default_rng(0),
            gather=gather,
        )
        # The run must actually move servers, or the ledgers compare little.
        assert scalar.migrations.any()
        for field in LEDGER_FIELDS:
            a, b = getattr(scalar, field), getattr(batched, field)
            assert np.array_equal(a, b), (
                f"{field} diverged at rounds {np.nonzero(a != b)[0][:5]}"
            )
