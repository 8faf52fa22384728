"""Golden ledgers of the multi-service game (``simulate_services``).

Every service of every pinned run is stored as the SHA-256 of each of its
ten ledger columns, so a refactor of the multi-service loop must leave every
float bit of every round unchanged. The instance is a 30-node Erdős–Rényi
substrate with two or three services, uncapacitated and under a uniform
per-node capacity that binds (requests spill to farther servers), each
under linear and quadratic node load.

Regenerate ``tests/data/golden_multiservice.json`` (only when a ledger
change is intended) with::

    PYTHONPATH=src python tests/test_golden_multiservice.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import OnBR, OnTH, StaticPolicy
from repro.core.config import Configuration
from repro.core.costs import CostModel
from repro.core.load import QuadraticLoad
from repro.core.multiservice import ServiceSpec, simulate_services
from repro.core.results import LEDGER_COLUMNS
from repro.core.simulator import simulate
from repro.topology.generators import erdos_renyi
from repro.util.rng import ensure_rng
from repro.workload.commuter import CommuterScenario
from repro.workload.timezones import TimeZoneScenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_multiservice.json"

HORIZON = 60

#: load name -> cost model shared by every service of a run.
LOADS = {
    "linear": CostModel(migration=2.0, creation=10.0),
    "quadratic": CostModel(migration=2.0, creation=10.0, load=QuadraticLoad()),
}

#: service count -> the uniform per-node capacity of its capacitated runs,
#: small enough to bind in some round and large enough to stay packable.
CAPACITY = {2: 4.0, 3: 10.0}

RUNS = [
    f"{count}/{routing}/{load}"
    for count in CAPACITY
    for routing in ("free", "capacitated")
    for load in LOADS
]


def _substrate(capacity=None):
    return erdos_renyi(30, p=0.15, seed=7, capacity=capacity)


def _services(substrate, count: int) -> list[ServiceSpec]:
    """ONTH and a two-server static fleet, plus ONBR for three services.

    The static fleet is declared last, so it is the service whose requests
    spill when the shared per-node budget runs out.
    """
    far = int(np.argmax(substrate.distances[substrate.center]))
    fleet = Configuration((substrate.center, far))
    demand = {
        "onth": (OnTH(), TimeZoneScenario(
            substrate, period=4, sojourn=3, requests_per_round=4)),
        "onbr": (OnBR(), TimeZoneScenario(
            substrate, period=3, sojourn=4, requests_per_round=6)),
        "static": (StaticPolicy(fleet, start=fleet), CommuterScenario(
            substrate, period=4, sojourn=3)),
    }
    names = ["onth", "onbr", "static"] if count == 3 else ["onth", "static"]
    return [
        ServiceSpec(
            name,
            demand[name][0],
            demand[name][1].generate(HORIZON, np.random.default_rng(10 + i)),
        )
        for i, name in enumerate(names)
    ]


def run(key: str):
    """The per-service ledgers of one pinned run (``"<count>/<routing>/<load>"``)."""
    count, routing, load = key.split("/")
    count = int(count)
    substrate = _substrate(CAPACITY[count] if routing == "capacitated" else None)
    return simulate_services(
        substrate, _services(substrate, count), LOADS[load], seed=3
    )


def digests(result) -> dict[str, str]:
    """SHA-256 of each ledger column's raw bytes."""
    return {
        column: hashlib.sha256(
            np.ascontiguousarray(getattr(result, column)).tobytes()
        ).hexdigest()
        for column in LEDGER_COLUMNS
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_run_is_pinned(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("key", RUNS)
def test_ledgers_match_golden(key, golden):
    results = run(key)
    assert {name: digests(result) for name, result in results.items()} == golden[key]
    assert int((results["onth"].migrations + results["onth"].creations).sum()) >= 1


@pytest.mark.parametrize("key", [key for key in RUNS if "/capacitated/" in key])
def test_capacity_binds(key):
    """Each capacitated run spills a request in some round: its latencies
    differ from the uncapacitated run's (a capacity that never binds is
    bit-identical to it)."""
    capped = run(key)
    free = run(key.replace("/capacitated/", "/free/"))
    assert any(
        not np.array_equal(capped[name].latency_cost, free[name].latency_cost)
        for name in capped
    )


@pytest.mark.parametrize("policy", [OnTH, OnBR])
def test_single_service_is_simulate(policy):
    """One service with default costs plays ``simulate``'s game bit for bit,
    seeded with the child stream ``simulate_services`` spawns for it."""
    substrate = _substrate()
    trace = TimeZoneScenario(
        substrate, period=4, sojourn=3, requests_per_round=8
    ).generate(HORIZON, np.random.default_rng(5))
    multi = simulate_services(
        substrate, [ServiceSpec("svc", policy(), trace)], seed=11
    )["svc"]
    (stream,) = ensure_rng(11).spawn(1)
    solo = simulate(substrate, policy(), trace, seed=stream)
    assert int((solo.migrations + solo.creations).sum()) >= 1
    assert digests(multi) == digests(solo)


if __name__ == "__main__":
    pinned = {
        key: {name: digests(result) for name, result in run(key).items()}
        for key in RUNS
    }
    GOLDEN_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} runs to {GOLDEN_PATH}")
