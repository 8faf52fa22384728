"""Golden ledgers of the offline planners and the enumerating online policies.

Every run below is pinned as the SHA-256 of each of its ten ledger columns,
so a refactor of the policy layer must leave every float bit of every round
unchanged. The instance is a 5-node latency line under the dynamic commuter
workload; MILP-OPT, whose time-expanded program is slow on that instance,
is pinned on a 4-node line over 12 rounds instead.

Regenerate ``tests/data/golden_policies.json`` (only when a ledger change
is intended) with::

    PYTHONPATH=src python tests/test_golden_policies.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.beamopt import BeamOpt
from repro.algorithms.offline_br import OffBR, OffTH
from repro.algorithms.offstat import OffStat
from repro.algorithms.onbr import OnBR
from repro.algorithms.onconf import OnConf
from repro.algorithms.onth import OnTH
from repro.algorithms.opt import Opt
from repro.algorithms.optim import MilpOpt
from repro.algorithms.workfunction import WorkFunctionPolicy
from repro.core.costs import CostModel
from repro.core.load import QuadraticLoad
from repro.core.results import LEDGER_COLUMNS
from repro.core.simulator import simulate
from repro.topology.generators import line
from repro.workload.commuter import CommuterScenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_policies.json"

_LINE_PARAMS = {"unit_latency": False, "latency_range": (5.0, 20.0)}

#: name -> policy factory, run on the 5-node instance.
POLICIES = {
    "opt": Opt,
    "beamopt": BeamOpt,
    "offstat": OffStat,
    "offbr": OffBR,
    "offth": OffTH,
    "onth": OnTH,
    "onbr": OnBR,
    "onconf-det": lambda: OnConf(deterministic=True),
    "onconf-random": OnConf,
    "wfa": WorkFunctionPolicy,
}

#: load name -> cost model of the 5-node instance.
LOADS = {
    "linear": CostModel(migration=4.0, creation=40.0),
    "quadratic": CostModel(migration=4.0, creation=40.0, load=QuadraticLoad()),
}

#: Under quadratic load ONBR and OFFBR never leave their start configuration
#: on this instance, so their ledgers would not exercise any switching path.
_SKIPPED = {("onbr", "quadratic"), ("offbr", "quadratic")}

RUNS = [
    f"{policy}/{load}"
    for load in LOADS
    for policy in POLICIES
    if (policy, load) not in _SKIPPED
] + ["milp-opt/linear"]


def _instance(n: int, horizon: int):
    substrate = line(n, seed=3, **_LINE_PARAMS)
    trace = CommuterScenario(
        substrate, period=4, sojourn=2, dynamic_load=True
    ).generate(horizon, np.random.default_rng(1))
    return substrate, trace


def run(key: str):
    """The ledger of one pinned run (``"<policy>/<load>"``)."""
    policy, load = key.split("/")
    if policy == "milp-opt":
        substrate, trace = _instance(4, 12)
        return simulate(substrate, MilpOpt(), trace, LOADS[load], seed=0)
    substrate, trace = _instance(5, 40)
    return simulate(substrate, POLICIES[policy](), trace, LOADS[load], seed=0)


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
def test_ledger_matches_golden(key, golden):
    result = run(key)
    assert int((result.migrations + result.creations).sum()) >= 1, (
        f"{key} never changes its configuration"
    )
    assert digests(result) == golden[key]


if __name__ == "__main__":
    pinned = {key: digests(run(key)) for key in RUNS}
    GOLDEN_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} runs to {GOLDEN_PATH}")
