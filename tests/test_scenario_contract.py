"""The scenario contract: ``stream`` is the scenario, ``generate`` derives from it.

Every registered scenario name (aliases included), the ``PhasedScenario``
combinator and replay over ``tests/data/sample_requests.csv`` are pinned as
the SHA-256 of a 40-round trace, so a refactor of the demand layer must
leave every request of every round unchanged. Each case also checks the
contract itself: ``stream`` yields exactly the rounds ``generate``
materialises, ``metadata()["scenario"]`` names the scenario kind, and the
trace metadata survives :meth:`Trace.save` / :meth:`Trace.load`.

Regenerate ``tests/data/golden_scenarios.json`` (only when a trace change
is intended) with::

    PYTHONPATH=src python tests/test_scenario_contract.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import list_scenarios, resolve_scenario
from repro.topology.generators import erdos_renyi
from repro.workload.base import Scenario, Trace, as_trace
from repro.workload.composite import PhasedScenario

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden_scenarios.json"
HORIZON = 40

#: case name -> (scenario kind, registry name, params); ``None`` as the
#: registry name marks a case built directly (see :func:`build`).
CASES = {
    "commuter": ("commuter", "commuter", {"sojourn": 3}),
    "commuter-dynamic": ("commuter", "commuter-dynamic", {"period": 6, "sojourn": 2}),
    "commuter-static": ("commuter", "commuter-static", {"sojourn": 2}),
    "timezones": ("timezones", "timezones", {"period": 4, "sojourn": 3}),
    "time-zones": ("timezones", "time-zones", {"hotspot_share": 0.3}),
    "mobility": ("mobility", "mobility", {"n_users": 6, "mean_sojourn": 3.0}),
    "gamma": ("gamma", "gamma", {"rate": 4.0, "concentration": 0.5}),
    "flashcrowd": ("flashcrowd", "flashcrowd", {"event_rate": 0.2, "peak": 12.0}),
    "diurnal": ("diurnal", "diurnal", {"day_length": 12}),
    "overlay": ("overlay", "overlay", {"parts": [
        {"kind": "commuter", "params": {"sojourn": 2}},
        {"kind": "flashcrowd", "params": {"event_rate": 0.3, "peak": 8.0}},
    ]}),
    "replay": ("replay", "replay", {"path": str(DATA / "sample_requests.csv")}),
    "streaming": ("streaming", "streaming", {"scenario": "timezones", "sojourn": 2}),
    "streaming-materialized": ("streaming", "streaming", {
        "scenario": "mobility", "params": {"n_users": 4}, "materialize": True,
    }),
    "phased": ("phased", None, {}),
}


def substrate():
    return erdos_renyi(n=16, p=0.3, seed=np.random.default_rng(7))


def build(case: str):
    """The scenario of one pinned case on the shared 16-node substrate."""
    _kind, name, params = CASES[case]
    sub = substrate()
    if name is None:
        return PhasedScenario([
            (10, resolve_scenario("commuter")(sub, sojourn=2)),
            (15, resolve_scenario("gamma")(sub, rate=3.0)),
            (5, resolve_scenario("diurnal")(sub, n_regions=2)),
        ])
    return resolve_scenario(name)(sub, **params)


def generated(case: str) -> Trace:
    """The pinned trace of ``case``, materialised."""
    return as_trace(build(case).generate(HORIZON, np.random.default_rng(11)))


def digest(trace: Trace) -> str:
    """SHA-256 over every round's size and int64 request bytes."""
    h = hashlib.sha256()
    for requests in trace:
        h.update(np.int64(requests.size).tobytes())
        h.update(np.ascontiguousarray(requests, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_registered_scenario_has_a_case():
    missing = sorted(set(list_scenarios()) - set(CASES))
    assert not missing, f"registered scenarios without a contract case: {missing}"


def test_a_scenario_must_implement_stream():
    class NoStream(Scenario):
        kind = "nostream"

    with pytest.raises(TypeError, match="stream"):
        NoStream()


def test_every_case_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(case, golden):
    trace = generated(case)
    assert len(trace) == HORIZON
    assert trace.total_requests > 0
    assert digest(trace) == golden[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_equals_generate(case):
    scenario = build(case)
    streamed = list(scenario.stream(HORIZON, np.random.default_rng(11)))
    trace = generated(case)
    assert len(streamed) == len(trace)
    for t, (a, b) in enumerate(zip(streamed, trace)):
        np.testing.assert_array_equal(a, b, err_msg=f"round {t}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_metadata_names_the_kind_and_survives_save_load(case, tmp_path):
    kind = CASES[case][0]
    metadata = build(case).metadata()
    assert metadata["scenario"] == kind
    trace = generated(case)
    assert {key: trace.metadata.get(key) for key in metadata} == metadata
    loaded = Trace.load(trace.save(tmp_path / case))
    assert loaded.metadata == trace.metadata
    assert loaded.scenario_name == trace.scenario_name
    assert digest(loaded) == digest(trace)


if __name__ == "__main__":
    pinned = {case: digest(generated(case)) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} scenario traces to {GOLDEN_PATH}")
