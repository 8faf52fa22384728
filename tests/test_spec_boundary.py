"""One validation boundary: a spec that cannot run fails before it runs.

Every entry point a :class:`SweepSpec` reaches the engine through --
``run_sweep``, ``enqueue_sweep``, the service's ``POST /sweep`` and both
``--from-bundle`` replays -- rejects a bad spec with one single-line
``ValueError`` (exit 2 / HTTP 400 at the edges) before any replicate runs.
The property test mutates one leaf of every registered sweep figure's spec
and of the perfbench workload specs, and checks that either the boundary
rejects the mutant or a short replicate of it completes.
"""

import copy
import importlib.util
import json
import math
import sys
import threading
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.cache import ResultCache
from repro.api.execution import ExecutionBackend
from repro.api.experiment import _preflight, run_replicate, run_sweep
from repro.api.specs import SweepSpec
from repro.experiments import figures
from repro.experiments.__main__ import main
from repro.queue.broker import Broker
from repro.queue.service import ResultsServer
from repro.queue.worker import enqueue_sweep

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_figures.json").read_text())


class _Captured(Exception):
    """Stops a figure function at its run_sweep call."""


def _figure_specs() -> "dict[str, dict]":
    """Each golden figure's spec dict at its golden params, unsimulated."""
    specs = {}

    def capture(spec, **_run):
        specs[key] = spec.to_dict()
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(figures, "run_sweep", capture)
        for key, entry in GOLDEN.items():
            name = "rocketfuel_table" if key == "rocketfuel" else f"figure{key[3:]}"
            params = {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in entry["params"].items()
            }
            with pytest.raises(_Captured):
                getattr(figures, name)(**params)
    return specs


def _perfbench_specs() -> "dict[str, dict]":
    path = ROOT / "perfbench" / "sweep_workloads.py"
    spec = importlib.util.spec_from_file_location("_sweep_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    seed = module.DEFAULT_SEED
    return {
        "size-sweep": module.size_sweep_spec(seed).to_dict(),
        "lambda-sweep": module.lambda_sweep_spec(seed).to_dict(),
        "optim-ratio": module.optim_ratio_spec(seed).to_dict(),
    }


BASES = {**_figure_specs(), **_perfbench_specs()}


def _mutants(value) -> list:
    """A leaf's bad values: negative, zero, NaN, inf, wrong type, misspelt."""
    if isinstance(value, str):
        return [value + "x", value[:-1], 5, -1, float("nan")]
    bad = [0, float("nan"), float("inf"), "x"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        bad.append(-value if value else -1)
    else:
        bad.append(-1)
    return bad


def _cases(data, path=()):
    """Every ``(path, new value)`` one-leaf mutation of a spec dict."""
    if isinstance(data, dict):
        yield path + ("bogus",), 1  # an unknown key
        for key, value in data.items():
            yield from _cases(value, path + (key,))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            yield from _cases(value, path + (index,))
    else:
        for bad in _mutants(data):
            yield path, bad


CASES = [
    (name, path, bad) for name, data in BASES.items() for path, bad in _cases(data)
]


def _mutated(data: dict, path: tuple, value) -> dict:
    data = copy.deepcopy(data)
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return data


def test_the_bases_cover_every_golden_figure_and_workload():
    assert set(BASES) == set(GOLDEN) | {"size-sweep", "lambda-sweep", "optim-ratio"}
    for data in BASES.values():
        _preflight(SweepSpec.from_dict(data))


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=st.sampled_from(CASES))
def test_a_mutated_spec_fails_at_the_boundary_or_runs(case):
    name, path, bad = case
    try:
        spec = SweepSpec.from_dict(_mutated(BASES[name], path, bad))
        _preflight(spec)
    except ValueError as error:
        message = str(error)
        assert message and "\n" not in message, (name, path, bad, message)
        return
    # the boundary let it through: a short replicate must complete
    probe = replace(spec.experiment_at(spec.values[0]), horizon=10)
    series = run_replicate(probe, np.random.default_rng(0))
    assert series and all(isinstance(v, float) for v in series.values())


# ---------------------------------------------------------------------------
# The named bad specs, through every entry point
# ---------------------------------------------------------------------------


def _line_spec() -> dict:
    return {
        "experiment": {
            "topology": {"kind": "line", "params": {"n": 5}},
            "scenario": {"kind": "commuter", "params": {"period": 4}},
            "policies": [{"kind": "onth"}],
            "horizon": 10,
        },
        "runs": 1,
    }


def _bad(step):
    data = _line_spec()
    step(data)
    return data


BAD_SPECS = {
    "n=-3": _bad(lambda d: d["experiment"]["topology"]["params"].update(n=-3)),
    "nn=5": _bad(lambda d: d["experiment"]["topology"].update(params={"nn": 5})),
    "onthh": _bad(lambda d: d["experiment"]["policies"][0].update(kind="onthh")),
    "sojourn=-1": _bad(
        lambda d: d["experiment"]["scenario"]["params"].update(sojourn=-1)
    ),
    "metric bogus=1": _bad(lambda d: d["experiment"].update(
        metrics=[{"kind": "cost_ratio_vs", "params": {"bogus": 1}}]
    )),
    "runs=1.5": _bad(lambda d: d.update(runs=1.5)),
    "runs=True": _bad(lambda d: d.update(runs=True)),
    "start_node=99": _bad(
        lambda d: d["experiment"]["policies"][0].update(params={"start_node": 99})
    ),
    "start_node=[1]": _bad(
        lambda d: d["experiment"]["policies"][0].update(params={"start_node": [1]})
    ),
}


class _NoReplicates(ExecutionBackend):
    def run_replicates(self, replicate, tasks, on_result=None):
        raise AssertionError("a replicate ran for a spec the boundary rejects")


def _one_line_value_error(call) -> str:
    with pytest.raises(ValueError) as error:
        call()
    message = str(error.value)
    assert message and "\n" not in message
    return message


def test_the_line_base_spec_runs():
    assert run_sweep(SweepSpec.from_dict(_line_spec())).series


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_run_sweep_rejects_before_any_replicate(name):
    _one_line_value_error(lambda: run_sweep(
        SweepSpec.from_dict(BAD_SPECS[name]), backend=_NoReplicates()
    ))


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_enqueue_sweep_creates_no_job_row(name, tmp_path):
    broker = Broker(tmp_path / "q.db")
    cache = ResultCache(tmp_path / "cache")
    _one_line_value_error(lambda: enqueue_sweep(
        broker, cache, SweepSpec.from_dict(BAD_SPECS[name])
    ))
    assert broker.jobs() == []


def test_errors_name_the_component_and_the_swept_point():
    data = _bad(lambda d: d.update(parameter="topology.n", values=[4, -3]))
    message = _one_line_value_error(lambda: run_sweep(SweepSpec.from_dict(data)))
    assert message == (
        "experiment.topology at topology.n=-3: n must be >= 1, got -3"
    )
    message = _one_line_value_error(
        lambda: run_sweep(SweepSpec.from_dict(BAD_SPECS["onthh"]))
    )
    assert message.startswith("experiment.policies: unknown policy 'onthh'")


def test_start_node_errors_name_the_swept_point():
    data = _bad(lambda d: (
        d["experiment"]["policies"][0].update(params={"start_node": 4}),
        d.update(parameter="topology.n", values=[6, 3]),
    ))
    message = _one_line_value_error(lambda: run_sweep(
        SweepSpec.from_dict(data), backend=_NoReplicates()
    ))
    assert message == (
        "experiment.policies[0] at topology.n=3: start node 4 outside the substrate"
    )
    assert _one_line_value_error(lambda: run_sweep(
        SweepSpec.from_dict(BAD_SPECS["start_node=[1]"]), backend=_NoReplicates()
    )) == "start node must be a whole node index, got (1,)"


@pytest.mark.parametrize("metric, message", [
    (
        {"kind": "cost_ratio_vs", "params": {"reference": "OPTT"}},
        "experiment.metrics[0]: unknown reference 'OPTT'; expected 'OPT' or "
        "one of the policy labels ['ONTH']",
    ),
    (
        {"kind": "cost_breakdown", "params": {"parts": ["acces"]}},
        "experiment.metrics[0]: unknown breakdown part 'acces'; expected one "
        "of ('access', 'running', 'migration', 'creation', 'total') "
        "(joinable with '+')",
    ),
    (
        {"kind": "reference_cost", "params": {"policy": "OFFSTAT"}},
        "experiment.metrics[0]: unknown policy label 'OFFSTAT'; expected one "
        "of ['ONTH']",
    ),
])
def test_metric_names_are_checked_against_the_policy_labels(metric, message):
    data = _bad(lambda d: d["experiment"].update(metrics=[metric]))
    assert _one_line_value_error(
        lambda: run_sweep(SweepSpec.from_dict(data), backend=_NoReplicates())
    ) == message


def test_a_warm_sweep_entry_skips_the_preflight(tmp_path, monkeypatch):
    import repro.api.experiment as experiment

    cache = ResultCache(tmp_path)
    spec = SweepSpec.from_dict(_line_spec())
    first = run_sweep(spec, cache=cache)
    monkeypatch.setattr(experiment, "_preflight", None)  # calling it fails
    assert run_sweep(spec, cache=cache) == first


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    instance = ResultsServer(("127.0.0.1", 0), root / "queue.db", root / "cache")
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_post_sweep_answers_400_without_a_job(name, server):
    request = urllib.request.Request(
        f"{server.url}/sweep",
        data=json.dumps(BAD_SPECS[name]).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as error:
        urllib.request.urlopen(request, timeout=10)
    assert error.value.code == 400
    message = json.loads(error.value.read())["error"]
    assert message.startswith("malformed sweep spec: ") and "\n" not in message
    assert server.broker.jobs() == []


def _write_bundle(root: Path, data: dict) -> Path:
    (root / "specs").mkdir(parents=True)
    (root / "specs" / "bad.json").write_text(
        json.dumps({"key": "bad", "sweep": data})
    )
    (root / "MANIFEST.json").write_text(json.dumps({
        "schema": 1,
        "figures": [{"key": "bad", "spec": "specs/bad.json"}],
    }))
    return root


@pytest.mark.parametrize("command", ["run", "report"])
@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_bundle_replays_exit_2_with_one_line(name, command, tmp_path, capsys):
    bundle = _write_bundle(tmp_path / "bundle", BAD_SPECS[name])
    argv = [command, "--from-bundle", str(bundle)]
    if command == "report":
        argv += ["--out", str(tmp_path / "EXPERIMENTS.md")]
    assert main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["run", "report"])
def test_bundle_replay_names_the_topology(command, tmp_path, capsys):
    bundle = _write_bundle(tmp_path / "bundle", BAD_SPECS["n=-3"])
    out = ["--out", str(tmp_path / "EXPERIMENTS.md")] if command == "report" else []
    assert main([command, "--from-bundle", str(bundle), *out]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: experiment.topology: n must be >= 1, got -3"
    )


@pytest.mark.parametrize("field", ["runs", "horizon"])
@pytest.mark.parametrize("value", [True, 1.5, "2", None, math.nan])
def test_runs_and_horizon_check_their_type(field, value):
    data = _line_spec()
    (data if field == "runs" else data["experiment"])[field] = value
    message = _one_line_value_error(lambda: SweepSpec.from_dict(data))
    assert message == f"{field} must be a positive integer, got {value!r}"
    spec = SweepSpec.from_dict(_line_spec())
    with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
        if field == "runs":
            replace(spec, runs=value)
        else:
            replace(spec.experiment, horizon=value)


def test_numpy_integers_are_whole_numbers():
    spec = SweepSpec.from_dict(_line_spec())
    assert replace(spec, runs=np.int64(3)).runs == 3
    assert replace(spec.experiment, horizon=np.int32(7)).horizon == 7
    assert json.dumps(replace(spec, runs=np.int64(3)).to_dict())


@pytest.mark.parametrize("path, message", [
    ((), "SweepSpec is missing the required keys ['experiment']"),
    (("experiment",), "ExperimentSpec is missing the required keys ['topology']"),
    (("experiment", "topology"), "TopologySpec is missing the required keys ['kind']"),
])
def test_a_missing_required_key_is_one_value_error(path, message):
    data = _line_spec()
    node = data
    for step in path:
        node = node[step]
    node.pop({0: "experiment", 1: "topology", 2: "kind"}[len(path)])
    assert _one_line_value_error(lambda: SweepSpec.from_dict(data)) == message


def test_non_mapping_params_are_one_value_error():
    data = _bad(lambda d: d["experiment"]["policies"][0].update(params=[1]))
    assert _one_line_value_error(lambda: SweepSpec.from_dict(data)) == (
        "PolicySpec.params must be a mapping, got [1]"
    )


@pytest.mark.parametrize("path, key", [
    ((), "values"),
    (("experiment",), "policies"),
    (("experiment",), "metrics"),
])
def test_a_non_list_entry_is_one_value_error(path, key):
    data = _line_spec()
    node = data
    for step in path:
        node = node[step]
    node[key] = 5
    what = "ExperimentSpec" if path else "SweepSpec"
    assert _one_line_value_error(lambda: SweepSpec.from_dict(data)) == (
        f"{what}.{key} must be a list, got 5"
    )
