"""The ablations as sweep specs, and the spec surface they run on.

``tests/data/golden_ablations.json`` pins one small parameterisation of
each ablation (the sizes of ``tests/test_ablations.py``), generated by the
closure implementations the ablations had before they became
:class:`~repro.api.specs.SweepSpec` data. The spec-driven figures must
reproduce them bit for bit — series names and order, floats, x values —
on every backend.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api.cache import ResultCache
from repro.api.execution import ProcessPoolBackend, QueueBackend
from repro.api.experiment import run_experiment
from repro.api.registry import list_figures
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.experiments import ablations
from repro.experiments.__main__ import main
from repro.topology.rocketfuel import att_like_topology

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_ablations.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

_FUNCTIONS = {
    "abl-routing": ablations.ablation_routing,
    "abl-cache": ablations.ablation_cache_size,
    "abl-threshold": ablations.ablation_threshold,
    "abl-migration": ablations.ablation_migration_model,
    "abl-mobility": ablations.ablation_mobility_correlation,
    "abl-beta": ablations.ablation_beta_over_c,
}


def _run(key: str, **run):
    params = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in GOLDEN[key]["params"].items()
    }
    return _FUNCTIONS[key](**params, **run).to_dict()


def _experiment(*policies, **overrides) -> ExperimentSpec:
    return ExperimentSpec(
        topology=TopologySpec("erdos_renyi", {"n": 50}),
        scenario=ScenarioSpec("commuter", {"sojourn": 5, "dynamic_load": False}),
        policies=policies,
        horizon=100,
        **overrides,
    )


class TestGoldenAblations:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_bit_identical_to_closure_implementation(self, key):
        result = _run(key)
        assert result == GOLDEN[key]["result"]
        assert list(result["series"]) == list(GOLDEN[key]["result"]["series"])

    def test_golden_file_covers_every_ablation(self):
        registered = {name for name in list_figures() if name.startswith("abl-")}
        assert set(GOLDEN) == registered == set(_FUNCTIONS)

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_serial_pool_and_queue_agree(self, key, tmp_path):
        serial = _run(key)
        assert _run(key, backend=ProcessPoolBackend(2)) == serial
        assert _run(key, backend=QueueBackend(tmp_path / "q.db")) == serial


class TestAblationExecutionOptions:
    @pytest.mark.parametrize("key", ["abl-cache", "abl-beta"])
    def test_second_call_is_a_cache_hit(self, key, tmp_path):
        first = _run(key, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        second = _run(key, cache=cache)
        assert (cache.hits, cache.misses) == (1, 0)
        assert second == first == GOLDEN[key]["result"]

    def test_report_renders_an_ablation_section(self, tmp_path, capsys):
        out = tmp_path / "EXPERIMENTS.md"
        assert main(
            ["report", "abl-threshold", "--runs", "1", "--out", str(out)]
        ) == 0
        assert "runs no sweeps" not in capsys.readouterr().err
        assert "## abl-threshold" in out.read_text()


class TestPolicyRouting:
    def test_round_trip_and_normalisation(self):
        policy = PolicySpec("onth", label="aware", routing="Load-Aware")
        assert policy.routing == "load_aware"
        assert PolicySpec.from_dict(policy.to_dict()) == policy
        data = json.loads(json.dumps(policy.to_dict()))
        assert PolicySpec.from_dict(data) == policy
        assert PolicySpec.from_dict({"kind": "onth"}).routing is None

    def test_unknown_routing_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="load_aware.*nearest"):
            PolicySpec("onth", routing="fastest")

    def test_changes_the_cache_key(self):
        plain = _experiment(PolicySpec("onth"))
        routed = _experiment(PolicySpec("onth", routing="load_aware"))
        assert routed.cache_key() != plain.cache_key()
        assert ExperimentSpec.from_dict(routed.to_dict()) == routed

    def test_override_equals_the_experiment_wide_setting(self):
        costs = CostSpec(load="quadratic")
        override = run_experiment(
            _experiment(PolicySpec("onth", routing="load_aware"), costs=costs)
        )
        wide = run_experiment(
            _experiment(PolicySpec("onth"), costs=costs, routing="load_aware")
        )
        nearest = run_experiment(_experiment(PolicySpec("onth"), costs=costs))
        assert override.total_costs == wide.total_costs
        assert override.total_costs != nearest.total_costs


class TestBandwidthMigrationModel:
    def test_round_trip(self):
        costs = CostSpec(migration=25.0, migration_model="bandwidth")
        assert CostSpec.from_dict(costs.to_dict()) == costs
        assert CostSpec.from_dict(json.loads(json.dumps(costs.to_dict()))) == costs
        assert CostSpec().migration_model == "constant"

    def test_unknown_model_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="constant.*bandwidth"):
            CostSpec(migration_model="distance")

    def test_changes_the_cache_key(self):
        plain = _experiment(PolicySpec("onth"))
        bandwidth = _experiment(
            PolicySpec("onth"), costs=CostSpec(migration_model="bandwidth")
        )
        assert bandwidth.cache_key() != plain.cache_key()
        overridden = _experiment(
            PolicySpec("onth", costs=CostSpec(migration_model="bandwidth"))
        )
        assert overridden.cache_key() != plain.cache_key()

    def test_matrix_mean_equals_beta(self):
        substrate = att_like_topology(access_routers=False)
        model = CostSpec(migration=25.0, migration_model="bandwidth").to_cost_model(
            substrate
        )
        matrix = model.migration_matrix
        off_diagonal = matrix[~np.eye(substrate.n, dtype=bool)]
        assert off_diagonal.mean() == pytest.approx(25.0)
        assert np.all(np.diag(matrix) == 0.0)
        assert off_diagonal.std() > 0  # heterogeneous, not the constant β
        assert model.migration == 25.0

    def test_needs_the_substrate(self):
        costs = CostSpec(migration_model="bandwidth")  # validates without one
        with pytest.raises(ValueError, match="substrate"):
            costs.to_cost_model()
        assert CostSpec().to_cost_model().migration_matrix is None


class TestMigrationsMetric:
    @staticmethod
    def _migrating(*policies, **overrides) -> ExperimentSpec:
        # time-zone demand moves the hotspot, so both policies migrate
        return replace(
            _experiment(*policies, **overrides),
            scenario=ScenarioSpec("timezones", {"sojourn": 5}),
        )

    def test_equals_total_migrations(self):
        spec = self._migrating(
            PolicySpec("onth", label="ONTH"),
            metrics=(MetricSpec("migrations"),),
        )
        outcome = run_experiment(spec)
        assert outcome.series == {
            "migrations": float(outcome.results["ONTH"].total_migrations)
        }
        assert outcome.series["migrations"] > 0

    def test_series_per_policy_are_prefixed(self):
        spec = self._migrating(
            PolicySpec("onth", label="ONTH"),
            PolicySpec("onbr", label="ONBR"),
            metrics=(MetricSpec("migrations"),),
        )
        outcome = run_experiment(spec)
        assert outcome.series == {
            f"{label} migrations": float(run.total_migrations)
            for label, run in outcome.results.items()
        }
        assert all(value > 0 for value in outcome.series.values())

    def test_rename_with_a_label(self):
        spec = replace(
            _experiment(PolicySpec("onth")),
            metrics=(MetricSpec("migrations", label="moves"),),
        )
        assert list(run_experiment(spec).series) == ["moves"]
