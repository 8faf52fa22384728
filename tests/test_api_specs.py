"""Tests for the declarative spec layer (repro.api.specs)."""

import json

import numpy as np
import pytest

from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    parse_component,
)


def small_experiment(**overrides) -> ExperimentSpec:
    defaults = dict(
        topology=TopologySpec("erdos_renyi", {"n": 30}),
        scenario=ScenarioSpec("commuter", {"sojourn": 5}),
        policies=(PolicySpec("onth", label="ONTH"), PolicySpec("onbr")),
        costs=CostSpec.paper_default(),
        horizon=40,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestComponentSpecs:
    def test_topology_build_is_deterministic(self):
        spec = TopologySpec("erdos_renyi", {"n": 25})
        a = spec.build(np.random.default_rng(3))
        b = spec.build(np.random.default_rng(3))
        assert a.n == b.n == 25
        assert np.array_equal(a.distances, b.distances)

    def test_topology_explicit_seed_param_wins(self):
        spec = TopologySpec("line", {"n": 6, "seed": 1})
        substrate = spec.build(np.random.default_rng(99))
        assert substrate.n == 6

    def test_scenario_build(self):
        substrate = TopologySpec("line", {"n": 8}).build(np.random.default_rng(0))
        scenario = ScenarioSpec("timezones", {"requests_per_round": 4}).build(substrate)
        assert scenario.requests_per_round == 4

    def test_policy_build_and_labels(self):
        from repro.api.experiment import resolve_series_labels

        assert PolicySpec("onth").build().name == "ONTH"
        spec = small_experiment(policies=(
            PolicySpec("onth", label="custom"), PolicySpec("onbr-dyn")))
        assert resolve_series_labels(spec) == ("custom", "ONBR-dyn")

    def test_params_normalised_to_tuples(self):
        spec = TopologySpec("erdos_renyi", {"n": 10, "latency_range": [1.0, 2.0]})
        assert spec.params["latency_range"] == (1.0, 2.0)

    def test_with_params_copies(self):
        spec = TopologySpec("erdos_renyi", {"n": 10})
        bigger = spec.with_params(n=20)
        assert spec.params["n"] == 10 and bigger.params["n"] == 20

    def test_non_string_labels_coerced(self):
        # CLI value parsing may deliver ints/bools for the reserved 'label'
        # param; the series name must come out a usable string, not crash.
        assert PolicySpec("onth", label=5).label == "5"
        assert PolicySpec("onth", label=True).label == "True"
        with pytest.raises(ValueError, match="non-empty"):
            PolicySpec("onth", label="  ")


class TestCostSpec:
    def test_matches_paper_default_cost_model(self):
        from repro.core.costs import CostModel

        model = CostSpec.paper_default().to_cost_model()
        reference = CostModel.paper_default()
        assert model.migration == reference.migration
        assert model.creation == reference.creation
        assert model.run_active == reference.run_active
        assert model.run_inactive == reference.run_inactive

    def test_migration_expensive(self):
        model = CostSpec.migration_expensive().to_cost_model()
        assert model.migration == 400.0 and model.creation == 40.0

    def test_load_models(self):
        from repro.core.load import LinearLoad, PowerLoad, QuadraticLoad

        assert isinstance(CostSpec(load="linear").load_function(), LinearLoad)
        assert isinstance(CostSpec(load="quadratic").load_function(), QuadraticLoad)
        power = CostSpec(load="power", load_exponent=1.5).load_function()
        assert isinstance(power, PowerLoad) and power.exponent == 1.5

    def test_unknown_load_rejected(self):
        with pytest.raises(ValueError, match="load model"):
            CostSpec(load="cubic")

    def test_bad_constants_surface_at_spec_time(self):
        with pytest.raises(ValueError):
            CostSpec(migration=-1.0)

    def test_from_dict_rejects_unknown_keys(self):
        # A typo'd constant must not silently revert to its default.
        with pytest.raises(ValueError, match="craetion"):
            CostSpec.from_dict({"migration": 400.0, "craetion": 40.0})

    def test_all_from_dicts_reject_unknown_keys(self):
        spec = small_experiment()
        data = spec.to_dict()
        with pytest.raises(ValueError, match="horizonn"):
            ExperimentSpec.from_dict({**data, "horizonn": 900})
        with pytest.raises(ValueError, match="krnd"):
            TopologySpec.from_dict({"kind": "line", "krnd": 1})
        sweep = SweepSpec(experiment=spec, parameter="horizon", values=(10,))
        with pytest.raises(ValueError, match="run"):
            SweepSpec.from_dict({**sweep.to_dict(), "run": 9})


class TestExperimentSpec:
    def test_requires_a_policy(self):
        with pytest.raises(ValueError, match="at least one policy"):
            small_experiment(policies=())

    def test_horizon_validated(self):
        with pytest.raises(ValueError, match="horizon"):
            small_experiment(horizon=0)

    def test_routing_normalised_and_validated(self):
        spec = small_experiment(routing="Load-Aware")
        assert spec.routing == "load_aware"
        with pytest.raises(ValueError, match="routing"):
            small_experiment(routing="teleport")

    def test_duplicate_explicit_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            small_experiment(policies=(PolicySpec("onth", label="x"),
                                       PolicySpec("onbr", label="x")))

    def test_same_kind_different_params_allowed(self):
        # onbr and onbr:dynamic_threshold=true report distinct .names
        # ('ONBR' vs 'ONBR-dyn'); runtime label resolution must accept them.
        from repro.api.experiment import resolve_series_labels

        spec = small_experiment(policies=(
            PolicySpec("onbr"),
            PolicySpec("onbr", {"dynamic_threshold": True}),
        ))
        assert resolve_series_labels(spec) == ("ONBR", "ONBR-dyn")

    def test_with_param_top_level(self):
        assert small_experiment().with_param("horizon", 99).horizon == 99

    def test_with_param_nested(self):
        spec = small_experiment()
        assert spec.with_param("topology.n", 50).topology.params["n"] == 50
        assert spec.with_param("scenario.sojourn", 9).scenario.params["sojourn"] == 9
        assert spec.with_param("costs.migration", 8.0).costs.migration == 8.0
        swept = spec.with_param("policies.cache_size", 5)
        assert all(p.params["cache_size"] == 5 for p in swept.policies)

    def test_with_param_bad_paths(self):
        spec = small_experiment()
        with pytest.raises(ValueError, match="cannot substitute"):
            spec.with_param("nonsense", 1)
        with pytest.raises(ValueError, match="unknown component"):
            spec.with_param("nonsense.x", 1)
        with pytest.raises(ValueError, match="empty parameter"):
            spec.with_param("topology.", 1)


class TestSerialization:
    def test_experiment_dict_round_trip(self):
        spec = small_experiment()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_experiment_json_round_trip(self):
        spec = small_experiment()
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_sweep_json_round_trip(self):
        sweep = SweepSpec(
            experiment=small_experiment(),
            parameter="topology.n",
            values=(20, 40),
            runs=2,
            seed=3,
            figure="figX",
            title="t",
            x_label="n",
            notes="notes",
        )
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert rebuilt == sweep

    def test_tuple_params_survive_json(self):
        spec = small_experiment(
            topology=TopologySpec("erdos_renyi", {"n": 10, "latency_range": (2.0, 3.0)})
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.topology.params["latency_range"] == (2.0, 3.0)
        assert rebuilt == spec

    def test_specs_are_picklable(self):
        import pickle

        sweep = SweepSpec(experiment=small_experiment(), parameter="horizon",
                          values=(10, 20), runs=1)
        assert pickle.loads(pickle.dumps(sweep)) == sweep


class TestSweepSpec:
    def test_validates_parameter_path_up_front(self):
        with pytest.raises(ValueError, match="unknown component"):
            SweepSpec(experiment=small_experiment(), parameter="bogus.x",
                      values=(1, 2))

    def test_experiment_at_substitutes(self):
        sweep = SweepSpec(experiment=small_experiment(), parameter="topology.n",
                          values=(10, 20))
        assert sweep.experiment_at(20).topology.params["n"] == 20

    def test_point_sweep_defaults(self):
        sweep = SweepSpec(experiment=small_experiment())
        assert sweep.experiment_at("total cost") == sweep.experiment
        assert sweep.resolved_x_label() == "metric"

    def test_needs_values_and_runs(self):
        with pytest.raises(ValueError, match="value"):
            SweepSpec(experiment=small_experiment(), values=())
        with pytest.raises(ValueError, match="runs"):
            SweepSpec(experiment=small_experiment(), runs=0)

    def test_sweeping_seed_rejected(self):
        # Replicate randomness comes from SweepSpec.seed's SeedSequence
        # children; sweeping ExperimentSpec.seed would be a silent no-op.
        for parameter in ("seed", "name"):
            with pytest.raises(ValueError, match="cannot be swept"):
                SweepSpec(experiment=small_experiment(), parameter=parameter,
                          values=(1, 2))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_bad_seed_names_the_field(self, seed):
        # numpy's SeedSequence would reject it only once the sweep runs
        with pytest.raises(ValueError) as error:
            SweepSpec(experiment=small_experiment(), seed=seed)
        assert str(error.value) == (
            f"seed must be a non-negative integer, got {seed!r}"
        )

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_from_data(self, seed):
        data = SweepSpec(experiment=small_experiment()).to_dict()
        data["seed"] = seed
        with pytest.raises(ValueError, match="^seed must be a non-negative "):
            SweepSpec.from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("seed", [0, 2**40, np.int64(5)])
    def test_non_negative_integer_seeds_are_valid(self, seed):
        assert SweepSpec(experiment=small_experiment(), seed=seed).seed == seed


class TestParseComponent:
    def test_kind_only(self):
        assert parse_component("onth") == ("onth", {})

    def test_typed_params(self):
        kind, params = parse_component(
            "erdos_renyi:n=200,p=0.02,unit_latency=true,name=foo"
        )
        assert kind == "erdos_renyi"
        assert params == {"n": 200, "p": 0.02, "unit_latency": True, "name": "foo"}

    def test_malformed(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_component("erdos_renyi:n")
        with pytest.raises(ValueError, match="empty kind"):
            parse_component(":n=2")
