"""Tests for the execution backends (repro.api.execution).

The load-bearing property: a sweep's result is *bit-identical* no matter
which backend executes it, because every replicate task carries its
pre-spawned SeedSequence child.
"""

import pickle

import numpy as np
import pytest

from repro.api.execution import (
    ProcessPoolBackend,
    ReplicateTask,
    SerialBackend,
)
from repro.api.experiment import run_sweep
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)


def small_sweep(runs: int = 2) -> SweepSpec:
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"sojourn": 5}),
            policies=(PolicySpec("onth", label="ONTH"),
                      PolicySpec("onbr", label="ONBR")),
            costs=CostSpec.paper_default(),
            horizon=40,
        ),
        parameter="topology.n",
        values=(20, 40),
        runs=runs,
        seed=11,
        figure="figX",
    )


def tasks_for(n: int, seed: int = 0) -> list:
    children = np.random.SeedSequence(seed).spawn(n)
    return [ReplicateTask(x=i, seed=children[i]) for i in range(n)]


class TestSerialBackend:
    def test_runs_in_order_with_child_seeds(self):
        def replicate(x, rng):
            return {"x": float(x), "draw": float(rng.random())}

        results = SerialBackend().run_replicates(replicate, tasks_for(4))
        assert [r["x"] for r in results] == [0.0, 1.0, 2.0, 3.0]
        assert len({r["draw"] for r in results}) == 4


class TestProcessPoolBackend:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBackend(0)

    def test_defaults_to_cpu_count(self):
        assert ProcessPoolBackend().workers >= 1

    def test_single_task_runs_serially(self):
        def replicate(x, rng):
            return {"v": float(x)}

        results = ProcessPoolBackend(4).run_replicates(replicate, tasks_for(1))
        assert results == [{"v": 0.0}]

    def test_matches_serial_for_picklable_replicate(self):
        # SpecReplicate (module-level class) is picklable: the normal path.
        spec = small_sweep()
        serial = run_sweep(spec)
        parallel = run_sweep(spec, backend=ProcessPoolBackend(4))
        assert parallel.series == serial.series
        assert parallel.errors == serial.errors
        assert parallel.x_values == serial.x_values

    def test_unpicklable_replicate_raises_without_serial_fallback(self):
        # Replicates travel to the workers by pickle; a closure cannot, and
        # the pool raises instead of quietly running the sweep serially.
        offset = 10.0

        def replicate(x, rng):
            return {"y": offset * x + float(rng.random())}

        seen = []
        with pytest.raises((pickle.PicklingError, AttributeError)):
            ProcessPoolBackend(2).run_replicates(
                replicate, tasks_for(4),
                on_result=lambda index, task, sample: seen.append(index),
            )
        assert seen == []


class TestSpecSweepExecution:
    def test_run_sweep_labels_and_shape(self):
        result = run_sweep(small_sweep(runs=1))
        assert result.series_names == ("ONTH", "ONBR")
        assert result.x_values == (20, 40)
        assert all(v > 0 for v in result.y("ONTH"))

    def test_run_sweep_deterministic(self):
        a = run_sweep(small_sweep())
        b = run_sweep(small_sweep())
        assert a.series == b.series

    def test_point_sweep_without_parameter(self):
        spec = SweepSpec(experiment=small_sweep().experiment, runs=2, seed=1)
        result = run_sweep(spec)
        assert result.x_values == ("total cost",)
        assert result.series_names == ("ONTH", "ONBR")


class TestRunExperiment:
    def test_full_ledgers_and_total_costs(self):
        from repro.api.experiment import run_experiment

        spec = small_sweep().experiment
        outcome = run_experiment(spec)
        assert set(outcome.total_costs) == {"ONTH", "ONBR"}
        assert outcome.results["ONTH"].rounds == spec.horizon

    def test_seeded_reproducibility(self):
        from repro.api.experiment import run_experiment

        spec = small_sweep().experiment
        assert (run_experiment(spec).total_costs
                == run_experiment(spec).total_costs)

    def test_series_label_collision_raises(self):
        # Distinct kinds may build policies with the same .name; that must
        # raise rather than silently overwrite one series with the other.
        from repro.api.experiment import resolve_series_labels, run_experiment

        spec = small_sweep().experiment
        colliding = ExperimentSpec(
            topology=spec.topology,
            scenario=spec.scenario,
            policies=(PolicySpec("onbr"), PolicySpec("onbr-fixed")),
            horizon=10,
        )
        with pytest.raises(ValueError, match="collide on series label"):
            resolve_series_labels(colliding)
        with pytest.raises(ValueError, match="collide on series label"):
            run_experiment(colliding)

    def test_resolve_series_labels(self):
        from repro.api.experiment import resolve_series_labels

        assert resolve_series_labels(small_sweep().experiment) == ("ONTH", "ONBR")
