"""Tests for the sweep engine (repro.experiments.runner)."""

import numpy as np
import pytest

from repro.api.cache import ResultCache
from repro.api.execution import ExecutionBackend, SerialBackend
from repro.api.experiment import run_sweep
from repro.api.specs import (
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments.runner import (
    FigureResult,
    SeriesValidator,
    aggregate_samples,
    spawn_tasks,
)


class TestFigureResult:
    def make(self):
        return FigureResult(
            figure="figX",
            title="test",
            x_label="x",
            x_values=(1, 2, 3),
            series={"a": (1.0, 2.0, 3.0), "b": (9.0, 8.0, 7.0)},
            errors={"a": (0.1, 0.1, 0.1)},
        )

    def test_accessors(self):
        result = self.make()
        assert result.y("a") == (1.0, 2.0, 3.0)
        assert result.series_names == ("a", "b")

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError, match="values"):
            FigureResult("f", "t", "x", (1, 2), {"a": (1.0,)})

    def test_unknown_error_series_rejected(self):
        with pytest.raises(ValueError, match="unknown series"):
            FigureResult(
                "f", "t", "x", (1,), {"a": (1.0,)}, errors={"zzz": (0.0,)}
            )

    def test_misaligned_errors_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            FigureResult(
                "f", "t", "x", (1,), {"a": (1.0,)}, errors={"a": (0.0, 0.0)}
            )


def serial_sweep(x_values, replicate, runs, seed, notes=""):
    """Replicate functions through the engine's pieces: the
    :func:`spawn_tasks` seeds, the serial backend with a
    :class:`SeriesValidator` result hook, and :func:`aggregate_samples`."""
    samples = SerialBackend().run_replicates(
        replicate, spawn_tasks(x_values, runs, seed),
        on_result=SeriesValidator(),
    )
    return aggregate_samples(
        "f", "t", "x", x_values, samples, runs, notes=notes
    )


def spec_sweep(seed=0, runs=2):
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 20}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=20,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=runs,
        seed=seed,
    )


class CountedSeries(dict):
    """A sample counting its key-set reads: only :class:`SeriesValidator`
    iterates a sample (aggregation uses ``.items()``), so the count is the
    number of validation passes."""

    validations = 0

    def __iter__(self):
        CountedSeries.validations += 1
        return super().__iter__()


class CountedBackend(ExecutionBackend):
    """Serial execution delivering every sample through the result hook,
    wrapped as :class:`CountedSeries`."""

    def run_replicates(self, replicate, tasks, on_result=None):
        samples = [
            CountedSeries(sample)
            for sample in SerialBackend().run_replicates(replicate, tasks)
        ]
        for index, (task, sample) in enumerate(zip(tasks, samples)):
            if on_result is not None:
                on_result(index, task, sample)
        return samples


class TestSweepExperiment:
    """Sweeps of replicate functions through :func:`spawn_tasks`, the serial
    backend with a :class:`SeriesValidator` hook and
    :func:`aggregate_samples`, and of specs through :func:`run_sweep`."""

    def test_averages_across_runs(self):
        def replicate(x, rng):
            return {"y": float(x) * 10 + rng.normal(0, 0.001)}

        result = serial_sweep([1, 2, 3], replicate, runs=5, seed=0)
        np.testing.assert_allclose(result.y("y"), [10, 20, 30], atol=0.01)
        assert all(e < 0.01 for e in result.errors["y"])

    def test_deterministic_given_seed(self):
        a, b = (spawn_tasks([1, 2], 3, seed=9) for _ in range(2))
        assert [t.seed.entropy for t in a] == [t.seed.entropy for t in b]
        assert [t.seed.spawn_key for t in a] == [t.seed.spawn_key for t in b]
        assert run_sweep(spec_sweep(seed=9)) == run_sweep(spec_sweep(seed=9))

    def test_different_seeds_differ(self):
        assert run_sweep(spec_sweep(seed=1)).series != \
            run_sweep(spec_sweep(seed=2)).series

    def test_replicates_get_independent_rngs(self):
        tasks = spawn_tasks([1], runs=4, seed=0)
        draws = {float(np.random.default_rng(t.seed).random()) for t in tasks}
        assert len(draws) == 4

    def test_single_run_has_zero_stderr(self):
        result = run_sweep(spec_sweep(runs=1))
        assert result.errors["ONTH"] == (0.0, 0.0)

    def test_inconsistent_series_keys_rejected(self):
        def replicate(x, rng):
            return {"a": 1.0} if x == 1 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            serial_sweep([1, 2], replicate, runs=1, seed=0)

    def test_inconsistent_keys_within_first_point_rejected(self, tmp_path):
        """Ragged replicates inside the *first* sweep point must fail too,
        not merge silently into misaligned series: from a replicate
        function, and from a cached block written under an older metric
        line-up that the engine mixes with fresh samples."""
        samples = iter([{"a": 1.0}, {"a": 1.0, "b": 2.0}])

        def replicate(x, rng):
            return next(samples)

        with pytest.raises(RuntimeError, match="series"):
            serial_sweep([1], replicate, runs=2, seed=0)

        spec = spec_sweep()
        experiment = spec.experiment_at(spec.values[0])
        ResultCache(tmp_path).store_point(
            experiment, spec.seed, 0, spec.runs,
            [{"ONTH": 1.0, "OLD": 2.0}, {"ONTH": 1.0, "OLD": 2.0}],
        )
        with pytest.raises(RuntimeError, match=r"x=5 \(run 0\) returned"):
            run_sweep(spec, cache=ResultCache(tmp_path))

    def test_serial_ragged_series_fails_fast(self):
        """A serial sweep aborts at the offending replicate, not after
        burning through every remaining sweep point."""
        calls = []

        def replicate(x, rng):
            calls.append(x)
            return {"a": 1.0} if x < 3 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            serial_sweep([1, 2, 3, 4, 5], replicate, runs=1, seed=0)
        assert calls == [1, 2, 3]  # replicates after the bad one never ran

    def test_hook_driven_sweep_skips_backstop_revalidation(self):
        """When the backend invoked on_result for every task, the key-set
        check runs exactly once per replicate — the engine's backstop over
        the returned list adds no second pass."""
        CountedSeries.validations = 0
        run_sweep(spec_sweep(), backend=CountedBackend())
        assert CountedSeries.validations == 4  # one per replicate, not two

    def test_to_dict_round_trip(self):
        result = serial_sweep(
            [1, 2], lambda x, rng: {"y": float(x)}, runs=2, seed=0, notes="n"
        )
        rebuilt = FigureResult.from_dict(result.to_dict())
        assert rebuilt.series == result.series
        assert rebuilt.errors == result.errors
        assert rebuilt.x_values == result.x_values
        assert rebuilt.notes == "n"

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError, match="runs"):
            spawn_tasks([1], runs=0, seed=0)

    def test_notes_carried(self):
        result = serial_sweep(
            [1], lambda x, rng: {"y": 0.0}, runs=1, seed=0, notes="hello"
        )
        assert result.notes == "hello"
