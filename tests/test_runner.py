"""Tests for the sweep engine (repro.experiments.runner)."""

import numpy as np
import pytest

from repro.experiments.runner import FigureResult, sweep_experiment


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


class TestSweepExperiment:
    def test_averages_across_runs(self):
        def replicate(x, rng):
            return {"y": float(x) * 10 + rng.normal(0, 0.001)}

        result = sweep_experiment(
            "f", "t", "x", [1, 2, 3], replicate, runs=5, seed=0
        )
        np.testing.assert_allclose(result.y("y"), [10, 20, 30], atol=0.01)
        assert all(e < 0.01 for e in result.errors["y"])

    def test_deterministic_given_seed(self):
        def replicate(x, rng):
            return {"y": float(rng.random())}

        a = sweep_experiment("f", "t", "x", [1, 2], replicate, runs=3, seed=9)
        b = sweep_experiment("f", "t", "x", [1, 2], replicate, runs=3, seed=9)
        assert a.series == b.series

    def test_different_seeds_differ(self):
        def replicate(x, rng):
            return {"y": float(rng.random())}

        a = sweep_experiment("f", "t", "x", [1], replicate, runs=2, seed=1)
        b = sweep_experiment("f", "t", "x", [1], replicate, runs=2, seed=2)
        assert a.series != b.series

    def test_replicates_get_independent_rngs(self):
        seen = []

        def replicate(x, rng):
            seen.append(float(rng.random()))
            return {"y": 0.0}

        sweep_experiment("f", "t", "x", [1], replicate, runs=4, seed=0)
        assert len(set(seen)) == 4

    def test_single_run_has_zero_stderr(self):
        result = sweep_experiment(
            "f", "t", "x", [5], lambda x, rng: {"y": 1.0}, runs=1, seed=0
        )
        assert result.errors["y"] == (0.0,)

    def test_inconsistent_series_keys_rejected(self):
        def replicate(x, rng):
            return {"a": 1.0} if x == 1 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            sweep_experiment("f", "t", "x", [1, 2], replicate, runs=1, seed=0)

    def test_inconsistent_keys_within_first_point_rejected(self):
        """Ragged replicates inside the *first* sweep point must fail too,
        not merge silently into misaligned series."""
        samples = iter([{"a": 1.0}, {"a": 1.0, "b": 2.0}])

        def replicate(x, rng):
            return next(samples)

        with pytest.raises(RuntimeError, match="series"):
            sweep_experiment("f", "t", "x", [1], replicate, runs=2, seed=0)

    def test_serial_ragged_series_fails_fast(self):
        """A serial sweep aborts at the offending replicate, not after
        burning through every remaining sweep point."""
        calls = []

        def replicate(x, rng):
            calls.append(x)
            return {"a": 1.0} if x < 3 else {"b": 1.0}

        with pytest.raises(RuntimeError, match="series"):
            sweep_experiment(
                "f", "t", "x", [1, 2, 3, 4, 5], replicate, runs=1, seed=0
            )
        assert calls == [1, 2, 3]  # replicates after the bad one never ran

    def test_hook_driven_sweep_skips_backstop_revalidation(self):
        """When the backend invoked on_result for every task, the key-set
        check runs exactly once per replicate — no duplicate backstop pass.

        The validation is the only consumer of the sample's iteration
        protocol (``set(sample)``); aggregation uses ``.items()``. Counting
        ``__iter__`` calls therefore counts validation passes.
        """

        class CountedSeries(dict):
            validations = 0

            def __iter__(self):
                CountedSeries.validations += 1
                return super().__iter__()

        sweep_experiment(
            "f", "t", "x", [1, 2],
            lambda x, rng: CountedSeries({"y": float(x)}),
            runs=2, seed=0,
        )
        assert CountedSeries.validations == 4  # one per replicate, not two

    def test_to_dict_round_trip(self):
        result = sweep_experiment(
            "f", "t", "x", [1, 2], lambda x, rng: {"y": float(x)},
            runs=2, seed=0, notes="n",
        )
        rebuilt = FigureResult.from_dict(result.to_dict())
        assert rebuilt.series == result.series
        assert rebuilt.errors == result.errors
        assert rebuilt.x_values == result.x_values
        assert rebuilt.notes == "n"

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError, match="runs"):
            sweep_experiment("f", "t", "x", [1], lambda x, rng: {}, runs=0)

    def test_notes_carried(self):
        result = sweep_experiment(
            "f", "t", "x", [1], lambda x, rng: {"y": 0.0},
            runs=1, seed=0, notes="hello",
        )
        assert result.notes == "hello"
