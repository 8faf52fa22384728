"""Tests for competitive ratios and multi-run statistics.

Ratios are the ``cost_ratio_vs`` metric and run averages the sweep
engine's fold of the ``total_cost``/``cost_breakdown`` metrics, so both
are checked through the spec pipeline.
"""

import numpy as np
import pytest

from repro.analysis.stats import mean_stderr
from repro.api.experiment import run_experiment, run_replicate, run_sweep
from repro.api.metrics import cost_ratio
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments.runner import aggregate_point_summaries, spawn_tasks

#: The 5-node latency line of the ratio figures.
LINE5_LATENCY = TopologySpec(
    "line", {"n": 5, "unit_latency": False, "latency_range": (5, 20)}
)


def onth_spec(metrics, horizon, sojourn=5, seed=0, **fields):
    return ExperimentSpec(
        topology=LINE5_LATENCY,
        scenario=ScenarioSpec("commuter", {"period": 4, "sojourn": sojourn}),
        policies=(PolicySpec("onth", label="ONTH"),),
        horizon=horizon,
        metrics=metrics,
        seed=seed,
        **fields,
    )


class TestCostRatio:
    def test_basic(self):
        assert cost_ratio(10.0, 5.0) == 2.0

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="non-positive"):
            cost_ratio(10.0, 0.0)

    def test_rejects_negative_denominator(self):
        with pytest.raises(ValueError, match="non-positive"):
            cost_ratio(10.0, -3.0)


class TestCompetitiveRatio:
    """``cost_ratio_vs:reference=OPT`` against the exact offline optimum."""

    def test_ratio_at_least_one(self):
        outcome = run_experiment(onth_spec(
            (MetricSpec("cost_ratio_vs", {"reference": "OPT"}),
             MetricSpec("reference_cost", {"reference": "OPT"})),
            horizon=50, seed=1, costs=CostSpec.paper_default(),
        ))
        ratio, opt_cost = outcome.series["ONTH"], outcome.series["OPT"]
        assert ratio >= 1.0 - 1e-9
        assert outcome.total_costs["ONTH"] == pytest.approx(ratio * opt_cost)

    def test_default_cost_model(self):
        outcome = run_experiment(onth_spec(
            (MetricSpec("cost_ratio_vs", {"reference": "OPT"}),),
            horizon=30, seed=2,
        ))
        assert outcome.series["ONTH"] >= 1.0 - 1e-9


class TestMeanStderr:
    def test_single_value(self):
        out = mean_stderr([4.0])
        assert out.mean == 4.0 and out.stderr == 0.0 and out.n == 1

    def test_known_values(self):
        out = mean_stderr([1.0, 2.0, 3.0])
        assert out.mean == pytest.approx(2.0)
        assert out.stderr == pytest.approx(1.0 / np.sqrt(3))
        assert out.n == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mean_stderr([])

    def test_str_format(self):
        assert "±" in str(mean_stderr([1.0, 3.0]))


class TestRunAggregation:
    """A sweep point averages its replicates' ``total_cost`` and
    ``cost_breakdown`` metrics component by component."""

    METRICS = (MetricSpec("total_cost"), MetricSpec("cost_breakdown"))

    def sweep_and_samples(self):
        spec = SweepSpec(
            experiment=onth_spec(self.METRICS, horizon=20, sojourn=3),
            runs=3, seed=0,
        )
        samples = [
            run_replicate(spec.experiment, np.random.default_rng(task.seed))
            for task in spawn_tasks(spec.values, spec.runs, spec.seed)
        ]
        return run_sweep(spec), samples

    def test_average_total(self):
        result, samples = self.sweep_and_samples()
        stat = mean_stderr([sample["ONTH"] for sample in samples])
        assert stat.n == 3
        assert result.y("ONTH") == (stat.mean,)
        assert result.errors["ONTH"] == (stat.stderr,)

    def test_average_breakdown_components(self):
        result, samples = self.sweep_and_samples()
        assert result.y("access")[0] == pytest.approx(
            np.mean([sample["access"] for sample in samples])
        )
        parts = ("access", "running", "migration", "creation")
        assert sum(result.y(part)[0] for part in parts) == pytest.approx(
            result.y("ONTH")[0]
        )

    def test_average_breakdown_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            aggregate_point_summaries("f", "t", "x", [1], [[]], ci_level=0.95)
