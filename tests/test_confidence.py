"""Property tests for the confidence estimators (repro.analysis.stats).

The adaptive replication loop trusts these estimators to decide where
simulation time goes, so their invariants are pinned here on hypothesis-
randomised samples: interval/mean containment, ~1/√n halfwidth shrinkage,
the ``level=0`` degenerate interval, bootstrap permutation invariance and
determinism, and the loud rejection of non-finite samples that previously
averaged silently into ``nan`` figures.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    ConfidenceInterval,
    PointSummary,
    confidence_interval,
    mean_stderr,
    point_summary,
    t_critical,
)

#: Finite, well-scaled samples (extreme magnitudes would only test float
#: rounding, not the estimators).
_samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32),
    min_size=2,
    max_size=30,
)
_levels = st.floats(0.01, 0.999, allow_nan=False)


class TestTCritical:
    def test_matches_normal_quantile_for_large_dof(self):
        assert t_critical(0.95, 10_000) == pytest.approx(1.9602, abs=1e-3)

    def test_exceeds_normal_quantile_for_small_dof(self):
        assert t_critical(0.95, 2) > 1.96

    def test_level_zero_degenerates(self):
        assert t_critical(0.0, 4) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="level"):
            t_critical(1.0, 4)
        with pytest.raises(ValueError, match="degrees of freedom"):
            t_critical(0.95, 0)

    def test_equals_scipy_stats_on_a_grid(self):
        """``stdtrit`` gives ``scipy.stats.t.ppf``'s quantile bit for bit."""
        from scipy.stats import t

        for level in (0.01, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999):
            for dof in (1, 2, 3, 5, 9, 19, 29, 99, 299, 10_000):
                expected = float(t.ppf(0.5 + level / 2.0, dof))
                assert t_critical(level, dof).hex() == expected.hex()


class TestBootstrapQuantiles:
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normal_quantiles_equal_scipy_stats(self, monkeypatch, level, seed):
        """Every ``ndtri``/``ndtr`` value the BCa interval uses equals
        ``scipy.stats.norm.ppf``/``norm.cdf`` at the same point, bit for
        bit, so the interval is the one scipy.stats would give."""
        import scipy.special
        from scipy.special import ndtr, ndtri
        from scipy.stats import norm

        calls = []

        def recording(function, reference):
            def wrapped(x):
                calls.append((function, reference, x))
                return function(x)
            return wrapped

        monkeypatch.setattr(scipy.special, "ndtri", recording(ndtri, norm.ppf))
        monkeypatch.setattr(scipy.special, "ndtr", recording(ndtr, norm.cdf))
        values = np.random.default_rng(seed).lognormal(size=12).tolist()
        confidence_interval(values, level, "bootstrap", n_boot=300)
        monkeypatch.undo()
        assert len(calls) == 4
        for function, reference, x in calls:
            assert float(function(x)).hex() == float(reference(x)).hex()

    def test_normal_quantiles_equal_scipy_stats_on_a_grid(self):
        from scipy.special import ndtr, ndtri
        from scipy.stats import norm

        rng = np.random.default_rng(0)
        probabilities = rng.random(2000)
        abscissae = rng.normal(scale=4.0, size=2000)
        assert ndtri(probabilities).tobytes() == norm.ppf(probabilities).tobytes()
        assert ndtr(abscissae).tobytes() == norm.cdf(abscissae).tobytes()


class TestConfidenceIntervalProperties:
    @settings(max_examples=60)
    @given(values=_samples, level=_levels)
    def test_t_interval_contains_the_mean(self, values, level):
        ci = confidence_interval(values, level=level, method="t")
        mean = float(np.mean(values))
        assert ci.low <= mean <= ci.high

    @settings(max_examples=40)
    @given(values=_samples, level=_levels)
    def test_bootstrap_interval_is_ordered_and_within_range(self, values, level):
        ci = confidence_interval(values, level=level, method="bootstrap",
                                 n_boot=200)
        assert ci.low <= ci.high
        # bootstrap means are convex combinations of the samples
        assert min(values) - 1e-9 <= ci.low and ci.high <= max(values) + 1e-9

    @settings(max_examples=40)
    @given(values=_samples)
    def test_level_zero_degenerates_to_the_point_estimate(self, values):
        for method in ("t", "bootstrap"):
            ci = confidence_interval(values, level=0.0, method=method)
            assert ci.low == ci.high == pytest.approx(float(np.mean(values)))
            assert ci.halfwidth == 0.0

    @settings(max_examples=40)
    @given(values=_samples, seed=st.integers(0, 2**31))
    def test_bootstrap_is_permutation_invariant(self, values, seed):
        shuffled = list(values)
        np.random.default_rng(seed).shuffle(shuffled)
        a = confidence_interval(values, method="bootstrap", n_boot=150)
        b = confidence_interval(shuffled, method="bootstrap", n_boot=150)
        assert a == b

    @settings(max_examples=30)
    @given(values=_samples)
    def test_bootstrap_is_deterministic(self, values):
        a = confidence_interval(values, method="bootstrap", n_boot=150)
        b = confidence_interval(values, method="bootstrap", n_boot=150)
        assert a == b

    @settings(max_examples=40)
    @given(
        base=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=3, max_size=8,
        ).filter(lambda vs: float(np.std(vs)) > 1e-6),
        copies=st.integers(2, 6),
    )
    def test_halfwidth_shrinks_like_one_over_sqrt_n(self, base, copies):
        """Replicating a sample k× shrinks the t halfwidth ≈ 1/√k.

        Tiling keeps the sample standard deviation (up to the ddof=1
        correction), so the stderr scales as 1/√(kn) and the t critical
        value only moves toward the (smaller) normal quantile — the
        halfwidth must drop at least as fast as √(k)·(small slack).
        """
        small = confidence_interval(base, method="t")
        large = confidence_interval(base * copies, method="t")
        assert large.halfwidth <= small.halfwidth / math.sqrt(copies) * 1.05

    def test_single_sample_degenerates(self):
        for method in ("t", "bootstrap"):
            ci = confidence_interval([7.5], method=method)
            assert ci.low == ci.high == 7.5

    def test_constant_samples_degenerate(self):
        ci = confidence_interval([3.0, 3.0, 3.0], method="bootstrap")
        assert ci.low == ci.high == 3.0

    def test_rejects_empty_and_bad_arguments(self):
        with pytest.raises(ValueError, match="at least one"):
            confidence_interval([])
        with pytest.raises(ValueError, match="method"):
            confidence_interval([1.0], method="jackknife")
        with pytest.raises(ValueError, match="level"):
            confidence_interval([1.0], level=1.0)
        with pytest.raises(ValueError, match="n_boot"):
            confidence_interval([1.0, 2.0], method="bootstrap", n_boot=0)

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            confidence_interval([1.0, float("nan")])
        with pytest.raises(ValueError, match="finite"):
            confidence_interval([1.0, float("inf")], method="bootstrap")

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            ConfidenceInterval(2.0, 1.0, 0.95)
        with pytest.raises(ValueError, match="method"):
            ConfidenceInterval(1.0, 2.0, 0.95, method="magic")


class TestPointSummary:
    def test_fields_and_halfwidth(self):
        summary = point_summary([10.0, 12.0, 14.0], level=0.95)
        assert summary.n == 3
        assert summary.mean == pytest.approx(12.0)
        assert summary.halfwidth == pytest.approx(
            t_critical(0.95, 2) * summary.stderr
        )

    def test_meets_absolute_and_relative(self):
        summary = point_summary([10.0, 12.0, 14.0])
        assert summary.meets(summary.halfwidth + 1e-9)
        assert not summary.meets(summary.halfwidth / 2)
        assert summary.meets(summary.relative_halfwidth() + 1e-12,
                             relative=True)

    def test_single_sample_never_meets_a_positive_target(self):
        summary = point_summary([5.0])
        assert summary.halfwidth == 0.0
        assert not summary.meets(10.0)
        assert summary.meets(0.0)  # the degenerate target is already exact

    def test_zero_mean_relative_halfwidth(self):
        spread = point_summary([-1.0, 1.0])
        assert spread.relative_halfwidth() == math.inf
        flat = point_summary([0.0, 0.0])
        assert flat.relative_halfwidth() == 0.0

    def test_meets_rejects_negative_target(self):
        with pytest.raises(ValueError, match="target"):
            point_summary([1.0, 2.0]).meets(-0.1)


class TestMeanStderrEdgeCases:
    """The docstring/behaviour contract: loud errors, never silent nan."""

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            mean_stderr([1.0, float("nan"), 3.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            mean_stderr([float("-inf")])

    def test_n0_rejected_n1_degenerate(self):
        with pytest.raises(ValueError, match="at least one"):
            mean_stderr([])
        out = mean_stderr([4.0])
        assert (out.mean, out.stderr, out.n) == (4.0, 0.0, 1)


class TestRunAveragingEdgeCases:
    """n=0 and n=1 across the sweep fold of ``total_cost``/``cost_breakdown``."""

    def _sweep(self, runs):
        from repro.api.specs import (
            ExperimentSpec,
            MetricSpec,
            PolicySpec,
            ScenarioSpec,
            SweepSpec,
            TopologySpec,
        )

        return SweepSpec(
            experiment=ExperimentSpec(
                topology=TopologySpec("line", {"n": 5}),
                scenario=ScenarioSpec("commuter", {"period": 4, "sojourn": 3}),
                policies=(PolicySpec("onth", label="ONTH"),),
                horizon=20,
                metrics=(
                    MetricSpec("total_cost"), MetricSpec("cost_breakdown")
                ),
            ),
            runs=runs,
        )

    def test_average_total_n0_rejected(self):
        from repro.experiments.runner import aggregate_samples

        with pytest.raises(ValueError, match="0 samples for 1 points"):
            aggregate_samples("f", "t", "x", [1], [], runs=1)

    def test_average_breakdown_n0_rejected(self):
        from repro.experiments.runner import aggregate_point_summaries

        with pytest.raises(ValueError, match="has no samples"):
            aggregate_point_summaries("f", "t", "x", [1], [[]], ci_level=0.9)

    def test_n1_is_the_identity(self):
        from repro.api.experiment import run_replicate, run_sweep
        from repro.experiments.runner import spawn_tasks

        spec = self._sweep(runs=1)
        (task,) = spawn_tasks(spec.values, 1, spec.seed)
        rng = np.random.default_rng(task.seed)
        sample = run_replicate(spec.experiment, rng)
        result = run_sweep(spec)
        for name, value in sample.items():
            assert result.y(name) == (value,)
            assert result.errors[name] == (0.0,)
        parts = ("access", "running", "migration", "creation")
        assert sample["ONTH"] == pytest.approx(sum(sample[p] for p in parts))
