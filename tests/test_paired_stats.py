"""Property tests for the paired-comparison estimators (repro.analysis.stats).

Paired comparisons are the statistical core of the policy-vs-policy layer:
the per-replicate difference/ratio over common random numbers is what the
paper's *relative* claims rest on. Pinned here: paired/marginal agreement
on shifted data, the variance-reduction property on correlated samples,
pair-permutation invariance, the null/decisive semantics of
:class:`ComparisonSummary`, and the loud rejection of empty (n=0 after
alignment), misaligned and zero-baseline paired sets that previously had
no guard at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    COMPARISON_MODES,
    ComparisonSummary,
    ConfidenceInterval,
    confidence_interval,
    paired_summary,
)


def paired_difference_interval(contrast, baseline, **options):
    """The paired-difference CI: ``paired_summary(mode="diff").ci``."""
    return paired_summary(contrast, baseline, mode="diff", **options).ci


def paired_ratio_interval(contrast, baseline, **options):
    """The paired-ratio CI: ``paired_summary(mode="ratio").ci``."""
    return paired_summary(contrast, baseline, mode="ratio", **options).ci

#: Paired samples: two equal-length, well-scaled finite vectors.
_pairs = st.integers(2, 25).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32),
                 min_size=n, max_size=n),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=32),
                 min_size=n, max_size=n),
    )
)
_levels = st.floats(0.01, 0.999, allow_nan=False)


class TestPairedDifferenceInterval:
    @settings(max_examples=60, deadline=None)
    @given(pair=_pairs, level=_levels)
    def test_equals_interval_of_the_differences(self, pair, level):
        a, b = pair
        diffs = [x - y for x, y in zip(a, b)]
        assert paired_difference_interval(a, b, level=level) == \
            confidence_interval(diffs, level=level)

    @settings(max_examples=60, deadline=None)
    @given(pair=_pairs, level=_levels)
    def test_invariant_under_pair_permutation(self, pair, level):
        """Permuting the *pairs* (same shuffle on both sides) changes nothing."""
        a, b = pair
        order = np.random.default_rng(0).permutation(len(a))
        shuffled = paired_difference_interval(
            [a[i] for i in order], [b[i] for i in order],
            level=level, method="bootstrap",
        )
        assert shuffled == paired_difference_interval(
            a, b, level=level, method="bootstrap"
        )

    def test_identical_series_degenerate_at_zero(self):
        ci = paired_difference_interval([3.0, 7.0, 1.5], [3.0, 7.0, 1.5])
        assert ci.low == ci.high == 0.0

    def test_paired_tighter_than_marginal_on_correlated_samples(self):
        """The CRN win: shared noise cancels out of the paired interval."""
        rng = np.random.default_rng(7)
        shared = rng.normal(0.0, 500.0, size=10)      # trace-to-trace noise
        a = 1000.0 + shared + rng.normal(0.0, 1.0, size=10)
        b = 900.0 + shared + rng.normal(0.0, 1.0, size=10)
        paired = paired_difference_interval(a, b)
        marginal_a = confidence_interval(a)
        marginal_b = confidence_interval(b)
        assert paired.halfwidth < marginal_a.halfwidth / 10
        assert paired.halfwidth < marginal_b.halfwidth / 10
        # and the ordering is settled even though the marginals overlap
        assert paired.low > 0
        assert marginal_a.low < marginal_b.high

    def test_single_pair_degenerates(self):
        ci = paired_difference_interval([5.0], [3.0])
        assert ci.low == ci.high == 2.0


class TestPairedRatioInterval:
    def test_equals_interval_of_the_ratios(self):
        a, b = [2.0, 4.5, 9.0], [1.0, 3.0, 4.0]
        ratios = [x / y for x, y in zip(a, b)]
        assert paired_ratio_interval(a, b) == confidence_interval(ratios)

    def test_identical_series_degenerate_at_one(self):
        ci = paired_ratio_interval([3.0, 7.0], [3.0, 7.0])
        assert ci.low == ci.high == 1.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="zero baseline"):
            paired_ratio_interval([1.0, 2.0], [1.0, 0.0])


class TestPairedAlignmentGuards:
    """Empty and misaligned paired sets fail loudly, never as nan columns."""

    @pytest.mark.parametrize("fn", [
        paired_difference_interval, paired_ratio_interval, paired_summary,
    ])
    def test_empty_paired_set_rejected(self, fn):
        with pytest.raises(ValueError, match="at least one aligned pair"):
            fn([], [])

    @pytest.mark.parametrize("fn", [
        paired_difference_interval, paired_ratio_interval, paired_summary,
    ])
    def test_misaligned_lengths_rejected(self, fn):
        with pytest.raises(ValueError, match="aligned replicates"):
            fn([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            paired_difference_interval([1.0, float("nan")], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            paired_summary([1.0, 2.0], [1.0, float("inf")])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="comparison mode"):
            paired_summary([1.0], [1.0], mode="quotient")


class TestComparisonSummary:
    def summary(self, a, b, mode="diff", level=0.95):
        return paired_summary(a, b, mode=mode, level=level)

    def test_null_by_mode(self):
        assert self.summary([1.0, 2.0], [1.0, 1.0]).null == 0.0
        assert self.summary([1.0, 2.0], [1.0, 1.0], mode="ratio").null == 1.0
        assert COMPARISON_MODES == ("diff", "ratio")

    def test_decisive_iff_ci_excludes_the_null(self):
        clearly_above = self.summary([10.0, 10.1, 9.9], [1.0, 1.1, 0.9])
        assert clearly_above.decisive
        noisy = self.summary([10.0, -10.0], [1.0, 1.0])
        assert not noisy.decisive

    def test_meets_mirrors_point_summary_semantics(self):
        s = self.summary([5.0, 5.2, 4.8], [1.0, 1.0, 1.0])
        assert s.meets(1e9)
        assert not s.meets(0.0)
        assert s.meets(s.halfwidth / abs(s.mean) + 1e-12, relative=True)
        with pytest.raises(ValueError, match="target halfwidth"):
            s.meets(-1.0)

    def test_single_pair_never_meets_a_positive_target(self):
        s = paired_summary([5.0], [3.0])
        assert s.n == 1 and s.halfwidth == 0.0
        assert not s.meets(100.0)
        assert s.meets(0.0)

    def test_relative_halfwidth_of_zero_mean(self):
        exact_zero = self.summary([1.0, 2.0], [1.0, 2.0])
        assert exact_zero.relative_halfwidth() == 0.0
        spread = ComparisonSummary(
            mode="diff", mean=0.0, stderr=1.0, n=3,
            ci=ConfidenceInterval(-2.0, 2.0, 0.95),
        )
        assert spread.relative_halfwidth() == math.inf

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="comparison mode"):
            ComparisonSummary(
                mode="delta", mean=0.0, stderr=0.0, n=2,
                ci=ConfidenceInterval(0.0, 0.0, 0.95),
            )

    @settings(max_examples=40, deadline=None)
    @given(pair=_pairs)
    def test_mean_is_the_mean_of_the_paired_values(self, pair):
        a, b = pair
        s = paired_summary(a, b)
        assert s.n == len(a)
        assert s.mean == pytest.approx(
            float(np.mean([x - y for x, y in zip(a, b)])), rel=1e-12, abs=1e-9
        )
        assert s.ci.low <= s.mean <= s.ci.high
