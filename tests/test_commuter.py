"""Tests for the commuter scenario (repro.workload.commuter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.generators import erdos_renyi, line
from repro.workload.base import generate_trace
from repro.workload.commuter import CommuterScenario, default_period_for


class TestDefaultPeriod:
    def test_paper_caption_triples(self):
        """T(n) must reproduce the caption pairs of Figures 1, 2 and 8."""
        assert default_period_for(1000) == 14
        assert default_period_for(500) == 12
        assert default_period_for(200) == 10

    def test_clamped_for_tiny_networks(self):
        assert default_period_for(2) == 2
        assert default_period_for(5) == 2

    def test_always_even(self):
        for n in (10, 33, 100, 999):
            assert default_period_for(n) % 2 == 0


class TestStructure:
    def make(self, sub=None, **kwargs):
        sub = sub if sub is not None else line(64, seed=0)
        defaults = dict(period=8, sojourn=3, dynamic_load=True)
        defaults.update(kwargs)
        return CommuterScenario(sub, **defaults)

    def test_fanout_rises_then_falls(self):
        scenario = self.make()
        steps = [scenario.fanout_step(t * 3) for t in range(8)]
        assert steps == [0, 1, 2, 3, 4, 3, 2, 1]

    def test_sojourn_holds_phase(self):
        scenario = self.make()
        assert scenario.fanout_step(0) == scenario.fanout_step(2)
        assert scenario.fanout_step(3) == 1

    def test_day_wraps(self):
        scenario = self.make()
        assert scenario.fanout_step(scenario.day_length) == 0

    def test_peak_values(self):
        scenario = self.make()
        assert scenario.peak_demand == 16
        assert scenario.peak_access_points == 16
        assert scenario.day_length == 24

    def test_dynamic_volume_follows_fanout(self):
        trace = generate_trace(self.make(), 24, seed=0)
        assert trace[0].size == 1
        assert trace[12].size == 16  # phase 4 = midday

    def test_static_volume_constant(self):
        trace = generate_trace(self.make(dynamic_load=False), 24, seed=0)
        for t in (0, 3, 12, 21):
            assert trace[t].size == 16

    def test_rejects_odd_period(self):
        with pytest.raises(ValueError, match="even"):
            self.make(period=5)

    def test_default_period_from_size(self):
        sub = erdos_renyi(200, seed=0)
        scenario = CommuterScenario(sub)
        assert scenario.period == 10


class TestGeneratedTraces:
    def test_dynamic_round_sizes(self):
        sub = line(64, seed=0)
        scenario = CommuterScenario(sub, period=8, sojourn=1, dynamic_load=True)
        trace = generate_trace(scenario, 8, seed=1)
        sizes = [r.size for r in trace]
        assert sizes == [1, 2, 4, 8, 16, 8, 4, 2]

    def test_static_round_sizes_constant(self):
        sub = line(64, seed=0)
        scenario = CommuterScenario(sub, period=8, sojourn=1, dynamic_load=False)
        trace = generate_trace(scenario, 8, seed=1)
        assert all(r.size == 16 for r in trace)

    def test_static_split_is_even_below_saturation(self):
        sub = line(64, seed=0)
        scenario = CommuterScenario(sub, period=8, sojourn=1, dynamic_load=False)
        trace = generate_trace(scenario, 8, seed=1)
        round2 = trace[2]  # 4 access points, 16 requests
        values, counts = np.unique(round2, return_counts=True)
        assert values.size == 4
        np.testing.assert_array_equal(counts, [4, 4, 4, 4])

    def test_first_round_is_the_center(self):
        sub = line(9, seed=0)
        scenario = CommuterScenario(sub, period=4, sojourn=1, dynamic_load=True)
        trace = generate_trace(scenario, 1, seed=0)
        assert trace[0].tolist() == [sub.center]

    def test_points_expand_around_center(self):
        sub = line(33, seed=0)
        scenario = CommuterScenario(sub, period=6, sojourn=1, dynamic_load=True)
        trace = generate_trace(scenario, 4, seed=0)
        center = sub.center
        for requests in trace:
            max_dist = max(sub.distance(center, int(a)) for a in requests)
            # 2^s closest nodes to the center on a path: within distance 2^(s-1)+1
            assert max_dist <= requests.size  # loose monotone envelope

    def test_prefix_nesting(self):
        """The access points of phase s are a subset of phase s+1's."""
        sub = line(33, seed=0)
        scenario = CommuterScenario(sub, period=6, sojourn=1, dynamic_load=True)
        trace = generate_trace(scenario, 4, seed=3)
        for a, b in zip(trace, list(trace)[1:]):
            assert set(a.tolist()) <= set(b.tolist())

    def test_saturation_on_small_substrate(self):
        """2^(T/2) > n: all access points used, volume preserved (static)."""
        sub = line(5, seed=0)
        scenario = CommuterScenario(sub, period=8, sojourn=1, dynamic_load=False)
        trace = generate_trace(scenario, 8, seed=0)
        midday = trace[4]
        assert midday.size == 16  # volume kept
        assert np.unique(midday).size == 5  # all nodes in play

    def test_saturation_dynamic_caps_volume(self):
        sub = line(5, seed=0)
        scenario = CommuterScenario(sub, period=8, sojourn=1, dynamic_load=True)
        trace = generate_trace(scenario, 8, seed=0)
        assert trace[4].size == 5

    def test_same_each_day(self):
        sub = line(64, seed=0)
        scenario = CommuterScenario(sub, period=4, sojourn=2, dynamic_load=True)
        trace = generate_trace(scenario, 16, seed=2)
        day = scenario.day_length
        for t in range(8):
            np.testing.assert_array_equal(trace[t], trace[t + day])

    def test_metadata(self):
        sub = line(16, seed=0)
        scenario = CommuterScenario(sub, period=4, sojourn=2, dynamic_load=False)
        trace = generate_trace(scenario, 5, seed=0)
        assert trace.metadata["scenario"] == "commuter"
        assert trace.metadata["dynamic_load"] is False
        assert trace.metadata["period"] == 4


@settings(max_examples=20, deadline=None)
@given(
    period=st.integers(1, 5).map(lambda k: 2 * k),
    sojourn=st.integers(1, 4),
    seed=st.integers(0, 50),
)
def test_static_volume_invariant(period, sojourn, seed):
    """Static load: every round carries exactly 2^(T/2) requests."""
    sub = line(40, seed=0)
    scenario = CommuterScenario(
        sub, period=period, sojourn=sojourn, dynamic_load=False
    )
    trace = generate_trace(scenario, 3 * scenario.day_length, seed=seed)
    expected = 1 << (period // 2)
    assert all(r.size == expected for r in trace)
