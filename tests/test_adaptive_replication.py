"""Adaptive replication: CI-targeted top-ups on the per-point cache.

The contracts pinned here:

* a :class:`ReplicationSpec` without a CI target is bit-identical to the
  plain fixed-``runs`` sweep (golden-pinned for fig03, to the byte with
  ``ci_level=0`` and modulo the additive CI annotations otherwise);
* adaptive top-up seeds extend each point's spawn-offset sequence, so the
  sample at replicate ``(point, j)`` depends only on the sweep seed and
  position — one-shot and incremental top-up schedules, serial, pooled and
  shard-assembled executions all agree bit for bit;
* points stop replicating independently once their CIs meet the target
  (or at ``max_runs``), and a warm cache run simulates nothing;
* point entries written by the replication-unaware code path (PR 3's
  format, no replication metadata) are readable and count toward an
  adaptive target; corrupted sample arrays read as misses.
"""

import json
from pathlib import Path

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import ExecutionBackend, ProcessPoolBackend, SerialBackend
from repro.api.experiment import refine_sweep, run_sweep
from repro.api.specs import (
    ExperimentSpec,
    PolicySpec,
    ReplicationSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments import figures
from repro.experiments.runner import spawn_point_extension_tasks, spawn_tasks

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_figures.json").read_text()
)

#: The golden fig03 parameterisation (see tests/test_sharded_sweeps.py).
FIG03_PARAMS = dict(sizes=(30, 60), horizon=80, sojourn=5, runs=2, seed=2)

#: A CI target loose enough to be reachable, tight enough to vary n.
ADAPTIVE = ReplicationSpec(target_halfwidth=0.15, relative=True, max_runs=8)

#: A target no point can reach: every point must run to max_runs.
UNREACHABLE = ReplicationSpec(
    target_halfwidth=1e-9, max_runs=5, batch=1
)


class CountingBackend(ExecutionBackend):
    """Serial execution recording the size of every scheduled batch."""

    def __init__(self):
        self.batches = []

    def run_replicates(self, replicate, tasks, on_result=None):
        self.batches.append(len(tasks))
        return SerialBackend().run_replicates(replicate, tasks, on_result)

    @property
    def total(self):
        return sum(self.batches)


class HookIgnoringBackend(ExecutionBackend):
    """A third-party-style backend that never drives ``on_result``."""

    def run_replicates(self, replicate, tasks, on_result=None):
        return SerialBackend().run_replicates(replicate, tasks, on_result=None)


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5, 9),
        runs=2,
        seed=1,
        figure="t",
        replication=ADAPTIVE,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestReplicationSpecValidation:
    def test_adaptive_needs_max_runs(self):
        with pytest.raises(ValueError, match="max_runs"):
            ReplicationSpec(target_halfwidth=1.0)

    def test_adaptive_needs_positive_ci_level(self):
        with pytest.raises(ValueError, match="ci_level"):
            ReplicationSpec(target_halfwidth=1.0, max_runs=5, ci_level=0)

    def test_max_runs_below_runs_rejected(self):
        with pytest.raises(ValueError, match="max_runs"):
            ReplicationSpec(runs=6, max_runs=3)

    def test_bad_scalars_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            ReplicationSpec(runs=0)
        with pytest.raises(ValueError, match="batch"):
            ReplicationSpec(batch=0)
        with pytest.raises(ValueError, match="ci_level"):
            ReplicationSpec(ci_level=1.0)
        with pytest.raises(ValueError, match="target_halfwidth"):
            ReplicationSpec(target_halfwidth=-1.0, max_runs=5)
        with pytest.raises(ValueError, match="method"):
            ReplicationSpec(method="magic")

    def test_dict_round_trip_and_unknown_keys(self):
        spec = ReplicationSpec(
            runs=3, max_runs=12, target_halfwidth=0.1, relative=True,
            batch=2, method="bootstrap",
        )
        assert ReplicationSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="max_rnns"):
            ReplicationSpec.from_dict({"max_rnns": 5})

    def test_sweep_spec_coerces_replication_dicts(self):
        spec = small_sweep(replication=ADAPTIVE.to_dict())
        assert spec.replication == ADAPTIVE
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_effective_runs(self):
        assert small_sweep(replication=None).effective_runs == 2
        assert small_sweep(
            replication=ReplicationSpec(runs=7, ci_level=0)
        ).effective_runs == 7

    def test_max_runs_below_initial_runs_surfaces_at_run_time(self):
        spec = small_sweep(
            runs=6,
            replication=ReplicationSpec(target_halfwidth=1.0, max_runs=3),
        )
        with pytest.raises(ValueError, match="max_runs"):
            run_sweep(spec)


class TestFixedReplicationGoldenPinned:
    """ReplicationSpec without a target reproduces the golden figures."""

    def test_ci_level_zero_is_byte_identical(self):
        golden = GOLDEN["fig03"]["result"]
        result = figures.figure03(
            **FIG03_PARAMS, replication=ReplicationSpec(ci_level=0)
        )
        assert result.to_dict() == golden

    def test_annotated_fixed_run_matches_modulo_annotations(self):
        golden = GOLDEN["fig03"]["result"]
        result = figures.figure03(
            **FIG03_PARAMS, replication=ReplicationSpec()
        )
        # every point ran exactly `runs` replicates ...
        assert result.counts == (2, 2)
        assert result.ci_level == 0.95
        # ... and the sample-derived payload is bit-identical: the CI
        # annotations are strictly additive.
        stripped = result.to_dict()
        for key in ("ci", "counts", "ci_level"):
            stripped.pop(key)
        assert stripped == golden

    def test_replication_runs_overrides_sweep_runs_bit_identically(self):
        plain = run_sweep(small_sweep(runs=4, replication=None))
        overridden = run_sweep(
            small_sweep(runs=2, replication=ReplicationSpec(runs=4, ci_level=0))
        )
        assert overridden.to_dict() == plain.to_dict()


class TestAdaptiveStopping:
    def test_points_stop_independently_and_meet_the_target(self):
        result = run_sweep(small_sweep())
        rep = ADAPTIVE
        assert result.has_confidence
        assert all(2 <= n <= rep.max_runs for n in result.counts)
        for summaries in map(result.point_summaries, result.series_names):
            for summary in summaries:
                # a point below the cap must have met the target
                if summary.n < rep.max_runs:
                    assert summary.meets(rep.target_halfwidth, rep.relative)

    def test_per_point_counts_vary(self):
        result = run_sweep(
            small_sweep(values=(2, 5, 9), replication=ReplicationSpec(
                target_halfwidth=0.15, relative=True, max_runs=8,
            ))
        )
        assert len(set(result.counts)) > 1, result.counts

    def test_unreachable_target_runs_every_point_to_max(self):
        result = run_sweep(small_sweep(replication=UNREACHABLE))
        assert result.counts == (5, 5, 5)

    def test_already_met_target_adds_nothing(self):
        generous = ReplicationSpec(target_halfwidth=1e9, max_runs=8)
        result = run_sweep(small_sweep(replication=generous))
        assert result.counts == (2, 2, 2)


class TestAdaptiveDeterminism:
    def test_serial_pool_and_rerun_bit_identical(self):
        spec = small_sweep()
        serial = run_sweep(spec)
        assert run_sweep(spec) == serial
        assert run_sweep(spec, backend=ProcessPoolBackend(2)) == serial

    def test_hook_ignoring_backend_is_backstopped(self, tmp_path):
        """Backends that never call on_result still commit and validate."""
        spec = small_sweep()
        serial = run_sweep(spec)
        cache = ResultCache(tmp_path)
        result = run_sweep(spec, backend=HookIgnoringBackend(), cache=cache)
        assert result == serial
        assert cache.point_stores == 3 and cache.extension_stores > 0

    def test_one_shot_topup_equals_incremental_batches(self):
        """Adaptive in one shot == fixed runs=n_final, rerun from scratch.

        Both sweeps drive every point to the same final count (the target
        is unreachable, so n_final = max_runs): one appends a single
        top-up batch per point, the other re-runs from scratch replicate
        by replicate. Because a top-up replicate's seed depends only on
        the sweep seed and its (point, position) coordinates — the
        extension of the point's spawn-offset sequence — the two
        schedules produce bit-identical samples, series and CIs.
        """
        one_shot = run_sweep(
            small_sweep(replication=ReplicationSpec(
                target_halfwidth=1e-9, max_runs=5, batch=3,
            ))
        )
        incremental = run_sweep(
            small_sweep(replication=ReplicationSpec(
                target_halfwidth=1e-9, max_runs=5, batch=1,
            ))
        )
        assert one_shot.to_dict() == incremental.to_dict()

    def test_extension_seeds_are_positional(self):
        """Top-up task seeds depend only on (sweep seed, point, replicate)."""
        a = spawn_point_extension_tasks("x", 1, 2, 3, seed=9)
        b = spawn_point_extension_tasks("x", 1, 2, 1, seed=9)
        assert a[0].seed.generate_state(4).tolist() == \
            b[0].seed.generate_state(4).tolist()
        flat = spawn_tasks(["x", "y"], 2, seed=9)
        flat_states = [t.seed.generate_state(4).tolist() for t in flat]
        for task in a:
            assert task.seed.generate_state(4).tolist() not in flat_states

    def test_shard_assembly_bit_identical_under_ci_target(self, tmp_path):
        spec = small_sweep()
        serial = run_sweep(spec)
        for index in range(2):
            run_sweep(spec, cache=ResultCache(tmp_path), shard=(index, 2))
        assembler = ResultCache(tmp_path)
        assembled = run_sweep(spec, cache=assembler)
        assert assembled == serial
        assert assembler.point_stores == 0 and assembler.extension_stores == 0

    def test_partial_shard_reports_only_its_finished_points(self, tmp_path):
        spec = small_sweep()
        partial = run_sweep(spec, cache=ResultCache(tmp_path), shard=(1, 2))
        assert partial.x_values == (5,)
        assert "partial" in partial.notes
        assert len(partial.counts) == 1


class TestAdaptiveCaching:
    def test_second_run_simulates_zero_new_replicates(self, tmp_path):
        spec = small_sweep()
        first_cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=first_cache)
        assert first_cache.point_stores == 3
        assert first_cache.extension_stores > 0
        counting = CountingBackend()
        cache = ResultCache(tmp_path)
        second = run_sweep(spec, backend=counting, cache=cache)
        assert second == first
        assert counting.batches == []  # a pure sweep-entry hit
        # even without the sweep entry, the replay touches no simulator
        cache.path_for(spec).unlink()
        replayer = ResultCache(tmp_path)
        replayed = run_sweep(spec, backend=counting, cache=replayer)
        assert replayed == first
        assert counting.batches == []
        assert replayer.extension_hits == first_cache.extension_stores

    def test_pre_replication_point_entries_count_toward_the_target(
        self, tmp_path
    ):
        """Plain point entries (PR-3 format, no replication metadata) seed
        the initial block.

        A replication-unaware sweep writes plain point entries; an
        adaptive run under the same code must load them for its initial
        blocks — identical spec, seed and spawn offsets — and simulate
        only the top-ups.
        """
        plain = small_sweep(replication=None)
        warmer = ResultCache(tmp_path)
        run_sweep(plain, cache=warmer)
        assert warmer.point_stores == 3

        counting = CountingBackend()
        cache = ResultCache(tmp_path)
        result = run_sweep(small_sweep(), backend=counting, cache=cache)
        assert cache.point_hits == 3  # all initial blocks came from PR-3 entries
        # only top-up batches were scheduled: nothing of size runs*points
        expected_topups = sum(n - plain.runs for n in result.counts)
        assert counting.total == expected_topups > 0

    def test_adaptive_entries_warm_a_larger_target(self, tmp_path):
        """Raising max_runs reuses every stored batch and only extends."""
        run_sweep(small_sweep(replication=UNREACHABLE),
                  cache=ResultCache(tmp_path))
        counting = CountingBackend()
        cache = ResultCache(tmp_path)
        bigger = run_sweep(
            small_sweep(replication=ReplicationSpec(
                target_halfwidth=1e-9, max_runs=7, batch=1,
            )),
            backend=counting,
            cache=cache,
        )
        assert bigger.counts == (7, 7, 7)
        assert cache.point_hits == 3
        assert counting.total == 3 * 2  # two extra replicates per point

    def test_extension_entry_round_trip_and_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        experiment = spec.experiment_at(spec.values[0])
        samples = [{"ONTH": 1.5}, {"ONTH": 2.5}]
        cache.store_point_extension(experiment, 1, 0, 2, 2, samples)
        assert cache.load_point_extension(experiment, 1, 0, 2, 2) == samples
        # any shifted coordinate is a different batch: a miss
        assert cache.load_point_extension(experiment, 1, 0, 3, 2) is None
        assert cache.load_point_extension(experiment, 1, 1, 2, 2) is None
        assert cache.load_point_extension(experiment, 2, 0, 2, 2) is None

    def test_corrupt_sample_arrays_are_misses(self, tmp_path):
        """Regression: malformed or non-finite sample blocks never load."""
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        experiment = spec.experiment_at(spec.values[0])
        good = [{"ONTH": 1.0}, {"ONTH": 2.0}]
        path = cache.store_point(experiment, 1, 0, 2, good)
        for bad in (
            "not-a-list",
            [{"ONTH": 1.0}],                      # wrong replicate count
            [{"ONTH": 1.0}, {"ONTH": "a"}],       # non-numeric value
            [{"ONTH": 1.0}, ["ONTH", 2.0]],       # not a mapping
            [{"ONTH": 1.0}, {"ONTH": float("nan")}],
            [{"ONTH": 1.0}, {"ONTH": float("inf")}],
        ):
            data = json.loads(path.read_text())
            data["samples"] = bad
            path.write_text(json.dumps(data, default=str))
            assert cache.load_point(experiment, 1, 0, 2) is None, bad
        # the extension reader shares the decoder
        ext = cache.store_point_extension(experiment, 1, 0, 2, 2, good)
        data = json.loads(ext.read_text())
        data["samples"][1]["ONTH"] = float("nan")
        ext.write_text(json.dumps(data))
        assert cache.load_point_extension(experiment, 1, 0, 2, 2) is None

    def test_no_cache_adaptive_still_works(self):
        result = run_sweep(small_sweep(replication=UNREACHABLE), cache=None)
        assert result.counts == (5, 5, 5)


class TestRefineSweep:
    def two_series_sweep(self, **overrides):
        defaults = dict(
            experiment=ExperimentSpec(
                topology=TopologySpec("erdos_renyi", {"n": 30}),
                scenario=ScenarioSpec("commuter", {"period": 4}),
                policies=(
                    PolicySpec("onth", label="ONTH"),
                    PolicySpec("onbr", label="ONBR"),
                ),
                horizon=30,
            ),
            values=(2, 9),
            runs=3,
            replication=ReplicationSpec(),
        )
        defaults.update(overrides)
        return small_sweep(**defaults)

    def test_refinement_bisects_and_simulates_only_new_points(self, tmp_path):
        spec = self.two_series_sweep()
        cache = ResultCache(tmp_path)
        base = run_sweep(spec, cache=cache)
        counting = CountingBackend()
        refined_spec, refined = refine_sweep(
            spec, base, backend=counting, cache=cache, rounds=1,
        )
        new = set(refined_spec.values) - set(spec.values)
        assert new, "overlapping CIs at this scale must trigger a bisection"
        # appended, never reordered: prefix indices (hence seeds) are stable
        assert refined_spec.values[: len(spec.values)] == spec.values
        assert counting.total == len(new) * spec.runs
        # the result is presented in ascending x order
        assert refined.x_values == tuple(sorted(refined_spec.values))
        # original points kept their values bit for bit
        for name in base.series_names:
            for i, x in enumerate(base.x_values):
                j = refined.x_values.index(x)
                assert refined.series[name][j] == base.series[name][i]

    def test_settled_orderings_refine_nothing(self):
        spec = self.two_series_sweep()
        base = run_sweep(spec)
        # grow the CIs' denominators: a huge level-0 degenerate interval
        # cannot be built, so instead feed a result whose intervals are
        # forced tiny by rewriting ci to zero-width bands at the means.
        from dataclasses import replace

        settled = replace(
            base,
            ci={
                name: tuple((m, m) for m in base.series[name])
                for name in base.series_names
            },
        )
        # push the two series far apart so orderings are separated
        settled = replace(
            settled,
            series={
                "ONTH": base.series["ONTH"],
                "ONBR": tuple(v * 10 for v in base.series["ONBR"]),
            },
        )
        refined_spec, refined = refine_sweep(spec, settled)
        assert refined_spec.values == spec.values
        assert refined.x_values == tuple(sorted(spec.values))

    def test_single_series_has_no_orderings(self):
        spec = small_sweep(values=(2, 9), replication=ReplicationSpec())
        refined_spec, _ = refine_sweep(spec, run_sweep(spec))
        assert refined_spec.values == spec.values

    def test_integer_axis_bisects_to_integers(self, tmp_path):
        spec = self.two_series_sweep()
        refined_spec, _ = refine_sweep(spec, run_sweep(spec))
        assert all(isinstance(v, int) for v in refined_spec.values)

    def test_rounds_and_budget_are_respected(self):
        spec = self.two_series_sweep()
        refined_spec, _ = refine_sweep(
            spec, run_sweep(spec), rounds=3, max_new_points=2,
        )
        assert len(refined_spec.values) <= len(spec.values) + 2

    def test_plain_sweeps_refine_via_t_fallback(self, tmp_path):
        spec = self.two_series_sweep(replication=None)
        cache = ResultCache(tmp_path)
        base = run_sweep(spec, cache=cache)
        assert not base.has_confidence
        refined_spec, refined = refine_sweep(spec, base, cache=cache)
        assert set(refined_spec.values) >= set(spec.values)

    def test_rejects_unbisectable_sweeps(self):
        with pytest.raises(ValueError, match="single swept parameter"):
            refine_sweep(small_sweep(parameter=None, values=("total cost",)))
        coupled = small_sweep(
            parameter=("topology.n", "scenario.sojourn"),
            values=((30, 2), (40, 5)),
        )
        with pytest.raises(ValueError, match="single swept parameter"):
            refine_sweep(coupled)
        with pytest.raises(ValueError, match="numeric axis"):
            refine_sweep(small_sweep(values=(True, False)))
        with pytest.raises(ValueError, match="rounds"):
            refine_sweep(small_sweep(), rounds=0)
        with pytest.raises(ValueError, match="max_new_points"):
            refine_sweep(small_sweep(), max_new_points=0)

    def test_rejects_partial_results(self, tmp_path):
        spec = small_sweep()
        partial = run_sweep(spec, cache=ResultCache(tmp_path), shard=(1, 2))
        with pytest.raises(ValueError, match="complete"):
            refine_sweep(spec, partial)

    def test_rejects_results_off_the_spec_grid(self):
        """The structural check, not a notes sniff: foreign x values fail."""
        spec = self.two_series_sweep()
        other = run_sweep(self.two_series_sweep(values=(2, 5, 9)))
        with pytest.raises(ValueError, match="does not belong"):
            refine_sweep(spec, other)

    def test_rejects_results_from_different_policies(self):
        spec = self.two_series_sweep()
        foreign = self.two_series_sweep(
            experiment=ExperimentSpec(
                topology=TopologySpec("erdos_renyi", {"n": 30}),
                scenario=ScenarioSpec("commuter", {"period": 4}),
                policies=(
                    PolicySpec("onth", label="ONTH"),
                    PolicySpec("offstat", label="OFFSTAT"),
                ),
                horizon=30,
            ),
        )
        with pytest.raises(ValueError, match="policy labels"):
            refine_sweep(spec, run_sweep(foreign))

    def test_min_spacing_guards_every_grid_value(self, tmp_path):
        """A midpoint near *any* existing point is skipped, not just the
        interval's own endpoints (integer bisection floors, so the midpoint
        of (1, 4) lands at distance 1 from the left endpoint)."""
        from dataclasses import replace

        spec = self.two_series_sweep(values=(1, 4))
        base = run_sweep(spec)
        wide = replace(
            base,
            ci={
                name: tuple((v - 1e6, v + 1e6) for v in base.series[name])
                for name in base.series_names
            },
        )
        bisected, _ = refine_sweep(spec, wide)
        assert bisected.values == (1, 4, 2)
        guarded, _ = refine_sweep(spec, wide, min_spacing=1)
        assert guarded.values == spec.values

    def test_refinement_needs_interval_estimates(self):
        spec = self.two_series_sweep(replication=None, runs=1)
        with pytest.raises(ValueError, match="runs >= 2"):
            refine_sweep(spec, run_sweep(spec))
