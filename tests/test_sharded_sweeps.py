"""Resumable + sharded sweep execution (the per-point cache path).

The contract: serial, process-pool and shard-then-assemble execution of
one spec are bit-identical — pinned here against the golden regression
data, so the per-point cache cannot drift from the pre-cache results —
and a sweep interrupted or invalidated for a subset of points re-runs
only the missing points.
"""

import json
from pathlib import Path

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import ExecutionBackend, ProcessPoolBackend, SerialBackend
from repro.api.experiment import run_sweep
from repro.api.specs import (
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments import figures

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_figures.json").read_text()
)

#: The golden fig03 parameterisation (tuples where JSON stored lists).
FIG03_PARAMS = dict(sizes=(30, 60), horizon=80, sojourn=5, runs=2, seed=2)


class CountingBackend(ExecutionBackend):
    """Serial execution that records how many tasks each batch scheduled."""

    def __init__(self):
        self.batches = []

    def run_replicates(self, replicate, tasks, on_result=None):
        self.batches.append(len(tasks))
        return SerialBackend().run_replicates(replicate, tasks, on_result)


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
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestGoldenFigureAcrossExecutionModes:
    """Acceptance: serial == pool == 2-shard-then-assemble on golden fig03."""

    def test_serial_pool_and_sharded_assembly_bit_identical(self, tmp_path):
        golden = GOLDEN["fig03"]["result"]
        serial = figures.figure03(**FIG03_PARAMS)
        assert serial.to_dict() == golden

        pool = figures.figure03(**FIG03_PARAMS, backend=ProcessPoolBackend(2))
        assert pool == serial

        for index in range(2):
            last = figures.figure03(
                **FIG03_PARAMS, cache=ResultCache(tmp_path), shard=(index, 2)
            )
        # the second shard found the cache complete and assembled in full
        assert last == serial

        assembler = ResultCache(tmp_path)
        assembled = figures.figure03(**FIG03_PARAMS, cache=assembler)
        assert assembled.to_dict() == golden
        assert assembler.hits == 1  # a pure cache read, nothing simulated


class TestResume:
    def test_interrupted_sweep_recomputes_only_missing_points(self, tmp_path):
        spec = small_sweep()
        # "Interrupt" after one shard's worth of points.
        run_sweep(spec, cache=ResultCache(tmp_path), shard=(0, 2))
        counting = CountingBackend()
        cache = ResultCache(tmp_path)
        resumed = run_sweep(spec, backend=counting, cache=cache)
        # points 0 and 2 were cached by the shard; only point 1 runs
        assert counting.batches == [spec.runs]
        assert cache.point_hits == 2 and cache.point_stores == 1
        assert resumed == run_sweep(spec)

    def test_invalidated_point_recomputes_alone(self, tmp_path):
        spec = small_sweep()
        first_cache = ResultCache(tmp_path)
        baseline = run_sweep(spec, cache=first_cache)
        # Invalidate the middle point (and the sweep entry that would
        # otherwise short-circuit the probe).
        point = spec.experiment_at(spec.values[1])
        key = first_cache.key_for_point(point, spec.seed, spec.runs, spec.runs)
        first_cache.path_for_key(key).unlink()
        first_cache.path_for(spec).unlink()

        counting = CountingBackend()
        cache = ResultCache(tmp_path)
        again = run_sweep(spec, backend=counting, cache=cache)
        assert counting.batches == [spec.runs]
        assert cache.point_hits == 2
        assert again == baseline

    def test_grid_extended_at_the_tail_reuses_prefix_points(self, tmp_path):
        spec = small_sweep(values=(2, 5))
        run_sweep(spec, cache=ResultCache(tmp_path))
        extended = small_sweep(values=(2, 5, 9))
        counting = CountingBackend()
        cache = ResultCache(tmp_path)
        result = run_sweep(extended, backend=counting, cache=cache)
        # the two common points share keys with the shorter sweep's entries
        assert counting.batches == [extended.runs]
        assert cache.point_hits == 2
        assert result == run_sweep(extended)


class TestShardSemantics:
    def test_shard_needs_a_cache(self):
        with pytest.raises(ValueError, match="shared cache"):
            run_sweep(small_sweep(), shard=(0, 2))

    @pytest.mark.parametrize("shard", [(2, 2), (-1, 2), (0, 0), ("a", 2), (1,)])
    def test_invalid_shards_are_rejected(self, shard):
        with pytest.raises(ValueError, match="shard"):
            run_sweep(small_sweep(), shard=shard)

    def test_single_shard_is_an_unsharded_run(self, tmp_path):
        # (0, 1) normalises away entirely — no cache requirement.
        assert run_sweep(small_sweep(), shard=(0, 1)) == run_sweep(small_sweep())

    def test_partial_shard_returns_its_points_only(self, tmp_path):
        spec = small_sweep()
        cache = ResultCache(tmp_path)
        partial = run_sweep(spec, cache=cache, shard=(1, 2))
        assert partial.x_values == (5,)  # point index 1 of (2, 5, 9)
        assert "partial" in partial.notes and "shard 2/2" in partial.notes
        # no sweep-level entry was stored for a partial result
        assert cache.stores == 0
        serial = run_sweep(spec)
        assert partial.series == {
            name: (serial.series[name][1],) for name in serial.series_names
        }

    def test_shards_cover_all_points_disjointly(self, tmp_path):
        spec = small_sweep(values=(2, 4, 6, 8, 10))
        serial = run_sweep(spec)
        for index in range(3):
            counting = CountingBackend()
            cache = ResultCache(tmp_path)
            run_sweep(spec, backend=counting, cache=cache, shard=(index, 3))
            # every shard computed only its own points, never a neighbour's
            expected = len(range(index, len(spec.values), 3)) * spec.runs
            assert counting.batches == [expected]
        cache = ResultCache(tmp_path)
        assert run_sweep(cache=cache, spec=spec) == serial

    def test_coupled_sweep_shards_keep_display_x(self, tmp_path):
        spec = small_sweep(
            parameter=("topology.n", "scenario.sojourn"),
            values=((30, 2), (40, 5)),
        )
        serial = run_sweep(spec)
        assert serial.x_values == (30, 40)
        partial = run_sweep(spec, cache=ResultCache(tmp_path), shard=(1, 2))
        assert partial.x_values == (40,)
        full = run_sweep(spec, cache=ResultCache(tmp_path))
        assert full == serial
