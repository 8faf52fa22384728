"""Tests for the spec-keyed result cache (repro.api.cache)."""

import json

import pytest

from repro.api.cache import ResultCache
from repro.api.execution import ExecutionBackend
from repro.api.experiment import run_sweep
from repro.api.specs import (
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 30}),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(PolicySpec("onth", label="ONTH"),),
            horizon=30,
        ),
        parameter="scenario.sojourn",
        values=(2, 5),
        runs=2,
        seed=1,
        figure="t",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


#: Both replicate-unit entry kinds at sweep seed 1, as the ``ResultCache``
#: method suffix and the coordinates between the sweep seed and ``runs``:
#: a point entry at spawn offset 0 and a top-up of point 3 from position 2.
UNIT_KINDS = {
    "point": ("point", (0,)),
    "point-extension": ("point_extension", (3, 2)),
}


def store_unit(cache, kind, experiment, samples):
    suffix, coordinates = UNIT_KINDS[kind]
    store = getattr(cache, f"store_{suffix}")
    return store(experiment, 1, *coordinates, len(samples), samples)


def load_unit(cache, kind, experiment, runs):
    suffix, coordinates = UNIT_KINDS[kind]
    return getattr(cache, f"load_{suffix}")(experiment, 1, *coordinates, runs)


def unit_path(cache, kind, experiment, runs):
    suffix, coordinates = UNIT_KINDS[kind]
    key = getattr(cache, f"key_for_{suffix}")(experiment, 1, *coordinates, runs)
    return cache.path_for_key(key)


class ExplodingBackend(ExecutionBackend):
    """Proof that a cache hit never re-simulates."""

    def run_replicates(self, replicate, tasks, on_result=None):
        raise AssertionError("cache hit should not execute any replicates")


class TestKeys:
    def test_key_is_stable_across_instances(self, tmp_path):
        spec = small_sweep()
        assert ResultCache(tmp_path).key_for(spec) == ResultCache(
            tmp_path / "other"
        ).key_for(spec)

    def test_key_depends_on_every_spec_field(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key_for(small_sweep())
        assert cache.key_for(small_sweep(runs=3)) != base
        assert cache.key_for(small_sweep(seed=2)) != base
        assert cache.key_for(small_sweep(values=(2, 6))) != base
        richer = small_sweep(
            experiment=ExperimentSpec(
                topology=TopologySpec("erdos_renyi", {"n": 30}),
                scenario=ScenarioSpec("commuter", {"period": 4}),
                policies=(PolicySpec("onth", label="ONTH"),),
                horizon=30,
                metrics=(MetricSpec("per_round_average"),),
            )
        )
        assert cache.key_for(richer) != base

    def test_key_survives_spec_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        restored = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert cache.key_for(restored) == cache.key_for(spec)


class TestLoadStore:
    def test_miss_then_hit_round_trips_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        assert cache.load(spec) is None
        result = run_sweep(spec, cache=cache)
        assert cache.stores == 1
        again = cache.load(spec)
        assert again == result

    def test_cached_run_sweep_skips_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        result = run_sweep(spec, cache=cache)
        cached = run_sweep(spec, backend=ExplodingBackend(), cache=cache)
        assert cached == result
        assert cache.hits == 1

    def test_no_cache_means_no_files(self, tmp_path):
        run_sweep(small_sweep())
        assert not list(tmp_path.iterdir())

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        run_sweep(spec, cache=cache)
        path = cache.path_for(spec)
        path.write_text("{not json")
        assert cache.load(spec) is None

    def test_spec_mismatch_is_a_miss(self, tmp_path):
        # A colliding or hand-edited entry must never be served.
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        run_sweep(spec, cache=cache)
        path = cache.path_for(spec)
        data = json.loads(path.read_text())
        data["sweep"]["runs"] = 99
        path.write_text(json.dumps(data))
        assert cache.load(spec) is None

    def test_code_edit_invalidates(self, tmp_path, monkeypatch):
        # An editable install never bumps __version__; the source
        # fingerprint must invalidate the key on code changes instead.
        import repro.api.cache as cache_module

        cache = ResultCache(tmp_path)
        spec = small_sweep()
        base = cache.key_for(spec)
        edited = cache_module._code_fingerprint() + "-edited"
        monkeypatch.setattr(cache_module, "_FINGERPRINT", edited)
        assert cache.key_for(spec) != base

    def test_version_change_invalidates(self, tmp_path, monkeypatch):
        import repro

        cache = ResultCache(tmp_path)
        spec = small_sweep()
        run_sweep(spec, cache=cache)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert cache.load(spec) is None  # different key -> different path

    def test_coupled_sweep_caches_display_x_values(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep(
            parameter=("topology.n", "scenario.sojourn"),
            values=((30, 2), (40, 5)),
        )
        result = run_sweep(spec, cache=cache)
        assert result.x_values == (30, 40)
        assert run_sweep(spec, backend=ExplodingBackend(), cache=cache) == result


class TestPointEntries:
    def test_point_key_depends_on_every_coordinate(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        point = spec.experiment_at(2)
        base = cache.key_for_point(point, 1, 0, 2)
        assert cache.key_for_point(point, 2, 0, 2) != base       # sweep seed
        assert cache.key_for_point(point, 1, 2, 2) != base       # spawn offset
        assert cache.key_for_point(point, 1, 0, 3) != base       # replicates
        other = spec.experiment_at(5)
        assert cache.key_for_point(other, 1, 0, 2) != base       # experiment
        # stable across instances and spec round-trips
        import json as json_module

        from repro.api.specs import ExperimentSpec

        restored = ExperimentSpec.from_dict(
            json_module.loads(json_module.dumps(point.to_dict()))
        )
        assert ResultCache(tmp_path / "b").key_for_point(restored, 1, 0, 2) == base

    def test_point_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = small_sweep().experiment_at(2)
        samples = [{"ONTH": 1.25}, {"ONTH": 2.5}]
        cache.store_point(point, 1, 0, 2, samples)
        assert cache.point_stores == 1
        assert cache.load_point(point, 1, 0, 2) == samples
        assert cache.point_hits == 1

    def test_point_sample_count_must_match(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = small_sweep().experiment_at(2)
        with pytest.raises(ValueError):
            cache.store_point(point, 1, 0, 3, [{"ONTH": 1.0}])
        cache.store_point(point, 1, 0, 1, [{"ONTH": 1.0}])
        # asking for a different replicate count is a different key: a miss
        assert cache.load_point(point, 1, 0, 2) is None
        assert cache.point_misses == 1

    def test_tampered_point_entry_is_a_miss(self, tmp_path):
        point = small_sweep().experiment_at(2)
        samples = [{"ONTH": 1.0}, {"ONTH": 2.0}]
        for kind in UNIT_KINDS:
            cache = ResultCache(tmp_path / kind)
            path = store_unit(cache, kind, point, samples)
            assert load_unit(cache, kind, point, 2) == samples, kind
            data = json.loads(path.read_text())
            data["experiment"]["horizon"] = 999
            path.write_text(json.dumps(data))
            assert load_unit(cache, kind, point, 2) is None, kind
            path.write_text("{torn")
            assert load_unit(cache, kind, point, 2) is None, kind

    def test_non_object_json_entry_is_a_miss_everywhere(self, tmp_path):
        # Valid JSON whose top level is not an object (a foreign or
        # hand-edited file in the shared dir) must read as a miss / a
        # corrupt stats entry, never raise.
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        point = spec.experiment_at(2)
        paths = [
            store_unit(cache, kind, point, [{"ONTH": 1.0}]) for kind in UNIT_KINDS
        ]
        run_sweep(spec, cache=cache)
        paths.append(cache.path_for(spec))
        for path in paths:
            path.write_text("[1, 2]")
        for kind in UNIT_KINDS:
            assert load_unit(cache, kind, point, 1) is None, kind
        assert cache.load(spec) is None
        assert cache.stats()["kinds"]["corrupt"] == 3

    def test_sweep_entry_is_not_a_point_entry(self, tmp_path):
        # A sweep entry copied over a unit key must be rejected by the
        # kind check, not parsed as samples.
        cache = ResultCache(tmp_path)
        spec = small_sweep()
        run_sweep(spec, cache=cache)
        point = spec.experiment_at(2)
        for kind in UNIT_KINDS:
            path = unit_path(cache, kind, point, 2)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(cache.path_for(spec).read_text())
            assert load_unit(cache, kind, point, 2) is None, kind

    @pytest.mark.parametrize("source, target", [
        ("point", "point-extension"), ("point-extension", "point"),
    ])
    def test_one_unit_kind_is_not_the_other(self, tmp_path, source, target):
        # the copy holds well-formed samples of the same experiment, but
        # its kind and coordinates belong to the other entry kind
        cache = ResultCache(tmp_path)
        point = small_sweep().experiment_at(2)
        samples = [{"ONTH": 1.0}, {"ONTH": 2.0}]
        copied = store_unit(cache, source, point, samples)
        path = unit_path(cache, target, point, 2)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(copied.read_text())
        assert load_unit(cache, target, point, 2) is None
        assert load_unit(cache, source, point, 2) == samples

    @pytest.mark.parametrize("kind", list(UNIT_KINDS))
    @pytest.mark.parametrize("stored_kind", ["sweep", "bogus"])
    def test_kind_field_alone_decides_a_miss(self, tmp_path, kind, stored_kind):
        # a well-formed entry at its own key, with only "kind" changed:
        # the samples, experiment and coordinates would all decode
        point = small_sweep().experiment_at(2)
        samples = [{"ONTH": 1.0}, {"ONTH": 2.0}]
        kept, edited = ResultCache(tmp_path / "kept"), ResultCache(tmp_path / "edited")
        original = store_unit(kept, kind, point, samples)
        path = store_unit(edited, kind, point, samples)
        data = json.loads(original.read_text())
        data["kind"] = stored_kind
        path.write_text(json.dumps(data))
        assert load_unit(edited, kind, point, 2) is None
        assert load_unit(kept, kind, point, 2) == samples


class TestMaintenance:
    def fill(self, cache, count):
        point = small_sweep().experiment_at(2)
        for i in range(count):
            cache.store_point(point, 1, i, 1, [{"ONTH": float(i)}])

    def test_stats_counts_entries_by_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats() == {
            "root": str(tmp_path), "entries": 0, "bytes": 0, "kinds": {},
        }
        run_sweep(small_sweep(), cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 3  # two points + one sweep
        assert stats["kinds"] == {"point": 2, "sweep": 1}
        assert stats["bytes"] > 0

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, 4)
        assert cache.clear() == 4
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0

    def test_prune_by_entry_count_drops_oldest(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        self.fill(cache, 5)
        # age the entries deterministically: entry i is i hours old
        paths = list(cache.entries())
        assert len(paths) == 5
        point = small_sweep().experiment_at(2)
        by_spawn = {
            json.loads(p.read_text())["spawn_start"]: p for p in paths
        }
        base = 1_700_000_000
        for spawn, path in by_spawn.items():
            os.utime(path, (base - spawn * 3600, base - spawn * 3600))
        assert cache.prune(max_entries=2) == 3
        # the two newest (smallest spawn offsets) survive
        assert cache.load_point(point, 1, 0, 1) is not None
        assert cache.load_point(point, 1, 1, 1) is not None
        assert cache.load_point(point, 1, 2, 1) is None

    def test_prune_by_age(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        self.fill(cache, 3)
        point = small_sweep().experiment_at(2)
        old = cache.path_for_key(cache.key_for_point(point, 1, 2, 1))
        stale = time.time() - 7200
        os.utime(old, (stale, stale))
        assert cache.prune(max_age=3600) == 1
        assert cache.load_point(point, 1, 2, 1) is None
        assert cache.stats()["entries"] == 2

    def test_prune_argument_validation(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.prune()
        with pytest.raises(ValueError):
            cache.prune(max_entries=-1)
        with pytest.raises(ValueError):
            cache.prune(max_age=-2.0)

    def tear(self, cache):
        """Truncate one entry mid-JSON, as a crashed non-atomic copy would."""
        path = next(iter(cache.entries()))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        return path

    def test_stats_count_torn_entries_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, 3)
        self.tear(cache)
        stats = cache.stats()  # must not raise on the partial entry
        assert stats["entries"] == 3
        assert stats["kinds"] == {"corrupt": 1, "point": 2}

    def test_prune_drops_torn_entries_without_raising(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        self.fill(cache, 3)
        torn = self.tear(cache)
        stale = 1_700_000_000
        os.utime(torn, (stale, stale))  # oldest entry -> first to go
        assert cache.prune(max_entries=2) == 1
        assert not torn.exists()
        assert cache.stats()["kinds"] == {"point": 2}

    def test_stats_skip_tmp_and_foreign_files(self, tmp_path):
        # in-flight atomic writes (*.tmp) and stray files/dirs in a shared
        # directory are not entries and must not be counted or touched
        cache = ResultCache(tmp_path)
        self.fill(cache, 2)
        bucket = next(iter(cache.entries())).parent
        (bucket / "entry.json.tmp").write_text("{par")
        (tmp_path / "README").write_text("not a bucket")
        (tmp_path / "not-a-bucket").mkdir()
        (tmp_path / "not-a-bucket" / "stray.json").write_text("{}")
        assert cache.stats()["entries"] == 2
        assert cache.clear() == 2
        assert (bucket / "entry.json.tmp").exists()

    def test_stats_on_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.stats()["entries"] == 0
        assert cache.prune(max_entries=0) == 0

    def test_entries_survive_root_vanishing_mid_iteration(self, tmp_path):
        # a concurrent `cache clear` can delete buckets between listing
        # and descent; iteration must end cleanly, not raise
        import shutil

        cache = ResultCache(tmp_path)
        self.fill(cache, 6)
        iterator = cache.entries()
        first = next(iterator)
        assert first.exists()
        shutil.rmtree(tmp_path)
        assert list(iterator) == []  # remaining buckets skipped, no error
        assert cache.stats()["entries"] == 0


class TestFigureCacheThreading:
    def test_figure_function_accepts_cache(self, tmp_path):
        from repro.experiments import figures

        cache = ResultCache(tmp_path)
        params = dict(sizes=(20, 30), horizon=30, sojourn=5, runs=1, seed=1)
        first = figures.figure03(cache=cache, **params)
        assert cache.stores == 1
        second = figures.figure03(cache=cache, **params)
        assert cache.hits == 1
        assert second == first


class TestCLICacheFlags:
    def run_cli(self, extra):
        from repro.experiments.__main__ import main

        return main([
            "run", "--policy", "onth", "--topology", "erdos_renyi:n=30",
            "--horizon", "30", "--runs", "1", "--json", *extra,
        ])

    def test_second_invocation_hits_and_matches(self, tmp_path, capsys):
        assert self.run_cli(["--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr()
        assert "cache miss" in first.err
        assert self.run_cli(["--cache-dir", str(tmp_path)]) == 0
        second = capsys.readouterr()
        assert "cache hit" in second.err
        a, b = json.loads(first.out), json.loads(second.out)
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b

    def test_no_cache_bypasses(self, tmp_path, capsys):
        assert self.run_cli(["--cache-dir", str(tmp_path), "--no-cache"]) == 0
        assert "cache" not in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_figure_mode_cache_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        argv = ["fig03", "--runs", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert any(tmp_path.iterdir())  # the sweep was stored
        assert main(argv) == 0  # second run loads from the cache

    def test_first_run_reports_point_stats(self, tmp_path, capsys):
        assert self.run_cli(["--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "points: 0/1 cached, 1 computed" in err


class TestCLISharding:
    ARGS = [
        "run", "--policy", "onth", "--topology", "erdos_renyi:n=30",
        "--horizon", "30", "--runs", "1", "--json",
        "--sweep", "scenario.sojourn=2,5",
    ]

    def run_cli(self, extra):
        from repro.experiments.__main__ import main

        return main([*self.ARGS, *extra])

    def test_shard_without_cache_dir_errors(self, capsys):
        assert self.run_cli(["--shard", "1/2"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_shard_with_no_cache_flag_errors(self, tmp_path, capsys):
        assert self.run_cli(
            ["--cache-dir", str(tmp_path), "--no-cache", "--shard", "1/2"]
        ) == 2
        assert "--cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0/2", "3/2", "2", "a/b", "1/0"])
    def test_malformed_shard_arguments_error(self, bad, capsys):
        with pytest.raises(SystemExit):
            self.run_cli(["--shard", bad])
        capsys.readouterr()

    def test_two_shards_then_assembly_matches_serial(self, tmp_path, capsys):
        assert self.run_cli([]) == 0
        serial = json.loads(capsys.readouterr().out)
        cache = ["--cache-dir", str(tmp_path)]
        assert self.run_cli([*cache, "--shard", "1/2"]) == 0
        first = capsys.readouterr()
        assert "1 left to other shards" in first.err
        assert json.loads(first.out)["notes"].startswith("partial")
        assert self.run_cli([*cache, "--shard", "2/2"]) == 0
        capsys.readouterr()
        assert self.run_cli(cache) == 0
        final = capsys.readouterr()
        assert "cache hit" in final.err
        assembled = json.loads(final.out)
        for payload in (serial, assembled):
            payload.pop("elapsed_seconds")
        assert assembled == serial

    def test_figure_mode_shard_flag(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        base = ["fig03", "--runs", "1", "--cache-dir", str(tmp_path)]
        assert main([*base, "--shard", "1/2"]) == 0
        err = capsys.readouterr().err
        assert "left to other shards" in err
        assert main([*base, "--shard", "2/2"]) == 0
        capsys.readouterr()
        assert main(["fig03", "--runs", "1", "--shard", "1/2"]) == 2
        assert "--cache-dir" in capsys.readouterr().err


class TestCacheSubcommand:
    def seed_cache(self, tmp_path):
        from repro.experiments.__main__ import main

        assert main([
            "run", "--policy", "onth", "--topology", "erdos_renyi:n=30",
            "--horizon", "30", "--runs", "1", "--json",
            "--sweep", "scenario.sojourn=2,5",
            "--cache-dir", str(tmp_path),
        ]) == 0

    def test_stats_clear_round_trip(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        self.seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["kinds"] == {"point": 2, "sweep": 1}
        assert main(["cache", "clear", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 3

    def test_prune_respects_max_entries(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        self.seed_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", str(tmp_path),
                     "--max-entries", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 2

    def test_prune_without_bounds_errors(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--max-entries" in capsys.readouterr().err
