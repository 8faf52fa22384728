"""Publishable experiment reports and repro bundles.

The contracts pinned here:

* :func:`capture_sweeps` observes every ``run_sweep`` call — with the
  *effective* spec after overrides — so the report subcommand can recover
  the exact specs the figure functions built internally;
* :func:`collect_point_samples` returns the same initial replicate blocks
  the sweep simulated, loading everything from a warm per-point cache;
* :func:`comparison_matrix` pairs every series against every other from
  one shared replicate set, and its rendering marks decisive cells;
* :func:`render_report` is deterministic — no timestamps, byte-identical
  re-renders from a warm cache — and :func:`write_bundle` /
  :func:`load_bundle` round-trip the spec JSONs exactly;
* the CLI closes the loop: ``report --bundle`` out, ``run --from-bundle``
  back in, ``report --from-bundle`` re-renders byte-identically.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.stats import comparison_matrix
from repro.api.cache import ResultCache
from repro.api.execution import ExecutionBackend, SerialBackend
from repro.api.experiment import (
    capture_sweeps,
    collect_point_samples,
    run_sweep,
)
from repro.api.specs import (
    ComparisonSpec,
    ExperimentSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments.__main__ import main
from repro.experiments.report import (
    BUNDLE_SCHEMA,
    ReportSection,
    capture_environment,
    load_bundle,
    render_report,
    write_bundle,
)
from repro.experiments.reporting import format_comparison_matrix


def small_sweep(**overrides) -> SweepSpec:
    defaults = dict(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 40}),
            scenario=ScenarioSpec("commuter", {"period": 6}),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("offstat", label="OFFSTAT"),
            ),
            horizon=60,
        ),
        parameter="scenario.sojourn",
        values=(2, 9),
        runs=2,
        seed=3,
        figure="t",
        title="test sweep",
        comparison=ComparisonSpec(baseline="OFFSTAT"),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


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


class TestCaptureSweeps:
    def test_records_spec_and_result(self):
        spec = small_sweep()
        with capture_sweeps() as captured:
            result = run_sweep(spec)
        assert captured == [(spec, result)]

    def test_records_the_effective_spec_after_overrides(self):
        spec = small_sweep(comparison=None)
        vs = ComparisonSpec(baseline="OFFSTAT")
        with capture_sweeps() as captured:
            run_sweep(spec, comparison=vs)
        [(recorded, result)] = captured
        assert recorded.comparison == vs
        assert result.has_comparisons

    def test_nested_captures_both_record(self):
        spec = small_sweep()
        with capture_sweeps() as outer:
            run_sweep(spec)
            with capture_sweeps() as inner:
                run_sweep(spec)
        assert len(outer) == 2 and len(inner) == 1

    def test_no_observer_no_recording(self):
        with capture_sweeps() as captured:
            pass
        run_sweep(small_sweep())
        assert captured == []


class TestCollectPointSamples:
    def test_blocks_align_with_the_sweep(self):
        spec = small_sweep()
        result = run_sweep(spec)
        blocks = collect_point_samples(spec)
        assert len(blocks) == len(spec.values)
        for i, block in enumerate(blocks):
            assert len(block) == spec.runs
            for name in result.series_names:
                mean = sum(r[name] for r in block) / len(block)
                assert mean == pytest.approx(result.series[name][i])

    def test_warm_cache_simulates_nothing(self, tmp_path):
        spec = small_sweep()
        cache = ResultCache(tmp_path)
        run_sweep(spec, cache=cache)
        counting = CountingBackend()
        probe = ResultCache(tmp_path)
        blocks = collect_point_samples(spec, backend=counting, cache=probe)
        assert counting.total == 0
        assert probe.point_hits == len(spec.values)
        assert len(blocks) == len(spec.values)

    def test_cold_run_stores_blocks_the_sweep_reuses(self, tmp_path):
        spec = small_sweep()
        cache = ResultCache(tmp_path)
        collect_point_samples(spec, cache=cache)
        assert cache.point_stores == len(spec.values)
        warm = ResultCache(tmp_path)
        run_sweep(spec, cache=warm)
        assert warm.point_hits == len(spec.values)
        assert warm.point_stores == 0


class TestComparisonMatrix:
    SAMPLES = {
        "A": (10.0, 12.0, 11.0, 13.0),
        "B": (20.0, 23.0, 21.0, 24.0),
        "C": (10.5, 11.6, 11.2, 12.8),
    }

    def test_every_vs_every_with_none_diagonal(self):
        matrix = comparison_matrix(self.SAMPLES)
        assert matrix.names == ("A", "B", "C")
        for i in range(3):
            for j in range(3):
                cell = matrix.cells[i][j]
                assert (cell is None) == (i == j)

    def test_diff_matrix_is_antisymmetric(self):
        matrix = comparison_matrix(self.SAMPLES)
        ab = matrix.summary("A", "B")
        ba = matrix.summary("B", "A")
        assert ab.mean == pytest.approx(-ba.mean)
        assert ab.halfwidth == pytest.approx(ba.halfwidth)
        assert ab.n == len(self.SAMPLES["A"])

    def test_decisive_tracks_the_paired_interval(self):
        matrix = comparison_matrix(self.SAMPLES)
        # A vs B: a consistent ~10 gap, decisive at 95%
        assert matrix.summary("A", "B").decisive
        # A vs C: sub-noise gap, not decisive
        assert not matrix.summary("A", "C").decisive

    def test_ratio_mode(self):
        matrix = comparison_matrix(self.SAMPLES, mode="ratio")
        cell = matrix.summary("B", "A")
        assert cell.null == 1.0
        assert cell.mean == pytest.approx(
            sum(b / a for a, b in zip(self.SAMPLES["A"], self.SAMPLES["B"]))
            / len(self.SAMPLES["A"])
        )

    def test_summary_rejects_unknown_and_self(self):
        matrix = comparison_matrix(self.SAMPLES)
        with pytest.raises(KeyError, match="not in comparison matrix"):
            matrix.summary("A", "NOPE")
        with pytest.raises(KeyError, match="no self-comparison"):
            matrix.summary("A", "A")

    def test_needs_two_series(self):
        with pytest.raises(ValueError, match="at least two series"):
            comparison_matrix({"A": (1.0, 2.0)})

    def test_rendering_marks_decisive_cells(self):
        matrix = comparison_matrix(self.SAMPLES)
        text = format_comparison_matrix(matrix, x=9, x_label="sojourn")
        assert "paired comparison matrix at sojourn = 9" in text
        assert "n=4 shared replicates" in text
        assert "·" in text  # the diagonal
        assert "Δ = row − column" in text
        assert "* = CI excludes 0" in text
        # the decisive A-vs-B cell is starred
        row = next(line for line in text.splitlines() if line.lstrip().startswith("A "))
        assert "*" in row


class TestRenderReport:
    def sections(self, cache=None):
        spec = small_sweep()
        result = run_sweep(spec, cache=cache)
        return [ReportSection("smoke", spec, result)]

    def test_report_structure(self, tmp_path):
        cache = ResultCache(tmp_path)
        sections = self.sections(cache=cache)
        text = render_report(sections, cache=cache)
        assert text.startswith("# Experiment report")
        assert "## Environment" in text
        assert "| code_fingerprint |" in text
        assert "## smoke — test sweep" in text
        assert "replicates: 2 per point" in text
        assert "paired vs OFFSTAT" in text
        assert f"cache provenance: sweep key `{cache.key_for(sections[0].spec)}`" in text
        assert "### Paired comparison matrix — smoke" in text

    def test_environment_capture_is_stable_and_time_free(self):
        first = capture_environment()
        assert first == capture_environment()
        for field_name in first:
            assert "time" not in field_name and "date" not in field_name

    def test_rendering_twice_from_a_warm_cache_is_byte_identical(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        sections = self.sections(cache=cache)
        first = render_report(sections, cache=cache)
        again = render_report(sections, cache=ResultCache(tmp_path))
        assert again == first

    def test_matrices_can_be_skipped(self, tmp_path):
        sections = self.sections()
        text = render_report(sections, matrices=False)
        assert "Paired comparison matrix" not in text


class TestBundles:
    def bundle(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = small_sweep()
        result = run_sweep(spec, cache=cache)
        sections = [ReportSection("smoke", spec, result)]
        text = render_report(sections, cache=cache)
        root = tmp_path / "bundle"
        write_bundle(root, sections, cache=cache, report_text=text)
        return root, spec, text

    def test_round_trip(self, tmp_path):
        root, spec, text = self.bundle(tmp_path)
        manifest, pairs = load_bundle(root)
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert [key for key, _ in pairs] == ["smoke"]
        assert pairs[0][1] == spec
        assert (root / "EXPERIMENTS.md").read_text() == text
        # the cache manifest names every entry with its content hash
        assert manifest["cache"]["count"] == len(manifest["cache"]["entries"])
        for entry in manifest["cache"]["entries"]:
            assert len(entry["sha256"]) == 64

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="MANIFEST.json missing"):
            load_bundle(tmp_path / "nope")

    def test_unsupported_schema(self, tmp_path):
        root, _, _ = self.bundle(tmp_path)
        manifest_path = root / "MANIFEST.json"
        payload = json.loads(manifest_path.read_text())
        payload["schema"] = 999
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported bundle schema"):
            load_bundle(root)

    def test_missing_spec_file(self, tmp_path):
        root, _, _ = self.bundle(tmp_path)
        (root / "specs" / "smoke.json").unlink()
        with pytest.raises(ValueError, match="missing"):
            load_bundle(root)

    def test_spec_key_mismatch(self, tmp_path):
        root, _, _ = self.bundle(tmp_path)
        spec_path = root / "specs" / "smoke.json"
        payload = json.loads(spec_path.read_text())
        payload["key"] = "other"
        spec_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="holds key"):
            load_bundle(root)


class TestReportCLI:
    def test_full_round_trip_is_byte_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "EXPERIMENTS.md"
        bundle = tmp_path / "bundle"
        assert main([
            "report", "fig03", "--runs", "2", "--compare", "ONTH",
            "--cache-dir", str(cache), "--out", str(out),
            "--bundle", str(bundle),
        ]) == 0
        err = capsys.readouterr().err
        assert "wrote repro bundle" in err
        first = out.read_text()
        # the bundled copy is the same document
        assert (bundle / "EXPERIMENTS.md").read_text() == first
        # replay the bundle over the warm cache: nothing to simulate
        assert main([
            "run", "--from-bundle", str(bundle), "--cache-dir", str(cache),
        ]) == 0
        assert "replayed 1 sweeps" in capsys.readouterr().out
        # re-render from the bundle: byte-identical
        out2 = tmp_path / "EXPERIMENTS2.md"
        assert main([
            "report", "--from-bundle", str(bundle),
            "--cache-dir", str(cache), "--out", str(out2),
        ]) == 0
        assert out2.read_text() == first

    def test_both_bundle_replays_note_a_fingerprint_mismatch(
        self, tmp_path, capsys
    ):
        cache, bundle = tmp_path / "cache", tmp_path / "bundle"
        assert main([
            "report", "fig13", "--runs", "1", "--cache-dir", str(cache),
            "--bundle", str(bundle),
        ]) == 0
        first = capsys.readouterr().out
        manifest = bundle / "MANIFEST.json"
        data = json.loads(manifest.read_text())
        data["environment"]["code_fingerprint"] = "0" * 16
        manifest.write_text(json.dumps(data))
        for command in ("run", "report"):
            assert main([
                command, "--from-bundle", str(bundle), "--cache-dir", str(cache),
            ]) == 0
            captured = capsys.readouterr()
            assert "code fingerprint mismatch" in captured.err, command
            if command == "report":
                assert captured.out == first

    def test_report_to_stdout_includes_comparison_columns(self, capsys):
        assert main([
            "report", "fig03", "--runs", "2", "--compare", "ONTH",
            "--no-matrices", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "# Experiment report" in out
        assert "Δ ONBR-fixed" in out and "Δ ONBR-dyn" in out
        assert "Paired comparison matrix" not in out
        assert "cache provenance" not in out

    def test_report_requires_figures_or_a_bundle(self, capsys):
        assert main(["report"]) == 2
        assert "name at least one figure" in capsys.readouterr().err

    def test_from_bundle_excludes_figures_and_bundle(self, tmp_path, capsys):
        assert main(["report", "--from-bundle", "d", "fig03"]) == 2
        assert "cannot be combined" in capsys.readouterr().err
        assert main([
            "report", "--from-bundle", "d", "--bundle", str(tmp_path / "b"),
        ]) == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_report_rejects_shard(self, capsys):
        assert main(["report", "fig03", "--shard", "1/2"]) == 2
        assert "without --shard" in capsys.readouterr().err

    def test_unknown_figure_exits_cleanly(self, capsys):
        assert main(["report", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_run_from_bundle_rejects_a_missing_bundle(self, tmp_path, capsys):
        assert main([
            "run", "--from-bundle", str(tmp_path / "nope"),
        ]) == 2
        assert "MANIFEST.json missing" in capsys.readouterr().err

    def test_trajectory_figures_are_skipped_with_a_note(self, capsys):
        # fig01 runs no sweeps, so there is nothing to report
        assert main(["report", "fig01"]) == 2
        err = capsys.readouterr().err
        assert "runs no sweeps" in err and "nothing to report" in err
