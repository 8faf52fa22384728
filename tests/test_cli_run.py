"""Tests for the declarative CLI (`python -m repro.experiments run`), the
`list` inventory subcommand and the --json/--runs/--workers flags of the
figure-regeneration path."""

import json

from repro.experiments.__main__ import build_run_parser, main, spec_from_args


class TestListCommand:
    def test_lists_every_family(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for family in ("policies:", "scenarios:", "topologies:", "figures:",
                       "metrics:"):
            assert family in out
        assert "onth(" in out
        assert "cost_ratio_vs(" in out

    def test_family_filter(self, capsys):
        assert main(["list", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "policies:" not in out
        assert "total_cost()" in out

    def test_scenario_signatures_drop_substrate(self, capsys):
        assert main(["list", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "substrate" not in out
        assert "sojourn" in out


class TestRunParser:
    def test_minimal(self):
        args = build_run_parser().parse_args(["--policy", "onth"])
        assert args.policy == ["onth"]
        assert args.scenario == "commuter"
        assert args.runs == 3

    def test_spec_from_args(self):
        args = build_run_parser().parse_args([
            "--policy", "onth", "--policy", "onbr:cache_size=5",
            "--topology", "erdos_renyi:n=80,p=0.05",
            "--scenario", "timezones:requests_per_round=4",
            "--horizon", "120", "--beta", "10", "--seed", "3",
        ])
        spec = spec_from_args(args)
        experiment = spec.experiment
        assert experiment.topology.kind == "erdos_renyi"
        assert experiment.topology.params == {"n": 80, "p": 0.05}
        assert experiment.scenario.params == {"requests_per_round": 4}
        assert [p.kind for p in experiment.policies] == ["onth", "onbr"]
        assert experiment.policies[1].params == {"cache_size": 5}
        assert experiment.costs.migration == 10.0
        assert experiment.horizon == 120 and experiment.seed == 3

    def test_sweep_flag(self):
        args = build_run_parser().parse_args([
            "--policy", "onth", "--sweep", "scenario.sojourn=5,10,20",
        ])
        spec = spec_from_args(args)
        assert spec.parameter == "scenario.sojourn"
        assert spec.values == (5, 10, 20)

    def test_sweep_flag_parses_booleans(self):
        # Same value grammar as component params: true/false become bools,
        # so sweeping e.g. dynamic_load actually flips the variant.
        args = build_run_parser().parse_args([
            "--policy", "onth", "--sweep", "scenario.dynamic_load=true,false",
        ])
        assert spec_from_args(args).values == (True, False)


class TestRunCommand:
    def test_acceptance_invocation(self, capsys):
        # The ISSUE acceptance command (scaled down in runs only).
        rc = main([
            "run", "--policy", "onth", "--scenario", "commuter",
            "--topology", "erdos_renyi:n=100", "--horizon", "200",
            "--runs", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ONTH" in out and "total cost" in out

    def test_multi_policy_run(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--policy", "offstat",
            "--topology", "erdos_renyi:n=40", "--horizon", "60", "--runs", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ONTH" in out and "OFFSTAT" in out

    def test_json_output_includes_spec(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--topology", "erdos_renyi:n=40",
            "--horizon", "50", "--runs", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"]["ONTH"]
        assert payload["spec"]["experiment"]["topology"]["params"]["n"] == 40

    def test_sweep_run(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--topology", "erdos_renyi:n=40",
            "--horizon", "60", "--sweep", "scenario.sojourn=4,8",
            "--runs", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x_values"] == [4, 8]
        assert payload["x_label"] == "scenario.sojourn"

    def test_unknown_policy_fails_with_suggestion(self, capsys):
        rc = main(["run", "--policy", "onthh", "--horizon", "10"])
        assert rc == 2
        assert "did you mean" in capsys.readouterr().err

    def test_series_label_collision_fails_cleanly(self, capsys):
        # onbr and onbr-fixed are distinct kinds that build the same policy
        # name; without explicit labels their series would collide.
        rc = main([
            "run", "--policy", "onbr", "--policy", "onbr-fixed",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        assert "collide on series label" in capsys.readouterr().err

    def test_label_param_disambiguates_same_name_policies(self, capsys):
        rc = main([
            "run", "--policy", "onth:label=onth-default",
            "--policy", "onth:cache_size=5,label=onth-cache5",
            "--topology", "erdos_renyi:n=20", "--horizon", "20", "--runs", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "onth-default" in out and "onth-cache5" in out

    def test_same_kind_variants_with_distinct_names_allowed(self, capsys):
        rc = main([
            "run", "--policy", "onbr",
            "--policy", "onbr:dynamic_threshold=true",
            "--topology", "erdos_renyi:n=20", "--horizon", "20", "--runs", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ONBR" in out and "ONBR-dyn" in out

    def test_metric_flag_runs_derived_series(self, capsys):
        rc = main([
            "run", "--policy", "onth",
            "--topology", "line:n=4,unit_latency=false",
            "--scenario", "commuter:period=4",
            "--metric", "cost_ratio_vs:reference=OPT",
            "--horizon", "30", "--runs", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["series"]["ONTH"][0] >= 1.0 - 1e-9
        assert payload["spec"]["experiment"]["metrics"][0]["kind"] == (
            "cost_ratio_vs"
        )

    def test_metric_label_param_reserved(self, capsys):
        rc = main([
            "run", "--policy", "onth",
            "--topology", "line:n=4,unit_latency=false",
            "--scenario", "commuter:period=4",
            "--metric", "total_cost",
            "--metric", "cost_ratio_vs:reference=OPT,label=ratio",
            "--horizon", "20", "--runs", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["series"]) == {"ONTH", "ratio"}

    def test_unknown_metric_fails_with_suggestion(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--metric", "total_cots",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        assert "did you mean" in capsys.readouterr().err

    def test_bad_metric_param_fails_fast(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--metric", "cost_ratio_vs:bogus=1",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_colliding_metrics_fail_cleanly(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--metric", "total_cost",
            "--metric", "total_cost",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        assert "duplicate metrics" in capsys.readouterr().err

    def test_unknown_scenario_param_fails_cleanly(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--scenario", "commuter:bogus=1",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_start_node_outside_the_substrate_is_one_line(self, capsys):
        # the pre-flight rejects it with the policy's own message
        rc = main([
            "run", "--policy", "onth:start_node=99", "--topology", "line:n=5",
            "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: start node 99 outside the substrate"

    def test_start_node_error_names_the_swept_point(self, capsys):
        rc = main([
            "run", "--policy", "onth:start_node=4", "--topology", "line:n=5",
            "--sweep", "topology.n=6,3", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        assert capsys.readouterr().err.strip() == (
            "error: experiment.policies[0] at topology.n=3: "
            "start node 4 outside the substrate"
        )

    def test_unpackable_round_is_one_line(self, capsys):
        # five unit capacities cannot serve a commuter round of more requests
        rc = main([
            "run", "--policy", "ilp",
            "--topology", "line:n=5,unit_latency=false,capacity=1",
            "--scenario", "commuter:period=4", "--horizon", "20", "--runs", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("error: round ") and "at capacity" in err


class TestOverlayScenarioFlag:
    def test_bracketed_parts_list_runs(self, capsys):
        rc = main([
            "run", "--policy", "onth",
            "--scenario", "overlay:parts=[commuter,flashcrowd]",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["experiment"]["scenario"]["params"] == {
            "parts": ["commuter", "flashcrowd"]
        }

    def test_bare_string_parts_name_the_list_form(self, capsys):
        rc = main([
            "run", "--policy", "onth", "--scenario", "overlay:parts=commuter",
            "--topology", "erdos_renyi:n=20", "--horizon", "10", "--runs", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "parts=[commuter]" in err
        assert len(err.strip().splitlines()) == 1


class TestFigurePathFlags:
    def test_json_flag(self, capsys):
        assert main(["fig13", "--runs", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "fig13"
        assert payload["params"]["runs"] == 1
        assert set(payload["series"]) == {"OFFSTAT", "OPT"}

    def test_runs_override(self, capsys):
        assert main(["fig13", "--runs", "1"]) == 0
        assert "[fig13]" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        assert main(["fig13", "--runs", "1", "--workers", "2"]) == 0
        assert "[fig13]" in capsys.readouterr().out

    def test_runs_ignored_for_non_sweep_figures(self, capsys):
        assert main(["fig12", "--runs", "2"]) == 0
        captured = capsys.readouterr()
        assert "[fig12]" in captured.out
        assert "does not take --runs" in captured.err

    def test_figure_lookup_is_separator_insensitive(self, capsys):
        assert main(["abl_threshold", "--runs", "1"]) == 0
        assert "abl-threshold" in capsys.readouterr().out

    def test_figure_typo_gets_suggestion(self, capsys):
        assert main(["fig13x"]) == 2
        err = capsys.readouterr().err
        assert "unknown figure" in err and "did you mean" in err

    def test_figure_alias_resolves_via_live_registry(self, monkeypatch):
        # register_figure accepts aliases; they are not enumerated in the
        # inventory but must still resolve to their figure's primary name.
        from repro.api.registry import FIGURES

        entry = FIGURES.resolve("fig13")
        monkeypatch.setitem(FIGURES._entries, "zz_alias_test", entry)
        monkeypatch.setitem(FIGURES._display, "zz_alias_test", "zz-alias-test")
        monkeypatch.setitem(FIGURES._primary, "zz_alias_test", "fig13")
        assert FIGURES.primary("zz-alias-test") == "fig13"

    def test_all_with_json_is_one_document(self, capsys, monkeypatch):
        from repro.api.registry import FIGURES

        entries = tuple((key, FIGURES.resolve(key)) for key in ("fig13", "fig14"))
        monkeypatch.setattr(FIGURES, "items", lambda: entries)
        assert main(["all", "--runs", "1", "--json"]) == 0
        captured = capsys.readouterr()
        payloads = json.loads(captured.out)  # must parse as a single array
        assert [p["figure"] for p in payloads] == ["fig13", "fig14"]
        assert "regenerated 2 experiments" in captured.err


class TestConfidenceFlags:
    BASE = [
        "run", "--policy", "onth", "--policy", "onbr",
        "--topology", "erdos_renyi:n=30", "--scenario", "commuter:period=4",
        "--horizon", "30", "--sweep", "scenario.sojourn=2,5", "--runs", "2",
    ]

    def test_ci_flag_adds_halfwidth_and_n_columns(self, capsys):
        rc = main(self.BASE + ["--ci", "0.9"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "±90%" in captured.out
        assert "replicates/point: 2" in captured.err

    def test_adaptive_flags_vary_per_point_n(self, capsys):
        rc = main(self.BASE + [
            "--ci", "0.95", "--target-halfwidth", "1e-9", "--max-runs", "4",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "replicates/point: 4" in captured.err  # capped at --max-runs
        lines = captured.out.splitlines()
        assert lines[1].rstrip().endswith("n")

    def test_relative_target_percentage_suffix(self):
        args = build_run_parser().parse_args(
            self.BASE[1:] + ["--target-halfwidth", "25%"]
        )
        spec = spec_from_args(args)
        assert spec.replication.relative is True
        assert spec.replication.target_halfwidth == 0.25
        from repro.experiments.__main__ import DEFAULT_MAX_RUNS

        assert spec.replication.max_runs == DEFAULT_MAX_RUNS

    def test_cli_default_max_runs_applied(self):
        from repro.experiments.__main__ import DEFAULT_MAX_RUNS, _replication_for

        args = build_run_parser().parse_args(
            self.BASE[1:] + ["--target-halfwidth", "10"]
        )
        replication = _replication_for(args)
        assert replication.max_runs == DEFAULT_MAX_RUNS
        assert replication.relative is False

    def test_json_payload_carries_ci_and_counts(self, capsys):
        rc = main(self.BASE + [
            "--ci", "0.95", "--target-halfwidth", "1e-9", "--max-runs", "3",
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ci_level"] == 0.95
        assert payload["counts"] == [3, 3]
        assert set(payload["ci"]) == {"ONTH", "ONBR"}
        assert payload["spec"]["replication"]["target_halfwidth"] == 1e-9

    def test_plot_shades_ci_bands(self, capsys):
        rc = main(self.BASE + ["--ci", "0.9", "--plot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "·" in out and "90% CI" in out

    def test_bad_combinations_fail_fast(self, capsys):
        rc = main(self.BASE + [
            "--target-halfwidth", "10", "--max-runs", "1",
        ])
        assert rc == 2
        assert "--max-runs" in capsys.readouterr().err

    def test_bad_values_rejected_by_argparse(self, capsys):
        import pytest

        for flags in (["--ci", "1.5"], ["--ci", "x"],
                      ["--target-halfwidth", "-2"],
                      ["--target-halfwidth", "abc%"]):
            with pytest.raises(SystemExit):
                build_run_parser().parse_args(self.BASE[1:] + flags)

    def test_figure_mode_threads_replication(self, capsys):
        rc = main([
            "fig03", "--runs", "2",
            "--ci", "0.9", "--target-halfwidth", "1e-9", "--max-runs", "3",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "±90%" in captured.out
        assert "replicates/point: 3" in captured.err

    def test_non_sweep_figures_ignore_the_flags_with_a_note(self, capsys):
        rc = main(["fig12", "--ci", "0.9"])
        assert rc == 0
        assert "does not take --ci" in capsys.readouterr().err

    def test_cached_adaptive_rerun_reports_topup_batches(self, tmp_path, capsys):
        flags = self.BASE + [
            "--ci", "0.95", "--target-halfwidth", "1e-9", "--max-runs", "3",
            "--cache-dir", str(tmp_path),
        ]
        assert main(flags) == 0
        first = capsys.readouterr().err
        assert "cache miss" in first and "computed" in first
        # drop the sweep entry so the rerun replays per-point + top-up entries
        from repro.api.cache import ResultCache
        from repro.experiments.__main__ import build_run_parser, spec_from_args

        cache = ResultCache(tmp_path)
        cache.path_for(spec_from_args(build_run_parser().parse_args(flags[1:]))).unlink()
        assert main(flags) == 0
        second = capsys.readouterr().err
        assert "points: 2/2 cached" in second
        assert "top-up batches: 2 cached, 0 computed" in second

    def test_figure_mode_max_runs_below_figure_default_fails_fast(self, capsys):
        # fig03's quick scale defaults to runs=3; --max-runs 2 must exit 2
        # with a one-line error, not a mid-sweep traceback.
        rc = main(["fig03", "--target-halfwidth", "5%", "--max-runs", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--max-runs" in err and "fig03" in err

    def test_nan_and_inf_targets_rejected(self):
        import pytest
        from repro.api.specs import ReplicationSpec

        with pytest.raises(ValueError, match="finite"):
            ReplicationSpec(target_halfwidth=float("nan"), max_runs=30)
        with pytest.raises(ValueError, match="finite"):
            ReplicationSpec(target_halfwidth=float("inf"), max_runs=30)
        for bad in ("nan", "inf", "nan%"):
            with pytest.raises(SystemExit):
                build_run_parser().parse_args(
                    ["--policy", "onth", "--target-halfwidth", bad]
                )

    def test_dead_confidence_flags_are_hard_errors(self, capsys):
        # --max-runs without a target, and --ci-method without any
        # confidence flag, would otherwise be silently ignored.
        rc = main(self.BASE + ["--max-runs", "50"])
        assert rc == 2
        assert "--target-halfwidth" in capsys.readouterr().err
        rc = main(self.BASE + ["--ci", "0.9", "--max-runs", "50"])
        assert rc == 2
        assert "--target-halfwidth" in capsys.readouterr().err
        rc = main(self.BASE + ["--ci-method", "bootstrap"])
        assert rc == 2
        assert "--ci-method" in capsys.readouterr().err
        rc = main(["fig03", "--max-runs", "50"])
        assert rc == 2
        assert "--target-halfwidth" in capsys.readouterr().err
