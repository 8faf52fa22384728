"""Tests for the CLI's shared flag groups, value types and exit-2 path.

Every subcommand's help must render (argparse crashes on a stray ``%`` in
generated help), the spec flags must default to the spec dataclasses, and
every bad value must exit 2 with one ``error:`` line on stderr.
"""

import pytest

from repro.api.registry import FIGURES, FigureEntry
from repro.api.specs import CostSpec, ExperimentSpec
from repro.experiments.__main__ import (
    _SUBCOMMANDS,
    _figure_kwargs,
    build_parser,
    build_run_parser,
    main,
    spec_from_args,
)


def one_line(err: str) -> str:
    """Assert stderr is exactly one line and return it."""
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1, err
    return lines[0]


@pytest.mark.parametrize(
    "command",
    [[], ["run", "--from-bundle", "DIR"], *([name] for name in _SUBCOMMANDS)],
    ids=lambda command: " ".join(command) or "figure",
)
def test_every_help_renders(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


class TestSpecFlagDefaults:
    def test_defaults_come_from_the_spec_dataclasses(self):
        args = build_run_parser().parse_args(["--policy", "onth"])
        experiment = spec_from_args(args).experiment
        assert experiment.costs == CostSpec()
        defaults = ExperimentSpec(
            topology=experiment.topology,
            scenario=experiment.scenario,
            policies=experiment.policies,
        )
        assert (experiment.horizon, experiment.routing) == (
            defaults.horizon, defaults.routing,
        )

    def test_cost_flags_reach_the_cost_spec(self):
        args = build_run_parser().parse_args([
            "--policy", "onth", "--beta", "7", "--creation", "70",
            "--run-active", "3", "--run-inactive", "1",
            "--load", "power", "--load-exponent", "1.5",
        ])
        assert spec_from_args(args).experiment.costs == CostSpec(
            migration=7.0, creation=70.0, run_active=3.0, run_inactive=1.0,
            load="power", load_exponent=1.5,
        )


class TestOneLineErrors:
    QUEUE = ["--queue", "q.db", "--cache-dir", "cache"]

    @pytest.mark.parametrize("argv", [
        ["worker", "--poll", "-1"],
        ["worker", "--poll", "inf"],
        ["worker", "--idle-exit", "-0.5"],
        ["worker", "--idle-exit", "nan"],
        ["worker", "--ttl", "-3"],
        ["enqueue", "--policy", "onth", "--wait", "--poll", "-1"],
        ["serve", "--port", "70000"],
        ["serve", "--port", "-1"],
        ["serve", "--port", "http"],
    ])
    def test_bad_queue_values_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, *self.QUEUE]) == 2
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert one_line(capsys.readouterr().err).startswith(
            f"error: {flag} must be"
        )
        assert not (tmp_path / "q.db").exists()  # rejected before opening

    def test_zero_poll_and_idle_exit_are_valid(self, tmp_path, capsys):
        assert main([
            "worker", "--queue", str(tmp_path / "q.db"),
            "--cache-dir", str(tmp_path / "cache"),
            "--poll", "0", "--idle-exit", "0", "--quiet",
        ]) == 0

    def test_load_exponent_needs_load_power(self, capsys):
        argv = ["run", "--policy", "onth", "--load-exponent", "2"]
        assert main(argv) == 2
        hint = one_line(capsys.readouterr().err)
        assert "--load-exponent" in hint and "--load power" in hint
        assert main([*argv, "--load", "quadratic"]) == 2
        capsys.readouterr()

    def test_default_load_exponent_is_accepted_without_power(self):
        args = build_run_parser().parse_args([
            "--policy", "onth", "--load-exponent", "1.0",
        ])
        assert spec_from_args(args).experiment.costs == CostSpec()

    @pytest.mark.parametrize("argv", [
        ["fig11", "--runs", "1"],
        ["report", "fig13", "--runs", "1"],
        ["run", "--policy", "onth"],
        ["enqueue", "--policy", "onth", *QUEUE],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_names_the_flag(self, argv, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--seed", "-1"]) == 2
        assert one_line(capsys.readouterr().err) == (
            "error: --seed must be >= 0, got '-1'"
        )
        assert not any(tmp_path.iterdir())  # rejected before anything ran

    def test_seed_zero_is_valid(self):
        assert build_parser().parse_args(["fig13", "--seed", "0"]).seed == 0
        args = build_run_parser().parse_args(["--policy", "onth", "--seed", "0"])
        assert spec_from_args(args).seed == 0

    def test_figure_value_error_is_one_line(self, monkeypatch, capsys):
        # what only a running replicate rejects, e.g. a start node outside
        # the substrate, ends figure mode like it ends `run`
        def broken(runs=1, seed=0):
            raise ValueError("start node 99 is not a node of the substrate")

        FIGURES.resolve("fig13")  # load the builtins before patching one
        monkeypatch.setitem(FIGURES._entries, "fig13", FigureEntry(broken, {}))
        assert main(["fig13"]) == 2
        assert one_line(capsys.readouterr().err) == (
            "error: start node 99 is not a node of the substrate"
        )

    def test_shard_without_cache_is_one_line(self, capsys):
        assert main(["fig13", "--shard", "1/2"]) == 2
        assert "--cache-dir" in one_line(capsys.readouterr().err)


class TestFigureKwargs:
    def args(self, *flags):
        return build_parser().parse_args(["fig13", *flags])

    def test_sweep_figures_take_execution_options_through_run(self, capsys):
        backend, cache = object(), object()
        kwargs = _figure_kwargs(
            "fig13", self.args("--ci", "0.9", "--compare", "OPT"),
            cache, backend,
        )
        assert kwargs["backend"] is backend and kwargs["cache"] is cache
        assert kwargs["replication"].ci_level == 0.9
        assert kwargs["comparison"].baseline == "OPT"
        assert capsys.readouterr().err == ""

    def test_figures_without_run_note_the_dropped_flags(self, capsys):
        kwargs = _figure_kwargs("fig12", self.args("--ci", "0.9"), None, None)
        assert "replication" not in kwargs
        assert "fig12 does not take --ci" in capsys.readouterr().err

    def test_every_sweep_figure_forwards_run(self):
        import inspect

        for key in ("fig03", "fig08", "fig13", "fig19", "rocketfuel", "optim"):
            fn, _quick = FIGURES.resolve(key)
            kinds = {p.kind for p in inspect.signature(fn).parameters.values()}
            assert inspect.Parameter.VAR_KEYWORD in kinds, key

    def test_optim_comparison_override_replaces_the_spec_default(self):
        from repro.api.specs import ComparisonSpec
        from repro.experiments.figures import figure_optim

        result = figure_optim(
            sojourns=(2,), horizon=20, runs=2,
            comparison=ComparisonSpec(baseline="OPT"),
        )
        assert {(c.baseline, c.mode) for c in result.comparisons} == {
            ("OPT", "diff")
        }
