"""Tests for the figure-regeneration CLI (python -m repro.experiments)."""

import subprocess
import sys

import pytest

from repro.api.registry import FIGURES
from repro.experiments.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig03"])
        assert args.figure == "fig03"
        assert not args.paper
        assert args.seed is None

    def test_paper_flag(self):
        args = build_parser().parse_args(["fig15", "--paper"])
        assert args.paper

    def test_seed_override(self):
        args = build_parser().parse_args(["fig15", "--seed", "7"])
        assert args.seed == 7


class TestRegistry:
    def test_all_19_figures_present(self):
        for i in range(1, 20):
            assert f"fig{i:02d}" in FIGURES

    def test_rocketfuel_present(self):
        assert "rocketfuel" in FIGURES

    def test_ablations_present(self):
        assert {k for k in FIGURES if k.startswith("abl-")} == {
            "abl-routing", "abl-cache", "abl-threshold",
            "abl-migration", "abl-mobility", "abl-beta",
        }


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "rocketfuel" in out

    def test_no_figure_lists(self, capsys):
        assert main([]) == 0
        assert "fig19" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_runs_a_small_figure(self, capsys):
        assert main(["fig13", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "[fig13]" in out
        assert "OFFSTAT" in out and "OPT" in out

    def test_module_invocation(self):
        """`python -m repro.experiments --list` works as a subprocess."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "fig11" in proc.stdout


class TestLateRegisteredFigure:
    """A figure registered after the CLI module imports is a CLI figure."""

    @pytest.fixture(autouse=True)
    def late(self, monkeypatch):
        from repro.api.registry import register_figure

        fig13 = FIGURES.resolve("fig13").fn  # loads the builtin figures
        for name, table in list(vars(FIGURES).items()):
            if isinstance(table, (dict, set)):  # register into copies
                monkeypatch.setattr(FIGURES, name, table.copy())

        @register_figure("zz-late", quick=dict(runs=1))
        def late_figure(runs=3, seed=0, **run):
            """A figure registered after the CLI module was imported."""
            return fig13(runs=runs, seed=seed, **run)

    def test_listed_by_list(self, capsys):
        assert main(["--list"]) == 0
        assert "zz-late" in capsys.readouterr().out

    def test_run_by_figure_mode(self, capsys):
        assert main(["zz-late"]) == 0
        assert "[fig13]" in capsys.readouterr().out

    def test_named_in_the_unknown_figure_inventory(self, capsys):
        assert main(["fig99"]) == 2
        assert "zz-late" in capsys.readouterr().err


class TestRunAll:
    def test_all_command_exists(self, capsys, monkeypatch):
        """`all` iterates the registry; patch it down to one cheap entry."""
        entries = tuple((key, FIGURES.resolve(key)) for key in ("fig13",))
        monkeypatch.setattr(FIGURES, "items", lambda: entries)
        assert main(["all", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "[fig13]" in out
        assert "regenerated 1 experiments" in out
