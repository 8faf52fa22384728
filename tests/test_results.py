"""Tests for the run ledger and result aggregation (repro.core.results)."""

import numpy as np
import pytest

from repro.algorithms import OnTH
from repro.core.results import LEDGER_COLUMNS, CostBreakdown, RunResult
from repro.core.simulator import simulate
from repro.workload.base import Trace


def make_result(rounds, policy_name="TEST", scenario_name="", **columns):
    """A ``rounds``-round ledger: ``columns`` override per-round series."""
    defaults = dict(
        latency_cost=2.0,
        load_cost=1.0,
        running_cost=2.5,
        migration_cost=0.0,
        creation_cost=0.0,
        migrations=0,
        creations=0,
        n_active=1,
        n_inactive=0,
        n_requests=3,
    )
    return RunResult(
        policy_name=policy_name,
        scenario_name=scenario_name,
        **{
            name: np.asarray(
                columns.get(name, [defaults[name]] * rounds),
                dtype=np.float64 if name.endswith("cost") else np.int64,
            )
            for name in LEDGER_COLUMNS
        },
    )


class TestCostBreakdown:
    def test_total(self):
        bd = CostBreakdown(access=1, running=2, migration=3, creation=4)
        assert bd.total == 10


class TestRunLedger:
    def build(self, n=5):
        return make_result(
            n,
            "TEST",
            "scenario-x",
            latency_cost=[float(t) for t in range(n)],
            migration_cost=[40.0 if t == 2 else 0.0 for t in range(n)],
            migrations=[1 if t == 2 else 0 for t in range(n)],
            n_active=[1 + t % 2 for t in range(n)],
        )

    def test_metadata(self):
        result = self.build()
        assert result.policy_name == "TEST"
        assert result.scenario_name == "scenario-x"
        assert result.rounds == 5

    def test_series_values(self):
        result = self.build()
        np.testing.assert_allclose(result.latency_cost, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(result.migration_cost, [0, 0, 40, 0, 0])

    def test_total_cost_consistent_with_series(self):
        result = self.build()
        assert result.total_cost == pytest.approx(result.per_round_total.sum())

    def test_breakdown_sums_to_total(self):
        result = self.build()
        assert result.breakdown.total == pytest.approx(result.total_cost)

    def test_access_series(self):
        result = self.build()
        np.testing.assert_allclose(
            result.access_cost, result.latency_cost + result.load_cost
        )

    def test_counters(self):
        result = self.build()
        assert result.total_migrations == 1
        assert result.total_creations == 0
        assert result.peak_active_servers == 2
        assert result.mean_active_servers == pytest.approx(np.mean([1, 2, 1, 2, 1]))

    def test_arrays_read_only(self, line5):
        trace = Trace(tuple(np.array([t % 5]) for t in range(4)))
        result = simulate(line5, OnTH(), trace)
        for name in LEDGER_COLUMNS:
            with pytest.raises(ValueError):
                getattr(result, name)[0] = 9

    def test_empty_ledger(self):
        result = make_result(0, "EMPTY")
        assert result.rounds == 0
        assert result.total_cost == 0.0
        assert result.peak_active_servers == 0
        assert result.mean_active_servers == 0.0


class TestCsvExport:
    def build(self):
        return make_result(
            3,
            "CSVTEST",
            "scn",
            latency_cost=[0.0, 1.0, 2.0],
            migrations=[0, 1, 0],
        )

    def test_rows_match_columns(self):
        result = self.build()
        rows = result.as_rows()
        assert len(rows) == 3
        assert all(len(row) == len(result.CSV_COLUMNS) for row in rows)

    def test_total_column_consistent(self):
        result = self.build()
        for t, row in enumerate(result.as_rows()):
            assert row[-1] == pytest.approx(float(result.per_round_total[t]))

    def test_save_csv_round_trip(self, tmp_path):
        import csv

        result = self.build()
        path = tmp_path / "run.csv"
        result.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# policy=CSVTEST scenario=scn")
        reader = csv.reader(lines[1:])
        header = next(reader)
        assert tuple(header) == result.CSV_COLUMNS
        body = list(reader)
        assert len(body) == 3
        assert float(body[2][2]) == 2.0  # latency of round 2
