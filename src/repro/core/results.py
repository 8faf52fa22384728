"""Per-round cost ledger and aggregated run results.

Every simulated round records the full cost breakdown of §II-B/§II-C
(latency, load, running, migration, creation) plus the server census in
one :data:`LEDGER_COLUMNS` column each; a completed run is the immutable
:class:`RunResult` exposing the series as numpy arrays — Figures 1 and 2
plot exactly these series, and every other figure aggregates their totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RunResult", "CostBreakdown", "LEDGER_COLUMNS"]

#: The per-round columns of a :class:`RunResult`, in field order: the
#: ``*_cost`` columns are float64, the others int64.
LEDGER_COLUMNS = (
    "latency_cost", "load_cost", "running_cost", "migration_cost",
    "creation_cost", "migrations", "creations", "n_active", "n_inactive",
    "n_requests",
)


@dataclass(frozen=True)
class CostBreakdown:
    """Totals of one run, split by cost factor (the bars of Figure 6)."""

    access: float
    running: float
    migration: float
    creation: float

    @property
    def total(self) -> float:
        """Grand total of the run."""
        return self.access + self.running + self.migration + self.creation


@dataclass(frozen=True)
class RunResult:
    """Immutable result of one simulated run; all series share one time axis."""

    policy_name: str
    scenario_name: str
    latency_cost: np.ndarray
    load_cost: np.ndarray
    running_cost: np.ndarray
    migration_cost: np.ndarray
    creation_cost: np.ndarray
    migrations: np.ndarray
    creations: np.ndarray
    n_active: np.ndarray
    n_inactive: np.ndarray
    n_requests: np.ndarray

    @property
    def rounds(self) -> int:
        """Number of simulated rounds."""
        return int(self.latency_cost.size)

    @property
    def access_cost(self) -> np.ndarray:
        """Per-round Costacc series (latency + load)."""
        return self.latency_cost + self.load_cost

    @property
    def per_round_total(self) -> np.ndarray:
        """Per-round total cost series."""
        return (
            self.latency_cost
            + self.load_cost
            + self.running_cost
            + self.migration_cost
            + self.creation_cost
        )

    @property
    def total_cost(self) -> float:
        """Grand total over the run — the y-axis of Figures 3-5 and 7-10."""
        return float(self.per_round_total.sum())

    @property
    def breakdown(self) -> CostBreakdown:
        """Totals by cost factor — the series of Figure 6."""
        return CostBreakdown(
            access=float(self.access_cost.sum()),
            running=float(self.running_cost.sum()),
            migration=float(self.migration_cost.sum()),
            creation=float(self.creation_cost.sum()),
        )

    @property
    def total_migrations(self) -> int:
        """Number of migrations over the whole run."""
        return int(self.migrations.sum())

    @property
    def total_creations(self) -> int:
        """Number of creations over the whole run."""
        return int(self.creations.sum())

    @property
    def mean_active_servers(self) -> float:
        """Time-averaged active server count."""
        return float(self.n_active.mean()) if self.rounds else 0.0

    @property
    def peak_active_servers(self) -> int:
        """Maximum simultaneous active servers (the peaks of Figures 1-2)."""
        return int(self.n_active.max()) if self.rounds else 0

    #: Column order used by :meth:`as_rows` and :meth:`save_csv`.
    CSV_COLUMNS = (
        "t", "n_requests", "latency_cost", "load_cost", "running_cost",
        "migration_cost", "creation_cost", "migrations", "creations",
        "n_active", "n_inactive", "total_cost",
    )

    def as_rows(self) -> list[tuple]:
        """The ledger as rows matching :data:`CSV_COLUMNS` (for analysis)."""
        totals = self.per_round_total
        return [
            (
                t,
                int(self.n_requests[t]),
                float(self.latency_cost[t]),
                float(self.load_cost[t]),
                float(self.running_cost[t]),
                float(self.migration_cost[t]),
                float(self.creation_cost[t]),
                int(self.migrations[t]),
                int(self.creations[t]),
                int(self.n_active[t]),
                int(self.n_inactive[t]),
                float(totals[t]),
            )
            for t in range(self.rounds)
        ]

    def save_csv(self, path) -> None:
        """Write the per-round ledger as CSV (one row per round).

        A provenance comment line records the policy and scenario so result
        files remain self-describing when collected in bulk.
        """
        import csv
        from pathlib import Path

        with Path(path).open("w", newline="") as handle:
            handle.write(
                f"# policy={self.policy_name} scenario={self.scenario_name}\n"
            )
            writer = csv.writer(handle)
            writer.writerow(self.CSV_COLUMNS)
            writer.writerows(self.as_rows())
