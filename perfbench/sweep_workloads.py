"""The benchmark's three workloads, pinned as :class:`SweepSpec` data.

Each workload is one sweep a user runs through ``repro-experiments``, on
the backend that user would pick for it. The specs are copied here rather
than taken from the figure functions' defaults, so a later change to a
figure's defaults cannot silently change what the benchmark measures.

* ``size-sweep`` — Fig. 3 at caption scale on the serial backend, into a
  fresh result cache. The heavy path for topology build, APSP, trace
  generation and the distance gather.
* ``lambda-sweep`` — Fig. 8 at caption scale through a 2-worker process
  pool, no cache. Simulation and ``decide`` dominate; APSP is small.
* ``optim-ratio`` — the ILP/LP/ONTH/ONBR/OPT paired-ratio sweep through the
  in-process queue backend. Runs the scalar-fallback round loop, HiGHS
  solves, the OPT dynamic program, paired aggregation and one SQLite
  broker round trip per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.api import (
    ComparisonSpec,
    CostSpec,
    ExperimentSpec,
    PolicySpec,
    ProcessPoolBackend,
    QueueBackend,
    ResultCache,
    ScenarioSpec,
    SerialBackend,
    SweepSpec,
    TopologySpec,
)

#: The default workload seed (the figures' master seed).
DEFAULT_SEED = 20110330

_ONLINE_TRIO = (
    PolicySpec("onth", label="ONTH"),
    PolicySpec("onbr", label="ONBR-fixed"),
    PolicySpec("onbr-dyn", label="ONBR-dyn"),
)


def size_sweep_spec(seed: int) -> SweepSpec:
    """Fig. 3: commuter dynamic load, ER n ∈ {100..1000}, horizon 500, λ=10."""
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi"),
            scenario=ScenarioSpec(
                "commuter", {"sojourn": 10, "dynamic_load": True}
            ),
            policies=_ONLINE_TRIO,
            costs=CostSpec.paper_default(),
            horizon=500,
        ),
        parameter="topology.n",
        values=(100, 200, 400, 700, 1000),
        runs=5,
        seed=seed,
        figure="fig03",
        title="cost vs network size, commuter dynamic load",
        x_label="network size",
        notes="paper: ONTH below both ONBR variants; T grows with n",
    )


def lambda_sweep_spec(seed: int) -> SweepSpec:
    """Fig. 8: commuter dynamic load, ER n=200, T=10, horizon 900, λ sweep."""
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 200}),
            scenario=ScenarioSpec(
                "commuter", {"period": 10, "dynamic_load": True}
            ),
            policies=_ONLINE_TRIO,
            costs=CostSpec.paper_default(),
            horizon=900,
        ),
        parameter="scenario.sojourn",
        values=(1, 2, 5, 10, 20, 50),
        runs=10,
        seed=seed,
        figure="fig08",
        title="cost vs λ, commuter dynamic load (n=200, T=10)",
        x_label="λ",
        notes="paper: total roughly independent of λ; ONTH ~2x better",
    )


def optim_ratio_spec(seed: int) -> SweepSpec:
    """The ``optim`` figure's spec, 5-node line, λ ∈ {2, 5, 10}, at 10 replicates.

    The figure defaults to 5 replicates; 10 doubles the work one timed sweep
    measures, so its wall time is steadier.
    """
    return SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec(
                "line",
                {"n": 5, "unit_latency": False, "latency_range": (5.0, 20.0)},
            ),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(
                PolicySpec("ilp", {"epoch": 10}, label="ILP"),
                PolicySpec("ilp", {"epoch": 10, "relax": True}, label="LP"),
                PolicySpec("onth", label="ONTH"),
                PolicySpec("onbr", label="ONBR"),
                PolicySpec("opt", label="OPT"),
            ),
            costs=CostSpec.paper_default(),
            horizon=60,
        ),
        parameter="scenario.sojourn",
        values=(2, 5, 10),
        runs=10,
        seed=seed,
        figure="optim",
        title="Heuristics vs ILP vs LP vs OPT (paired cost ratios, line graph)",
        x_label="λ",
        notes=(
            "ratios are paired against the ILP baseline on shared replicate "
            "traces; OPT < 1 bounds the optimality gap, heuristics > 1 is "
            "the threshold overhead"
        ),
        comparison=ComparisonSpec(baseline="ILP", mode="ratio"),
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a pinned spec plus the backend it runs on.

    Attributes:
        name: the workload name ``BENCHMARK.json`` lists.
        spec: builds the sweep for a seed.
        workers: processes executing replicates concurrently.
        cached: whether the sweep writes a fresh per-run result cache.
        make_backend: builds the backend inside a scratch directory.
    """

    name: str
    spec: Callable[[int], SweepSpec]
    workers: int
    cached: bool
    make_backend: Callable[[Path], object]

    def replicates(self, spec: SweepSpec) -> int:
        """Replicate tasks one sweep of ``spec`` runs."""
        return len(spec.values) * spec.effective_runs

    def policy_rounds(self, spec: SweepSpec) -> int:
        """Replicates × policies × horizon: the sweep's simulated rounds."""
        experiment = spec.experiment
        return (
            self.replicates(spec)
            * len(experiment.policies)
            * experiment.horizon
        )

    def make_cache(self, directory: Path) -> "ResultCache | None":
        """A result cache over ``directory`` when the workload uses one."""
        return ResultCache(directory) if self.cached else None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "size-sweep", size_sweep_spec, 1, True,
            lambda scratch: SerialBackend(),
        ),
        Workload(
            "lambda-sweep", lambda_sweep_spec, 2, False,
            lambda scratch: ProcessPoolBackend(workers=2),
        ),
        Workload(
            "optim-ratio", optim_ratio_spec, 1, False,
            lambda scratch: QueueBackend(scratch / "queue.db", local=True),
        ),
    )
}
