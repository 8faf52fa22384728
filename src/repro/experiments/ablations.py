"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each ablation isolates one modelling or
algorithmic knob and measures its effect, using the same sweep engine and
reporting as the figure reproductions.

* routing strategy (nearest vs load-aware) under convex load,
* the inactive-server cache size of ONBR/ONTH,
* ONBR's epoch threshold factor θ/c,
* constant-β vs bandwidth-derived migration costs,
* demand correlation in the §II-D mobility model,
* a continuous sweep of the migration/creation cost ratio β/c.

Each is a :class:`~repro.api.specs.SweepSpec` run by
:func:`~repro.api.experiment.run_sweep`, so every ablation takes its
execution options (``backend``, ``cache``, ``shard``,
``replication``, ``comparison``) as ``**run`` keywords, like the figures.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.experiment import run_sweep
from repro.api.registry import register_figure
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments.figures import DEFAULT_SEED
from repro.experiments.runner import FigureResult
from repro.workload.commuter import default_period_for

__all__ = [
    "ablation_routing",
    "ablation_cache_size",
    "ablation_threshold",
    "ablation_migration_model",
    "ablation_mobility_correlation",
    "ablation_beta_over_c",
]


def _commuter_experiment(
    policies, horizon: int, sojourn: int, dynamic: bool, n: "int | None" = None,
    costs: CostSpec = CostSpec.paper_default(),
) -> ExperimentSpec:
    """ER substrate + commuter demand with the size-coupled day length."""
    return ExperimentSpec(
        topology=TopologySpec("erdos_renyi", {} if n is None else {"n": n}),
        scenario=ScenarioSpec(
            "commuter", {"sojourn": sojourn, "dynamic_load": dynamic}
        ),
        policies=policies,
        costs=costs,
        horizon=horizon,
    )


@register_figure("abl-routing", quick=dict(sizes=(50, 100), horizon=200, runs=3))
def ablation_routing(
    sizes=(50, 100, 200),
    horizon: int = 300,
    sojourn: int = 10,
    runs: int = 5,
    seed: int = DEFAULT_SEED,
    **run,
) -> FigureResult:
    """Nearest vs load-aware request routing under quadratic load.

    With convex load, piling requests on the latency-closest server is
    super-linear; load-aware routing should never be worse.
    """
    spec = SweepSpec(
        experiment=_commuter_experiment(
            (
                PolicySpec("onth", label="nearest", routing="nearest"),
                PolicySpec("onth", label="load-aware", routing="load_aware"),
            ),
            horizon, sojourn, dynamic=False,
            costs=CostSpec.paper_default(load="quadratic"),
        ),
        parameter="topology.n",
        values=tuple(int(n) for n in sizes),
        runs=runs,
        seed=seed,
        figure="abl-routing",
        title="routing strategy under quadratic load (ONTH)",
        x_label="network size",
        notes="load-aware routing balances convex load at equal latency cost",
    )
    return run_sweep(spec, **run)


@register_figure("abl-cache", quick=dict(cache_sizes=(1, 3, 8), n=100, horizon=300, runs=3))
def ablation_cache_size(
    cache_sizes=(1, 2, 3, 5, 8),
    n: int = 200,
    horizon: int = 500,
    sojourn: int = 10,
    runs: int = 5,
    seed: int = DEFAULT_SEED,
    **run,
) -> FigureResult:
    """Effect of the inactive-server FIFO cache size (paper fixes 3)."""
    spec = SweepSpec(
        experiment=_commuter_experiment(
            (PolicySpec("onth", label="ONTH"), PolicySpec("onbr", label="ONBR")),
            horizon, sojourn, dynamic=True, n=n,
        ),
        parameter="policies.cache_size",
        values=tuple(int(size) for size in cache_sizes),
        runs=runs,
        seed=seed,
        figure="abl-cache",
        title="inactive cache size sweep (commuter dynamic)",
        x_label="cache size",
        notes="paper fixes size 3; diminishing returns expected beyond that",
    )
    return run_sweep(spec, **run)


@register_figure("abl-threshold", quick=dict(factors=(0.5, 2.0, 8.0), n=100, horizon=300, runs=3))
def ablation_threshold(
    factors=(0.5, 1.0, 2.0, 4.0, 8.0),
    n: int = 200,
    horizon: int = 500,
    sojourn: int = 10,
    runs: int = 5,
    seed: int = DEFAULT_SEED,
    **run,
) -> FigureResult:
    """ONBR's epoch threshold θ = factor·c (paper fixes factor 2)."""
    spec = SweepSpec(
        experiment=_commuter_experiment(
            (PolicySpec("onbr", label="ONBR total"),),
            horizon, sojourn, dynamic=True, n=n,
        ),
        parameter="policies.threshold_factor",
        values=tuple(float(factor) for factor in factors),
        runs=runs,
        seed=seed,
        figure="abl-threshold",
        title="ONBR threshold factor sweep (θ = factor·c)",
        x_label="θ/c",
        notes="small θ reacts faster but pays more transitions",
    )
    return run_sweep(spec, **run)


@register_figure("abl-migration", quick=dict(runs=3))
def ablation_migration_model(
    horizon: int = 300,
    sojourn: int = 15,
    period: int = 8,
    requests_per_round: int = 10,
    runs: int = 5,
    seed: int = DEFAULT_SEED,
    **run,
) -> FigureResult:
    """Constant β vs bandwidth-derived per-pair migration costs.

    Uses the AT&T-like backbone (25 PoPs) whose T1/T2 links make the
    bandwidth-derived matrix heterogeneous; the matrix is scaled so its mean
    equals the constant β for a like-for-like comparison.
    """
    spec = SweepSpec(
        experiment=ExperimentSpec(
            # seed pinned: every replicate sees the same deterministic map
            topology=TopologySpec("att", {"seed": 7018, "access_routers": False}),
            scenario=ScenarioSpec(
                "timezones",
                {"period": period, "sojourn": sojourn,
                 "requests_per_round": requests_per_round},
            ),
            policies=(
                PolicySpec("onth", label="constant β"),
                PolicySpec(
                    "onth", label="bandwidth β(u,v)",
                    costs=CostSpec(migration_model="bandwidth"),
                ),
            ),
            costs=CostSpec(),
            horizon=horizon,
        ),
        runs=runs,
        seed=seed,
        figure="abl-migration",
        title="constant vs bandwidth-derived migration cost (ONTH)",
        x_label="metric",
        notes="distance-dependent β changes which moves are worthwhile",
    )
    return run_sweep(spec, **run)


@register_figure("abl-beta", quick=dict(ratios=(0.1, 0.5, 1.0, 10.0), n=60, horizon=250, runs=3))
def ablation_beta_over_c(
    ratios=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 10.0),
    creation: float = 400.0,
    n: int = 100,
    horizon: int = 400,
    sojourn: int = 10,
    runs: int = 5,
    seed: int = DEFAULT_SEED,
    **run,
) -> FigureResult:
    """Continuous sweep of the paper's β<c vs β>c dichotomy.

    The paper evaluates two points (β/c = 0.1 and 10); this ablation sweeps
    the ratio continuously with ``c`` fixed, tracking ONTH's total cost and
    how many migrations it still performs. Migrations taper off as β
    approaches c and hit exactly zero beyond it (the pricer never migrates
    once β > c — a tested model invariant). Note that the *total* is not
    monotone in β: ONTH's small-epoch threshold is ``y·β``, so a very cheap
    β also makes the algorithm reconfigure myopically every few rounds —
    an ONTH coupling worth knowing about when transplanting the algorithm.

    The sweep runs over β itself; the result maps it back to β/c.
    """
    ratio_of = {float(ratio) * creation: ratio for ratio in ratios}
    spec = SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": n}),
            scenario=ScenarioSpec(
                "timezones",
                # the timezones default day length is 10, not the size-coupled T
                {"period": default_period_for(n), "sojourn": sojourn},
            ),
            policies=(PolicySpec("onth"),),
            costs=CostSpec(creation=creation),
            horizon=horizon,
            metrics=(
                MetricSpec("total_cost", label="ONTH total"),
                MetricSpec("migrations"),
            ),
        ),
        parameter="costs.migration",
        values=tuple(ratio_of),
        runs=runs,
        seed=seed,
        figure="abl-beta",
        title="migration/creation cost ratio sweep (ONTH, time zones)",
        x_label=f"β (c={creation:g})",
        notes="migrations must vanish for β/c > 1 (§II-C)",
    )
    result = run_sweep(spec, **run)
    return replace(
        result,
        x_label="β/c",
        x_values=tuple(ratio_of[beta] for beta in result.x_values),
    )


@register_figure("abl-mobility", quick=dict(correlations=(0.0, 0.5, 1.0), n=60, horizon=250, runs=3))
def ablation_mobility_correlation(
    correlations=(0.0, 0.25, 0.5, 0.75, 1.0),
    n: int = 100,
    n_users: int = 20,
    horizon: int = 400,
    runs: int = 5,
    seed: int = DEFAULT_SEED,
    **run,
) -> FigureResult:
    """Benefit of adaptation vs crowd correlation in the mobility model.

    With i.i.d. churn (correlation 0) demand has no structure to exploit;
    a coherent crowd (correlation 1) is where migration pays off, so the
    gap between the static baseline and ONTH should widen.
    """
    spec = SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": n}),
            scenario=ScenarioSpec(
                "mobility",
                {"n_users": n_users, "mean_sojourn": 10.0,
                 "attractor_period": 50},
            ),
            policies=(
                PolicySpec("onth", label="ONTH"),
                PolicySpec("offstat", label="OFFSTAT"),
            ),
            costs=CostSpec.paper_default(),
            horizon=horizon,
            metrics=(
                MetricSpec("total_cost"),
                MetricSpec(
                    "cost_ratio_vs", {"reference": "ONTH"}, label="OFFSTAT/ONTH"
                ),
            ),
        ),
        parameter="scenario.correlation",
        values=tuple(float(corr) for corr in correlations),
        runs=runs,
        seed=seed,
        figure="abl-mobility",
        title="mobility correlation sweep (ONTH vs static)",
        x_label="correlation",
        notes="adaptivity should pay off more as the crowd moves coherently",
    )
    return run_sweep(spec, **run)
