"""Extension benchmarks: the algorithms beyond the paper's evaluation.

* online shoot-out — ONTH / ONBR / ONCONF / WFA vs OPT on the line-graph
  instances of Figure 11 (WFA is the §VI metrical-task-system baseline);
* beam-search planner — the §IV-B "sampling heuristic" against exact OPT
  (quality) and on an OPT-infeasible 200-node substrate (reach).

Each is a :class:`~repro.api.specs.SweepSpec` run by
:func:`~repro.api.experiment.run_sweep`, scored by the ``cost_ratio_vs``
metric.
"""

import pytest

from conftest import run_once
from repro.api.experiment import run_sweep
from repro.api.specs import (
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.experiments.figures import DEFAULT_SEED, _line_topology


def _ratio_vs(reference):
    return (MetricSpec("cost_ratio_vs", {"reference": reference}),)


@pytest.mark.figure("ext-online")
def test_online_shootout_vs_opt(benchmark, bench_scale, figure_report):
    runs = 10 if bench_scale == "paper" else 5
    lambdas = (1, 5, 20, 50) if bench_scale == "quick" else (1, 2, 5, 10, 20, 50)
    spec = SweepSpec(
        experiment=ExperimentSpec(
            topology=_line_topology(5),
            scenario=ScenarioSpec("commuter", {"period": 4}),
            policies=(
                PolicySpec("onth", label="ONTH/OPT"),
                PolicySpec("onbr", label="ONBR/OPT"),
                PolicySpec("onconf", {"max_servers": 3}, label="ONCONF/OPT"),
                PolicySpec("wfa", {"max_servers": 3}, label="WFA/OPT"),
            ),
            costs=CostSpec.paper_default(),
            horizon=200,
            metrics=_ratio_vs("OPT"),
        ),
        parameter="scenario.sojourn",
        values=lambdas,
        runs=runs,
        seed=DEFAULT_SEED,
        figure="ext-online",
        title="online algorithms vs OPT (line graph, commuter dynamic)",
        x_label="λ",
        notes="WFA = metrical-task-system work function baseline (§VI)",
    )
    result = run_once(benchmark, lambda: run_sweep(spec))
    figure_report(result)

    for name in result.series_names:
        assert all(v >= 1.0 - 1e-9 for v in result.y(name))
    # the specialised heuristics should beat the generic MTS baseline overall
    assert sum(result.y("ONTH/OPT")) <= sum(result.y("WFA/OPT")) * 1.25


@pytest.mark.figure("ext-beam")
def test_beam_planner_quality_and_reach(benchmark, bench_scale, figure_report):
    runs = 3 if bench_scale == "paper" else 2
    big_rounds = 150 if bench_scale == "paper" else 100
    common = dict(values=("ratio",), runs=runs, seed=DEFAULT_SEED,
                  figure="ext-beam", x_label="metric")
    # quality leg: a 5-node instance where exact OPT is available
    quality = SweepSpec(
        experiment=ExperimentSpec(
            topology=_line_topology(5),
            scenario=ScenarioSpec("commuter", {"period": 4, "sojourn": 10}),
            policies=(
                PolicySpec("beamopt", {"beam_width": 64}, label="BEAM/OPT (n=5)"),
            ),
            costs=CostSpec.paper_default(),
            horizon=150,
            metrics=_ratio_vs("OPT"),
        ),
        title="beam-search planner: quality vs OPT",
        notes="§IV-B sampling heuristic; ≥1 vs OPT by definition",
        **common,
    )
    # reach leg: 200 nodes, far beyond 3^n states
    reach = SweepSpec(
        experiment=ExperimentSpec(
            topology=TopologySpec("erdos_renyi", {"n": 200}),
            scenario=ScenarioSpec("timezones", {"period": 6, "sojourn": 10}),
            policies=(
                PolicySpec(
                    "beamopt", {"beam_width": 24}, label="BEAM/OFFSTAT (n=200)"
                ),
                PolicySpec("offstat"),
            ),
            costs=CostSpec.paper_default(),
            horizon=big_rounds,
            metrics=_ratio_vs("OFFSTAT"),
        ),
        title="beam-search planner: reach beyond OPT",
        **common,
    )

    quality_result, reach_result = run_once(
        benchmark, lambda: (run_sweep(quality), run_sweep(reach))
    )
    figure_report(quality_result)
    figure_report(reach_result)

    assert quality_result.y("BEAM/OPT (n=5)")[0] >= 1.0 - 1e-9
    assert quality_result.y("BEAM/OPT (n=5)")[0] <= 1.2       # near-exact on tiny graphs
    assert reach_result.y("BEAM/OFFSTAT (n=200)")[0] <= 1.5  # competitive at scale
