"""repro — flexible server allocation in virtual networks.

A faithful, laptop-scale reproduction of

    Dushyant Arora, Anja Feldmann, Gregor Schaffrath, Stefan Schmid:
    *On the Benefit of Virtualization: Strategies for Flexible Server
    Allocation* (NSDI 2011 / arXiv:1011.6594).

The library models a virtualised service hosted on up to ``k`` migratable
servers over a substrate network and provides the paper's online strategies
(ONCONF, ONBR, ONTH), offline strategies (OPT, OFFBR, OFFTH, OFFSTAT), the
synthetic demand scenarios (time zones, commuter), topology generators
(Erdős–Rényi, line, Rocketfuel-like) and an experiment harness regenerating
every figure of the paper's evaluation.

Quickstart::

    from repro import (CommuterScenario, CostModel, OnTH, erdos_renyi,
                       generate_trace, simulate)

    substrate = erdos_renyi(200, seed=1)
    scenario = CommuterScenario(substrate, sojourn=10)
    trace = generate_trace(scenario, horizon=500, seed=2)
    result = simulate(substrate, OnTH(), trace, CostModel.paper_default())
    print(result.total_cost, result.breakdown)
"""

from repro.api import (
    ComparisonSpec,
    CostSpec,
    ExperimentSpec,
    MetricSpec,
    PolicySpec,
    ProcessPoolBackend,
    QueueBackend,
    ReplicationSpec,
    ResultCache,
    ScenarioSpec,
    SerialBackend,
    SweepSpec,
    TopologySpec,
    list_metrics,
    list_policies,
    list_scenarios,
    list_topologies,
    register_metric,
    register_policy,
    register_scenario,
    register_topology,
    resolve_metric,
    resolve_policy,
    resolve_scenario,
    resolve_topology,
    capture_sweeps,
    collect_point_samples,
    refine_sweep,
    run_experiment,
    run_sweep,
)
from repro.algorithms import (
    BeamOpt,
    OffBR,
    OffStat,
    OffTH,
    OnBR,
    OnConf,
    OnTH,
    Opt,
    StaticPolicy,
    WorkFunctionPolicy,
)
from repro.core import (
    AllocationPolicy,
    CallableLoad,
    Configuration,
    CostBreakdown,
    CostModel,
    InactiveServerCache,
    LinearLoad,
    OfflinePolicy,
    PowerLoad,
    QuadraticLoad,
    RequestBatch,
    RoutingResult,
    RoutingStrategy,
    RunResult,
    ServiceSpec,
    bandwidth_migration_matrix,
    price_transition,
    route_requests,
    simulate,
    simulate_services,
)
from repro.topology import (
    Link,
    Substrate,
    att_like_topology,
    erdos_renyi,
    grid,
    line,
    load_rocketfuel,
    random_tree,
    ring,
    star,
)
from repro.traces import (
    DiurnalWavesScenario,
    FlashCrowdScenario,
    GammaArrivalScenario,
    StreamingScenario,
    StreamingTrace,
    TraceReplayScenario,
)
from repro.workload import (
    CommuterScenario,
    MobilityScenario,
    OverlayScenario,
    PhasedScenario,
    RequestGenerator,
    RoundIterable,
    Scenario,
    TimeZoneScenario,
    Trace,
    as_trace,
    check_round,
    default_period_for,
    generate_trace,
    stream_rounds,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # declarative api
    "TopologySpec",
    "ScenarioSpec",
    "PolicySpec",
    "CostSpec",
    "MetricSpec",
    "ComparisonSpec",
    "ReplicationSpec",
    "ExperimentSpec",
    "SweepSpec",
    "SerialBackend",
    "ProcessPoolBackend",
    "QueueBackend",
    "ResultCache",
    "capture_sweeps",
    "collect_point_samples",
    "refine_sweep",
    "run_experiment",
    "run_sweep",
    "register_policy",
    "register_scenario",
    "register_topology",
    "register_metric",
    "resolve_policy",
    "resolve_scenario",
    "resolve_topology",
    "resolve_metric",
    "list_policies",
    "list_scenarios",
    "list_topologies",
    "list_metrics",
    # algorithms
    "OnConf",
    "OnBR",
    "OnTH",
    "WorkFunctionPolicy",
    "Opt",
    "BeamOpt",
    "OffBR",
    "OffTH",
    "OffStat",
    "StaticPolicy",
    # core
    "AllocationPolicy",
    "OfflinePolicy",
    "Configuration",
    "CostModel",
    "CostBreakdown",
    "LinearLoad",
    "QuadraticLoad",
    "PowerLoad",
    "CallableLoad",
    "InactiveServerCache",
    "RequestBatch",
    "RunResult",
    "RoutingResult",
    "RoutingStrategy",
    "simulate",
    "simulate_services",
    "ServiceSpec",
    "route_requests",
    "price_transition",
    "bandwidth_migration_matrix",
    # topology
    "Link",
    "Substrate",
    "erdos_renyi",
    "line",
    "ring",
    "star",
    "grid",
    "random_tree",
    "att_like_topology",
    "load_rocketfuel",
    # workloads
    "Trace",
    "RequestGenerator",
    "RoundIterable",
    "Scenario",
    "as_trace",
    "check_round",
    "generate_trace",
    "stream_rounds",
    "CommuterScenario",
    "TimeZoneScenario",
    "MobilityScenario",
    "OverlayScenario",
    "PhasedScenario",
    "default_period_for",
    # production workloads (repro.traces)
    "StreamingTrace",
    "StreamingScenario",
    "TraceReplayScenario",
    "GammaArrivalScenario",
    "FlashCrowdScenario",
    "DiurnalWavesScenario",
]
