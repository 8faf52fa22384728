"""Demand scenarios and request traces (§II-D, §V-A).

The paper evaluates on two synthetic demand families — time-zone effects
and commuter movements — because real traffic patterns are confidential.
Both are implemented here as deterministic trace generators, plus the
§II-D on/off mobility model as an extension.
"""

from repro.workload.base import (
    RequestGenerator,
    RoundIterable,
    Scenario,
    Trace,
    as_trace,
    check_round,
    generate_trace,
    stream_rounds,
)
from repro.workload.commuter import CommuterScenario, default_period_for
from repro.workload.composite import OverlayScenario, PhasedScenario
from repro.workload.mobility import MobilityScenario
from repro.workload.timezones import TimeZoneScenario

__all__ = [
    "Trace",
    "RequestGenerator",
    "RoundIterable",
    "Scenario",
    "as_trace",
    "check_round",
    "generate_trace",
    "stream_rounds",
    "CommuterScenario",
    "default_period_for",
    "OverlayScenario",
    "PhasedScenario",
    "MobilityScenario",
    "TimeZoneScenario",
]
