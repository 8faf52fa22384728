"""Analysis helpers: multi-run statistics and demand-trace descriptors.

:mod:`repro.analysis.stats` holds the estimators every sweep aggregates
with (means, confidence intervals, paired comparisons);
:mod:`repro.analysis.demand` describes traces (churn, spread, dwell).
Costs, breakdowns and competitive ratios are metrics of the spec
pipeline (:mod:`repro.api.metrics`), averaged by the sweep engine.
"""

from repro.analysis.demand import churn, hotspot_dwell, spatial_spread
from repro.analysis.stats import (
    ComparisonSummary,
    ConfidenceInterval,
    MeanStderr,
    PointSummary,
    confidence_interval,
    mean_stderr,
    paired_summary,
    point_summary,
    t_critical,
)

__all__ = [
    "churn",
    "hotspot_dwell",
    "spatial_spread",
    "ComparisonSummary",
    "ConfidenceInterval",
    "MeanStderr",
    "PointSummary",
    "confidence_interval",
    "mean_stderr",
    "paired_summary",
    "point_summary",
    "t_critical",
]
