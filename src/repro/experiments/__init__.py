"""Experiment harness: figure reproductions, ablations, sweeps and reports.

``repro.experiments.figures`` holds one function per figure/table of the
paper's §V; ``repro.experiments.ablations`` holds the extra design-choice
studies; :func:`format_figure` is the plain-text renderer used by the
benchmarks.

Every figure/ablation registers itself in :data:`repro.api.FIGURES` via
``@register_figure`` (together with its quick-scale parameters). The
sweep-based ones build a :class:`~repro.api.specs.SweepSpec` and forward
:func:`~repro.api.experiment.run_sweep`'s execution options (``backend``,
``cache``, ``shard``, ``replication``, ``comparison``) through
``**run``; see :mod:`repro.api` for the declarative spec layer and the
CLI's generic ``run`` subcommand. A sweep outside the registry is spec data
too: :func:`~repro.api.experiment.run_sweep` is the one sweep driver.
"""

from repro.experiments import ablations, figures
from repro.experiments.reporting import format_figure, format_table
from repro.experiments.runner import FigureResult

__all__ = [
    "figures",
    "ablations",
    "FigureResult",
    "format_figure",
    "format_table",
]
