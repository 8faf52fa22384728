"""Experiment harness: figure reproductions, ablations, sweeps and reports.

``repro.experiments.figures`` holds one function per figure/table of the
paper's §V; ``repro.experiments.ablations`` holds the extra design-choice
studies; :func:`format_figure` is the plain-text renderer used by the
benchmarks, and :func:`sweep_experiment` a serial harness for replicate
functions no spec can express.

Every figure/ablation registers itself in :data:`repro.api.FIGURES` via
``@register_figure`` (together with its quick-scale parameters). The
sweep-based ones build a :class:`~repro.api.specs.SweepSpec` and forward
:func:`~repro.api.experiment.run_sweep`'s execution options (``backend``,
``cache``, ``shard``, ``replication``, ``comparison``) through
``**run``; see :mod:`repro.api` for the declarative spec layer and the
CLI's generic ``run`` subcommand.
"""

from repro.experiments import ablations, figures
from repro.experiments.reporting import format_figure, format_table
from repro.experiments.runner import FigureResult, sweep_experiment

__all__ = [
    "figures",
    "ablations",
    "FigureResult",
    "sweep_experiment",
    "format_figure",
    "format_table",
]
