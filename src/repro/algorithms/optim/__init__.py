"""Optimizer-backed placement policies (ILP/LP) — the related-work strategies.

The paper's own policies are threshold/work-function heuristics; the related
work (Stillwell et al.'s LP/MILP virtual-cluster allocation, Stolyar's
placement under packing constraints) solves placement as a mathematical
program instead.  This package brings that family into the reproduction:

* :class:`~repro.algorithms.optim.policy.IlpPlacement` (registered as
  ``ilp``, aliases ``optim``/``lp``) — an *online* periodic re-solve
  policy: every ``epoch`` rounds it solves one capacitated placement MILP
  (or its LP relaxation with ``relax=True``) over a demand window and
  replays the solution as an ordinary configuration decision;
* :class:`~repro.algorithms.optim.exact.MilpOpt` (registered as
  ``milp-opt``) — an *offline* exact optimum over the whole horizon as a
  single time-expanded MILP, the independent second optimum the
  differential test harness compares against brute force and the OPT DP.

Both plan against the substrate's own per-node ``capacities``, the vector
the simulator enforces with
:func:`~repro.core.routing.route_capacitated`; neither takes a capacity
knob of its own.

Solving runs on :func:`scipy.optimize.milp` (HiGHS) out of the box; the
optional ``[opt]`` extra (``pip install
'repro-flexible-server-allocation[opt]'``) adds a `PuLP
<https://coin-or.github.io/pulp/>`_/CBC backend selected with
``backend="pulp"`` — without the extra that selection raises a graceful
:class:`ImportError` naming the install command.
"""

from repro.algorithms.optim.backends import (
    BACKENDS,
    InfeasibleProblemError,
    Program,
    Solution,
    have_pulp,
    resolve_backend,
)
from repro.algorithms.optim.exact import MilpOpt, plan_cost
from repro.algorithms.optim.placement import (
    PlacementModel,
    build_placement,
    round_fractional,
    unit_loads,
)
from repro.algorithms.optim.policy import IlpPlacement

__all__ = [
    "BACKENDS",
    "IlpPlacement",
    "InfeasibleProblemError",
    "MilpOpt",
    "PlacementModel",
    "Program",
    "Solution",
    "build_placement",
    "have_pulp",
    "plan_cost",
    "resolve_backend",
    "round_fractional",
    "unit_loads",
]
