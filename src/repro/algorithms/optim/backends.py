"""Solver backends for the optimizer-backed policy family.

The placement models of this package are ordinary mixed-integer linear
programs.  Two interchangeable backends solve them:

* ``"scipy"`` — :func:`scipy.optimize.milp` (the HiGHS solver scipy already
  ships); always available, the default.  The MIP gap is pinned to zero so
  tiny instances are solved to *proven* optimality — the differential tests
  against brute-force enumeration rely on that.  MIP solves also switch off
  HiGHS's *feasibility jump* primal heuristic: recent HiGHS builds run it
  before the root LP at a roughly fixed ~10 ms per solve, several times
  the whole solve of the placement programs, whose root LP is already
  integral.  The zero gap still proves optimality, so the answers do not
  change.  The constraint matrix goes to HiGHS as one prebuilt CSC array;
  ``scipy.sparse`` and ``scipy.optimize`` load on the first solve, not on
  import.
* ``"pulp"`` — the `PuLP <https://coin-or.github.io/pulp/>`_ modeller with
  its bundled CBC solver, behind the optional ``[opt]`` extra
  (``pip install 'repro-flexible-server-allocation[opt]'``).  Selecting it
  without the extra raises a graceful :class:`ImportError` naming the
  install command instead of a bare module-not-found deep inside a sweep.
* ``"auto"`` — ``pulp`` when importable, else ``scipy``.  Note that cache
  keys fold in the *requested* backend string, so ``auto`` specs hit the
  same cache entries on machines with and without the extra; both backends
  solve the same program to optimality, making the results agree (tested
  where pulp is installed).

Programs are built once through the tiny :class:`Program` accumulator and
handed to whichever backend was requested; ``relax=True`` drops every
integrality marker, turning the MILP into its LP relaxation (whose optimum
lower-bounds the MILP optimum — a tested invariant).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported lazily at runtime, when a program is solved
    from scipy import sparse

__all__ = [
    "BACKENDS",
    "InfeasibleProblemError",
    "Program",
    "Solution",
    "have_pulp",
    "resolve_backend",
]

#: Recognised values for the ``backend`` solver knob.
BACKENDS = ("scipy", "pulp", "auto")

#: Start of the warnings scipy's ``milp`` (its option check) and HiGHS
#: builds older than the option raise for the heuristic switch.
_FEASIBILITY_JUMP_WARNING = (
    r"Unrecognized options detected: \{'mip_heuristic_run_feasibility_jump'"
)

#: The graceful message pointing at the optional extra.
_PULP_HINT = (
    "the 'pulp' solver backend is not installed; install the optional "
    "extra with  pip install 'repro-flexible-server-allocation[opt]'  "
    "(or keep backend='scipy', which needs only the base install)"
)


class InfeasibleProblemError(RuntimeError):
    """The placement program has no feasible solution (or the solver failed)."""


def have_pulp() -> bool:
    """Whether the optional ``pulp`` backend is importable."""
    try:
        import pulp  # noqa: F401  (availability probe only)
    except ImportError:
        return False
    return True  # pragma: no cover - requires the [opt] extra


def _import_pulp():
    try:
        import pulp
    except ImportError as error:
        raise ImportError(_PULP_HINT) from error
    return pulp  # pragma: no cover - requires the [opt] extra


def resolve_backend(backend: str) -> str:
    """Validate ``backend`` and resolve ``"auto"`` to a concrete solver.

    Raises:
        ValueError: unknown backend name.
        ImportError: ``"pulp"`` requested without the ``[opt]`` extra
            installed (the message names the install command).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown solver backend {backend!r}; choose from {BACKENDS}"
        )
    if backend == "auto":
        return "pulp" if have_pulp() else "scipy"
    if backend == "pulp":
        _import_pulp()  # fail fast, gracefully, at construction time
    return backend


@dataclass(frozen=True)
class Solution:
    """An optimal solution: objective value and one value per variable."""

    objective: float
    values: np.ndarray
    backend: str


@dataclass
class Program:
    """A minimisation MILP accumulated variable by variable, row by row.

    ``min cᵀx`` subject to two-sided linear rows ``lo ≤ Ax ≤ hi`` and
    variable bounds; variables flagged ``integer`` are integral unless the
    solve relaxes them.  Deliberately tiny: just enough structure for the
    placement models, mapped 1:1 onto either backend.
    """

    _obj: list = field(default_factory=list)
    _lb: list = field(default_factory=list)
    _ub: list = field(default_factory=list)
    _int: list = field(default_factory=list)
    #: rows as (variable indices, coefficients, lo, hi)
    _rows: list = field(default_factory=list)

    def variable(
        self,
        objective: float = 0.0,
        lb: float = 0.0,
        ub: float = 1.0,
        integer: bool = False,
    ) -> int:
        """Add one variable; returns its column index."""
        self._obj.append(float(objective))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._int.append(bool(integer))
        return len(self._obj) - 1

    def constrain(
        self,
        terms: "list[tuple[int, float]]",
        lo: float = -np.inf,
        hi: float = np.inf,
    ) -> None:
        """Add the row ``lo ≤ Σ coef·x[idx] ≤ hi``.

        Raises :class:`ValueError` when ``terms`` is empty, names a
        variable twice, or names one not yet added.
        """
        if not terms:
            raise ValueError("a constraint needs at least one term")
        idx, coef = zip(*terms)
        # The CSC build in _constraint_matrix places every term as its own
        # entry, so a row must name existing variables, each at most once.
        if len(set(idx)) != len(idx):
            raise ValueError(f"a constraint names a variable twice: {idx}")
        if min(idx) < 0 or max(idx) >= len(self._obj):
            raise ValueError(
                f"a constraint names a variable outside 0..{len(self._obj) - 1}"
                f": {idx}"
            )
        self._rows.append(
            (np.asarray(idx, dtype=np.int64),
             np.asarray(coef, dtype=np.float64),
             float(lo), float(hi))
        )

    @property
    def n_variables(self) -> int:
        return len(self._obj)

    @property
    def n_constraints(self) -> int:
        return len(self._rows)

    # -- solving ----------------------------------------------------------------

    def solve(
        self,
        backend: str = "scipy",
        relax: bool = False,
        time_limit: "float | None" = None,
    ) -> Solution:
        """Solve to proven optimality; ``relax`` drops all integrality.

        Raises :class:`InfeasibleProblemError` when no feasible point
        exists (or the solver gives up within ``time_limit``).
        """
        backend = resolve_backend(backend)
        if self.n_variables == 0:
            return Solution(0.0, np.zeros(0), backend)
        if backend == "pulp":
            return self._solve_pulp(relax, time_limit)  # pragma: no cover
        return self._solve_scipy(relax, time_limit)

    def _constraint_matrix(
        self,
    ) -> "tuple[sparse.csc_array, np.ndarray, np.ndarray]":
        """The rows as one CSC array plus their lower and upper bounds.

        Built straight from the row arrays: entries are ordered by column
        and, within a column, by row (a stable sort of the row-major
        entries), which is the canonical form HiGHS receives — ``milp``'s
        own ``csc_array(A)`` then converts nothing.
        """
        from scipy import sparse

        idx, coef, lows, highs = zip(*self._rows)
        cols = np.concatenate(idx)
        order = np.argsort(cols, kind="stable")
        rows_of = np.repeat(
            np.arange(len(idx), dtype=np.int32), [i.size for i in idx]
        )
        indptr = np.zeros(self.n_variables + 1, dtype=np.int32)
        np.cumsum(
            np.bincount(cols, minlength=self.n_variables), out=indptr[1:]
        )
        matrix = sparse.csc_array(
            (np.concatenate(coef)[order], rows_of[order], indptr),
            shape=(len(idx), self.n_variables),
        )
        return (
            matrix,
            np.array(lows, dtype=np.float64),
            np.array(highs, dtype=np.float64),
        )

    def _solve_scipy(self, relax: bool, time_limit: "float | None") -> Solution:
        # Imported here: scipy.optimize costs ~0.2 s to import, and most
        # runs never solve a program.
        from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning, milp

        integrality = np.zeros(self.n_variables, dtype=np.int64)
        if not relax:
            integrality[np.asarray(self._int, dtype=bool)] = 1
        constraints = []
        if self._rows:
            matrix, lows, highs = self._constraint_matrix()
            constraints.append(LinearConstraint(matrix, lows, highs))
        # mip_rel_gap=0: solve to *proven* optimality — the differential
        # tests compare against brute-force enumeration bit-for-bit, so the
        # default 1e-4 gap (good enough but not optimal) is not acceptable.
        options: dict = {"mip_rel_gap": 0.0}
        if integrality.any():
            # Feasibility jump costs ~10 ms per solve whatever the program,
            # and these programs' root LP is integral; mip_rel_gap=0 still
            # proves optimality without it.
            options["mip_heuristic_run_feasibility_jump"] = False
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        with warnings.catch_warnings():
            # scipy warns about any option it does not list, and HiGHS
            # builds older than the option warn and ignore it.
            warnings.filterwarnings(
                "ignore", _FEASIBILITY_JUMP_WARNING, RuntimeWarning
            )
            warnings.filterwarnings(
                "ignore", _FEASIBILITY_JUMP_WARNING, OptimizeWarning
            )
            result = milp(
                c=np.asarray(self._obj, dtype=np.float64),
                constraints=constraints,
                integrality=integrality,
                bounds=Bounds(
                    np.asarray(self._lb, dtype=np.float64),
                    np.asarray(self._ub, dtype=np.float64),
                ),
                options=options,
            )
        if not result.success or result.x is None:
            raise InfeasibleProblemError(
                f"placement program has no optimal solution: {result.message}"
            )
        return Solution(float(result.fun), np.asarray(result.x), "scipy")

    # Only exercised with the [opt] extra installed; the coverage job
    # measures the base install, where the agreement tests auto-skip.
    def _solve_pulp(  # pragma: no cover
        self, relax: bool, time_limit: "float | None"
    ) -> Solution:
        pulp = _import_pulp()
        problem = pulp.LpProblem("placement", pulp.LpMinimize)
        variables = [
            pulp.LpVariable(
                f"v{i}",
                lowBound=self._lb[i],
                upBound=self._ub[i],
                cat=(
                    pulp.LpInteger
                    if self._int[i] and not relax
                    else pulp.LpContinuous
                ),
            )
            for i in range(self.n_variables)
        ]
        problem += pulp.lpSum(
            coef * variables[i]
            for i, coef in enumerate(self._obj)
            if coef != 0.0
        )
        for idx, coef, lo, hi in self._rows:
            expr = pulp.lpSum(
                float(c) * variables[int(i)] for i, c in zip(idx, coef)
            )
            if lo == hi:
                problem += expr == lo
            else:
                if np.isfinite(hi):
                    problem += expr <= hi
                if np.isfinite(lo):
                    problem += expr >= lo
        solver = pulp.PULP_CBC_CMD(
            msg=0,
            timeLimit=time_limit,
            gapRel=0.0,  # proven optimality, matching the scipy backend
        )
        status = problem.solve(solver)
        if pulp.LpStatus[status] != "Optimal":
            raise InfeasibleProblemError(
                "placement program has no optimal solution: "
                f"{pulp.LpStatus[status]}"
            )
        values = np.array(
            [float(v.varValue or 0.0) for v in variables], dtype=np.float64
        )
        return Solution(float(pulp.value(problem.objective)), values, "pulp")
