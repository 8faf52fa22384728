"""Property tests for the optimizer backends: bounds, determinism, extras.

Three families:

* **LP lower bound** — on every randomly built placement program, the LP
  relaxation's objective lower-bounds the MILP's (dropping integrality can
  only enlarge the feasible set).
* **Determinism** — the same spec + seed produce *bit-identical* ledgers in
  two separate processes: the policy consumes no RNG and the HiGHS solve is
  deterministic, so CRN-paired comparisons involving ILP/LP columns stay
  valid across machines and cache reloads.
* **Fast scipy path** — with HiGHS's feasibility-jump heuristic off and
  the prebuilt CSC matrix, ``Program.solve`` agrees with a plain
  ``milp`` call, lets no warning escape, and hands HiGHS the very arrays
  the sparse-format conversion chain would build.
* **Backend plumbing** — ``auto`` resolution, the graceful ImportError
  naming the ``[opt]`` extra when pulp is absent, and scipy/pulp agreement
  when it is present (each side skip-aware, so the suite is green both with
  and without the extra).
"""

import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.optim import (
    BACKENDS,
    IlpPlacement,
    MilpOpt,
    build_placement,
    have_pulp,
    resolve_backend,
)
from repro.algorithms.optim.backends import InfeasibleProblemError, Program
from repro.core.costs import CostModel
from repro.core.simulator import simulate
from repro.topology.generators import line
from repro.workload.base import Trace

SLOW = dict(deadline=None)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _random_placement(
    seed: int, n: int, occupied_mask: int, max_servers: "int | None" = None
):
    substrate = line(n, seed=seed, unit_latency=False,
                     latency_range=(5.0, 20.0))
    rng = np.random.default_rng(seed)
    demand = rng.integers(0, n, size=int(rng.integers(1, 4 * n)))
    occupied = frozenset(
        node for node in range(n) if occupied_mask & (1 << node)
    )
    return build_placement(
        substrate,
        CostModel.paper_default(),
        demand,
        window_rounds=4,
        epoch_rounds=6,
        occupied=occupied,
        capacities=None if seed % 2 else np.full(n, 3.0),
        max_servers=max_servers,
    )


class TestRelaxationBound:
    @settings(max_examples=20, **SLOW)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 6),
        occupied_mask=st.integers(0, 63),
    )
    def test_lp_objective_lower_bounds_milp(self, seed, n, occupied_mask):
        model = _random_placement(seed, n, occupied_mask)
        lp = model.program.solve(relax=True)
        milp = model.program.solve(relax=False)
        assert lp.objective <= milp.objective + 1e-9

    @settings(max_examples=15, **SLOW)
    @given(seed=st.integers(0, 10_000))
    def test_lp_bound_holds_on_random_programs(self, seed):
        """The invariant is a property of the Program layer itself: on
        arbitrary feasible MILPs, relaxing can only lower the optimum."""
        rng = np.random.default_rng(seed)
        program = Program()
        n_vars = int(rng.integers(2, 8))
        indices = [
            program.variable(
                objective=float(rng.uniform(-5.0, 5.0)),
                ub=float(rng.uniform(1.0, 3.0)),
                integer=bool(rng.random() < 0.7),
            )
            for _ in range(n_vars)
        ]
        for _ in range(int(rng.integers(1, 5))):
            chosen = rng.choice(indices, size=rng.integers(1, n_vars + 1),
                                replace=False)
            terms = [(int(i), float(rng.uniform(0.1, 2.0))) for i in chosen]
            program.constrain(terms, hi=float(rng.uniform(2.0, 8.0)))
        lp = program.solve(relax=True)
        milp = program.solve(relax=False)
        assert lp.objective <= milp.objective + 1e-9


def _reference_matrix(program: Program):
    """The constraint matrix through the coo -> csr -> csc conversion chain."""
    from scipy import sparse

    rows, cols, vals = [], [], []
    for r, (idx, coef, _lo, _hi) in enumerate(program._rows):
        rows.extend([r] * idx.size)
        cols.extend(idx.tolist())
        vals.extend(coef.tolist())
    return sparse.csc_array(sparse.csr_matrix(
        (vals, (rows, cols)),
        shape=(program.n_constraints, program.n_variables),
    ))


def _reference_solve(program: Program, relax: bool):
    """``scipy.optimize.milp`` with nothing but the zero MIP gap."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    integrality = np.asarray(program._int, dtype=np.int64)
    return milp(
        c=np.asarray(program._obj),
        constraints=[LinearConstraint(
            _reference_matrix(program),
            [row[2] for row in program._rows],
            [row[3] for row in program._rows],
        )],
        integrality=np.zeros_like(integrality) if relax else integrality,
        bounds=Bounds(np.asarray(program._lb), np.asarray(program._ub)),
        options={"mip_rel_gap": 0.0},
    )


class TestScipyFastPath:
    @settings(max_examples=40, **SLOW)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        occupied_mask=st.integers(0, 255),
        max_servers=st.sampled_from([None, 1, 2, 3]),
        relax=st.booleans(),
    )
    def test_agrees_with_a_plain_milp_call(
        self, seed, n, occupied_mask, max_servers, relax
    ):
        """Skipping feasibility jump changes neither the optimum nor the
        active set, with and without capacities and a fleet bound."""
        model = _random_placement(seed, n, occupied_mask, max_servers)
        reference = _reference_solve(model.program, relax)
        if not reference.success:
            with pytest.raises(InfeasibleProblemError):
                model.program.solve(relax=relax)
            return
        solution = model.program.solve(relax=relax)
        assert solution.objective == pytest.approx(
            reference.fun, rel=1e-9, abs=1e-9
        )
        assert model.active_from(solution.values, relax) == model.active_from(
            reference.x, relax
        )

    def test_no_warning_escapes(self):
        model = _random_placement(3, 5, 0b00101, max_servers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            milp = model.program.solve(relax=False)
            lp = model.program.solve(relax=True)
        assert lp.objective <= milp.objective + 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_csc_arrays_equal_the_conversion_chain(self, seed):
        """The prebuilt CSC matrix is byte-identical to the one the
        coo -> csr -> csc chain builds, unsorted terms and zeros included."""
        rng = np.random.default_rng(seed)
        program = Program()
        n_vars = int(rng.integers(1, 30))
        for _ in range(n_vars):
            program.variable()
        for _ in range(int(rng.integers(1, 25))):
            chosen = rng.choice(n_vars, size=int(rng.integers(1, n_vars + 1)),
                                replace=False)
            coefficients = rng.normal(size=chosen.size)
            coefficients[rng.random(chosen.size) < 0.1] = 0.0
            program.constrain(
                list(zip(chosen.tolist(), coefficients.tolist())), hi=1.0
            )
        matrix, _lows, _highs = program._constraint_matrix()
        expected = _reference_matrix(program)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_a_row_names_each_existing_variable_once(self):
        program = Program()
        x = program.variable()
        y = program.variable()
        with pytest.raises(ValueError, match="twice"):
            program.constrain([(x, 1.0), (y, 1.0), (x, 2.0)])
        with pytest.raises(ValueError, match="outside"):
            program.constrain([(x, 1.0), (y + 1, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            program.constrain([(-1, 1.0)])


def _hash_result(result) -> str:
    payload = {
        "total": result.total_cost.hex(),
        "latency": [v.hex() for v in result.latency_cost.tolist()],
        "load": [v.hex() for v in result.load_cost.tolist()],
        "running": [v.hex() for v in result.running_cost.tolist()],
        "migration": [v.hex() for v in result.migration_cost.tolist()],
        "creation": [v.hex() for v in result.creation_cost.tolist()],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


_DETERMINISM_SCRIPT = """
import hashlib, json
import numpy as np
import repro.algorithms, repro.workload
from repro.algorithms.optim import IlpPlacement
from repro.core.costs import CostModel
from repro.core.simulator import simulate
from repro.topology.generators import line
from repro.workload.commuter import CommuterScenario

substrate = line(5, seed=7, unit_latency=False, latency_range=(5.0, 20.0))
trace = CommuterScenario(substrate, period=4, sojourn=2).generate(
    30, np.random.default_rng(3)
)
result = simulate(
    substrate,
    IlpPlacement(epoch=5, relax={relax}),
    trace,
    CostModel.paper_default(),
    seed=0,
)
payload = {{
    "total": result.total_cost.hex(),
    "latency": [v.hex() for v in result.latency_cost.tolist()],
    "load": [v.hex() for v in result.load_cost.tolist()],
    "running": [v.hex() for v in result.running_cost.tolist()],
    "migration": [v.hex() for v in result.migration_cost.tolist()],
    "creation": [v.hex() for v in result.creation_cost.tolist()],
}}
print(hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest())
"""


class TestSolverDeterminism:
    @pytest.mark.parametrize("relax", [False, True])
    def test_bit_identical_ledger_across_processes(self, relax):
        """Same spec + seed → the same ledger, down to every float bit,
        in two fresh interpreter processes (and in this one)."""
        script = _DETERMINISM_SCRIPT.format(relax=relax)
        digests = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

        substrate = line(5, seed=7, unit_latency=False,
                         latency_range=(5.0, 20.0))
        from repro.workload.commuter import CommuterScenario
        trace = CommuterScenario(substrate, period=4, sojourn=2).generate(
            30, np.random.default_rng(3)
        )
        result = simulate(
            substrate,
            IlpPlacement(epoch=5, relax=relax),
            trace,
            CostModel.paper_default(),
            seed=0,
        )
        assert _hash_result(result) == digests[0]


class TestBackendPlumbing:
    def test_backend_names(self):
        assert set(BACKENDS) == {"scipy", "pulp", "auto"}
        assert resolve_backend("scipy") == "scipy"
        with pytest.raises(ValueError, match="unknown solver backend"):
            resolve_backend("glpk")

    def test_auto_resolution_matches_availability(self):
        assert resolve_backend("auto") == (
            "pulp" if have_pulp() else "scipy"
        )

    @pytest.mark.skipif(have_pulp(), reason="pulp installed: nothing to gate")
    def test_missing_pulp_raises_graceful_importerror(self):
        with pytest.raises(ImportError, match=r"pip install .*\[opt\]"):
            resolve_backend("pulp")

    @pytest.mark.skipif(have_pulp(), reason="pulp installed: nothing to gate")
    def test_policy_construction_fails_fast_without_pulp(self):
        with pytest.raises(ImportError, match=r"\[opt\]"):
            IlpPlacement(backend="pulp")

    @pytest.mark.skipif(have_pulp(), reason="pulp installed: nothing to gate")
    def test_milp_opt_solve_fails_gracefully_without_pulp(self):
        """MilpOpt defers the import to solve time; still the same message."""
        substrate = line(2, seed=0)
        trace = Trace((np.zeros(1, np.int64),))
        with pytest.raises(ImportError, match=r"\[opt\]"):
            MilpOpt.solve(substrate, trace, backend="pulp")

    @pytest.mark.skipif(not have_pulp(), reason="needs the [opt] extra")
    def test_pulp_agrees_with_scipy(self):
        """Both backends solve the same program to proven optimality."""
        model = _random_placement(11, 4, 0b0101)
        scipy_solution = model.program.solve(backend="scipy")
        pulp_solution = model.program.solve(backend="pulp")
        assert pulp_solution.backend == "pulp"
        assert scipy_solution.objective == pytest.approx(
            pulp_solution.objective, rel=1e-6
        )
        assert model.active_from(scipy_solution.values, relax=False) == \
            model.active_from(pulp_solution.values, relax=False)

    @pytest.mark.skipif(not have_pulp(), reason="needs the [opt] extra")
    def test_pulp_milp_opt_matches_scipy_bitwise(self):
        """MilpOpt replays its plan, so agreeing plans give equal costs."""
        substrate = line(3, seed=5, unit_latency=False,
                         latency_range=(5.0, 20.0))
        rng = np.random.default_rng(5)
        trace = Trace(tuple(
            rng.integers(0, 3, size=rng.integers(0, 4)) for _ in range(4)
        ))
        scipy_cost, _ = MilpOpt.solve(substrate, trace, backend="scipy")
        pulp_cost, _ = MilpOpt.solve(substrate, trace, backend="pulp")
        assert scipy_cost == pulp_cost
