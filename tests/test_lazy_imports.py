"""``import repro`` stays light: scipy.optimize loads only when a solve needs
it, and confidence intervals never load scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this ``repro``."""
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_repro_leaves_scipy_optimize_unloaded():
    assert _run_fresh(
        "import sys, repro; print('scipy.optimize' in sys.modules)"
    ) == "False"


def test_confidence_intervals_leave_scipy_stats_unloaded():
    assert _run_fresh(
        "import sys\n"
        "from repro.analysis.stats import confidence_interval\n"
        "values = [1.0, 2.5, 2.0, 4.0, 3.5]\n"
        "confidence_interval(values, 0.95, 't')\n"
        "confidence_interval(values, 0.95, 'bootstrap', n_boot=200)\n"
        "print('scipy.stats' in sys.modules)"
    ) == "False"


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def _run_cli_fresh(*args: str) -> str:
    """Run ``python -m repro.experiments *args``; print the scipy modules."""
    return _run_fresh(
        "import runpy, sys\n"
        f"sys.argv = ['repro.experiments', *{list(args)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro.experiments', run_name='__main__')\n"
        "except SystemExit as exit_:\n"
        "    assert not exit_.code, exit_.code\n"
        f"{_SCIPY_LOADED}"
    ).splitlines()[-1]


def test_import_repro_loads_no_scipy_module():
    assert _run_fresh(f"import sys, repro; {_SCIPY_LOADED}") == "[]"


def test_list_loads_no_scipy_module():
    assert _run_cli_fresh("--list") == "[]"


def test_warm_cache_run_loads_no_scipy_module(tmp_path):
    args = (
        "run", "--policy", "onth", "--topology", "erdos_renyi:n=20",
        "--horizon", "20", "--runs", "1", "--cache-dir", str(tmp_path),
    )
    _run_cli_fresh(*args)  # cold: fills the cache
    assert any(tmp_path.rglob("*.json"))
    assert _run_cli_fresh(*args) == "[]"


def test_preflight_loads_csgraph_before_any_worker_forks():
    # The pool backends fork after the pre-flight, so its substrate builds
    # are where the workers inherit scipy's sparse-graph modules from.
    assert _run_fresh(
        "import sys\n"
        "from repro.api.experiment import _preflight\n"
        "from repro.api.specs import SweepSpec\n"
        "before = 'scipy.sparse.csgraph' in sys.modules\n"
        "_preflight(SweepSpec.from_dict({\n"
        "    'experiment': {\n"
        "        'topology': {'kind': 'erdos_renyi', 'params': {'n': 20}},\n"
        "        'scenario': {'kind': 'commuter'},\n"
        "        'policies': [{'kind': 'onth'}],\n"
        "        'horizon': 10,\n"
        "    },\n"
        "    'parameter': 'topology.n', 'values': [20, 30], 'runs': 1,\n"
        "}))\n"
        "print(before, 'scipy.sparse.csgraph' in sys.modules)"
    ) == "False True"
