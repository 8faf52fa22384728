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
