"""``import repro`` stays light: scipy.optimize loads only when a solve needs it."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_import_repro_leaves_scipy_optimize_unloaded():
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro; print('scipy.optimize' in sys.modules)",
        ],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
