"""Set a workload up in a fresh interpreter, up to the point its sweep can dispatch.

Usage: ``python3 perfbench/setup_probe.py --workload NAME --seed N --scratch DIR``

Imports ``repro``, builds the workload's spec, computes the result cache's
code fingerprint (through the spec's cache key) and creates the backend,
then prints one JSON line with the time of each phase and exits. The
benchmark times the whole process from launch to that line.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()

    checkout.import_repro()
    imported = time.perf_counter()
    from repro.api import ResultCache

    import sweep_workloads

    workload = sweep_workloads.WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    built = time.perf_counter()
    ResultCache(args.scratch / "cache").key_for(spec)
    fingerprinted = time.perf_counter()
    workload.make_backend(args.scratch)
    ready = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - _START,
                "spec_s": built - imported,
                "fingerprint_s": fingerprinted - built,
                "backend_s": ready - fingerprinted,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
