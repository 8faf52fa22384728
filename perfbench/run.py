"""End-to-end sweep benchmark: one workload's timings, checked outputs and layers.

Usage::

    python3 perfbench/run.py --workload size-sweep [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all

Untraced (``--trace 0``) the run repeats the workload's cold sweep for
``--seconds`` (at least three times) and reports the end-to-end metrics of
``BENCHMARK.json``: the median sweep wall time, policy rounds per second,
the median fresh-process set-up time over several probes, and peak
resident memory. The times are scaled to a fixed host speed read with a
reference kernel around each measurement (see :func:`measure`); the
unscaled medians are printed beside them. Traced (``--trace 1``) it
alternates untraced and traced sweeps for ``--seconds`` and reports the
per-layer metrics, per sweep.

Every sweep's result is checked: against the digest recorded in
``expected.json`` at the default seed, against the same spec on
``SerialBackend`` for the pool and queue workloads, across repetitions,
traced against untraced, and, for ``size-sweep``, a warm-cache re-read
against the cold sweep. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checkout

HERE = Path(__file__).resolve().parent
#: Fresh-process set-up probes per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Fewest cold sweeps an untraced run times, however long they take.
MIN_SWEEPS = 3
#: Seconds :func:`reference_kernel` takes on an uncontended core of the
#: 2-vCPU host the bounds were set on: the speed every time is scaled to.
REFERENCE_S = 0.0125
#: Kernel repetitions per host-speed reading (their median is the reading).
REFERENCE_REPEATS = 13


class SweepFailed(RuntimeError):
    """A sweep raised; the run cannot produce metrics."""


def digest(result) -> str:
    """SHA-256 of a :class:`FigureResult`'s canonical JSON form."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Run:
    """One benchmark run of one workload: its sweeps, checks and tallies.

    ``attempted`` counts replicate tasks plus output checks, ``failed`` the
    tasks of sweeps that raised plus the checks that did not hold.
    """

    def __init__(self, repro, workload, seed: int, scratch: Path) -> None:
        self.repro = repro
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.spec = workload.spec(seed)
        self.backend = workload.make_backend(scratch)
        self.attempted = 0
        self.failed = 0
        self._caches = 0

    def fresh_cache_dir(self) -> Path:
        self._caches += 1
        return self.scratch / f"cache-{self._caches}"

    def sweep(self, backend=None, cache_dir: "Path | None" = None):
        """Run the workload's sweep once; returns ``(result, seconds)``."""
        tasks = self.workload.replicates(self.spec)
        cache = (
            self.workload.make_cache(cache_dir) if cache_dir is not None else None
        )
        self.attempted += tasks
        start = time.perf_counter()
        try:
            result = self.repro.run_sweep(
                self.spec, backend=backend or self.backend, cache=cache
            )
        except Exception as exc:
            self.failed += tasks
            traceback.print_exc()
            raise SweepFailed(f"{self.workload.name} sweep raised {exc!r}") from exc
        return result, time.perf_counter() - start

    def cold_sweep(self):
        """The timed sweep: the workload's backend, a fresh cache if it uses one.

        Returns ``(result, seconds, cache directory or None)``.
        """
        cache_dir = self.fresh_cache_dir() if self.workload.cached else None
        return (*self.sweep(cache_dir=cache_dir), cache_dir)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {self.workload.name}: {name}", file=sys.stderr)

    def check_digests(self, digests: "list[str]", label: str) -> None:
        """All ``digests`` agree, and match the recorded one if there is one."""
        self.check(f"{label} results identical across sweeps", len(set(digests)) == 1)
        expected = _expected()
        if self.seed == expected["seed"] and self.workload.name in expected["digests"]:
            expected = expected["digests"][self.workload.name]
            self.check(f"{label} result matches expected.json", digests[0] == expected)

    def check_serial(self, reference: str) -> None:
        """The workload's backend reproduces ``SerialBackend`` bit for bit."""
        if isinstance(self.backend, self.repro.SerialBackend):
            return
        result, _seconds = self.sweep(backend=self.repro.SerialBackend())
        self.check("backend result == serial result", digest(result) == reference)

    def warm_pass(self, cache_dir: Path, reference: str) -> None:
        """Re-read a completed sweep through a fresh cache over its directory."""
        cache = self.repro.ResultCache(cache_dir)
        result = self.repro.run_sweep(self.spec, backend=self.backend, cache=cache)
        samples = self.repro.collect_point_samples(
            self.spec, backend=self.backend, cache=cache
        )
        self.check(
            "warm pass has no cache misses",
            cache.misses == 0
            and cache.point_misses == 0
            and cache.point_hits == len(self.spec.values)
            and len(samples) == len(self.spec.values),
        )
        self.check("warm result == cold result", digest(result) == reference)


def _expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _benchmark() -> dict:
    return json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def setup_probe(run: Run, index: int) -> dict:
    """Time one fresh-process set-up of the workload (see ``setup_probe.py``)."""
    scratch = run.scratch / f"probe-{index}"
    scratch.mkdir()
    command = [
        sys.executable, str(HERE / "setup_probe.py"),
        "--workload", run.workload.name,
        "--seed", str(run.seed),
        "--scratch", str(scratch),
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.communicate()
    if probe.returncode != 0 or not line:
        raise SweepFailed(f"set-up probe exited with {probe.returncode}")
    phases = json.loads(line)
    phases["setup_s"] = elapsed
    return phases


def reference_kernel() -> int:
    """A fixed mix of interpreter and numpy work, timed to read the host's speed."""
    total = 0
    for i in range(100_000):
        total += i * i
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(5):
        values = np.sqrt(values * 1.0001 + 1.0)
    np.sort(np.random.default_rng(0).random(50_000))
    return total


def _kernel_times(repeats: int) -> "list[float]":
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def host_speed() -> float:
    """Seconds one :func:`reference_kernel` takes now on one core (median of several)."""
    return statistics.median(_kernel_times(REFERENCE_REPEATS))


class HostSpeed:
    """Reads the host's speed on as many cores as the workload keeps busy.

    A pool workload runs on every core at once, and its speed follows the
    slowest of them, so its reading runs the kernel in that many forked
    helper processes at once. The helpers idle between readings; close
    them only after peak RSS has been read, so they never count in it.
    """

    def __init__(self, workers: int) -> None:
        self._workers = workers
        self._pool = (
            multiprocessing.get_context("fork").Pool(workers) if workers > 1 else None
        )

    def read(self) -> float:
        """Seconds one :func:`reference_kernel` takes now (median of several)."""
        if self._pool is None:
            return host_speed()
        per_core = self._pool.map(_kernel_times, [REFERENCE_REPEATS] * self._workers)
        return statistics.median(t for times in per_core for t in times)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()


def another_fits(times: "list[float]", start: float, seconds: float) -> bool:
    """Whether one more sweep, as long as the median so far, ends within ``seconds``."""
    if not times:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's.

    Read before any set-up probe runs or host-speed helper exits, so the
    only children counted are the pool workers (none for in-process
    backends). Pages a forked worker shares with its parent count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"peak RSS KiB: own {own}, largest child {child}", file=sys.stderr)
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(run: Run, seconds: float) -> "tuple[dict, dict]":
    """The untraced run: end-to-end metrics, and the raw wall times behind them.

    The shared host this benchmark was built on changes speed by up to
    1.6x for tens of seconds at a time, which swamps any regression bound.
    So the host's speed is read with :func:`reference_kernel` before and
    after every timed sweep (on as many cores as the sweep uses) and
    before every set-up probe, and each time is scaled to the speed at
    which the kernel takes :data:`REFERENCE_S` seconds.
    """
    times, scaled, digests, setups, scaled_setups = [], [], [], [], []
    host = HostSpeed(run.workload.workers)
    try:
        speed = host.read()
        start = time.perf_counter()
        while len(times) < MIN_SWEEPS or another_fits(times, start, seconds):
            result, elapsed, cache_dir = run.cold_sweep()
            after = host.read()
            times.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / ((speed + after) / 2))
            digests.append(digest(result))
            speed = after
        print("sweep seconds: " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
        rss = peak_rss_mb(run.workload.workers)
        run.check_digests(digests, "untraced")
        run.check_serial(digests[0])
        if cache_dir is not None:
            run.warm_pass(cache_dir, digests[-1])
        for k in range(SETUP_PROBES):
            speed = host_speed()  # a probe is one process
            setups.append(setup_probe(run, k)["setup_s"])
            scaled_setups.append(setups[-1] * REFERENCE_S / speed)
    finally:
        host.close()
    sweep_s = statistics.median(scaled)
    metrics = {
        "sweep_s": sweep_s,
        "policy_rounds_per_s": run.workload.policy_rounds(run.spec) / sweep_s,
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": rss,
    }
    raw = {
        "sweep_wall_s": statistics.median(times),
        "setup_wall_s": statistics.median(setups),
        "host_slowdown": statistics.median(times) / sweep_s,
    }
    return metrics, raw


def trace(run: Run, seconds: float) -> "tuple[dict, dict]":
    """The traced run: per-layer metrics, per sweep (no raw extras)."""
    import trace_layers

    spool = run.scratch / "spool"
    spool.mkdir()
    tracer = trace_layers.Tracer(spool)
    # The first sweep of a process pays lazy imports and solver start-up;
    # it would skew the tracing overhead, so it only feeds the checks.
    result, _seconds, _cache_dir = run.cold_sweep()
    untraced_digests = [digest(result)]
    untraced, traced_times, traced_digests = [], [], []
    start = time.perf_counter()
    pairs: "list[float]" = []
    while another_fits(pairs, start, seconds):
        pair_start = time.perf_counter()
        result, elapsed, _cache_dir = run.cold_sweep()
        untraced.append(elapsed)
        untraced_digests.append(digest(result))
        with trace_layers.traced(tracer):
            result, elapsed, cache_dir = run.cold_sweep()
            if cache_dir is not None:
                run.warm_pass(cache_dir, digest(result))
        tracer.merge_spool()
        traced_times.append(elapsed)
        traced_digests.append(digest(result))
        pairs.append(time.perf_counter() - pair_start)
    run.check_digests(untraced_digests, "untraced")
    run.check_digests(traced_digests, "traced")
    run.check("traced result == untraced result", traced_digests[0] == untraced_digests[0])
    run.check_serial(untraced_digests[0])
    probe = setup_probe(run, 0)
    metrics = trace_layers.layer_metrics(
        tracer, len(traced_times), run.workload.workers, os.cpu_count() or 1
    )
    metrics["api.cache.fingerprint_s"] = probe["fingerprint_s"]
    metrics["setup.import_s"] = probe["import_s"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(untraced)
    )
    return metrics, {}


def environment(workloads) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "workers": {w.name: w.workers for w in workloads.values()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": checkout.git_commit(),
    }


def run_one(args, repro) -> int:
    import sweep_workloads

    workload = sweep_workloads.WORKLOADS[args.workload]
    units = {
        m["name"]: m["unit"]
        for group in ("end_to_end", "per_layer")
        for m in _benchmark()[group]
    }
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=checkout.ROOT))
    try:
        run = Run(repro, workload, args.seed, scratch)
        try:
            metrics, raw = (trace if args.trace else measure)(run, args.seconds)
        except SweepFailed as exc:
            print(exc, file=sys.stderr)
            metrics, raw = {}, {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("environment: " + json.dumps(environment(sweep_workloads.WORKLOADS)))
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    for name, value in raw.items():
        print(f"{workload.name} {name} = {value:.6g} (not gated)")
    print(f"{workload.name} failed_ratio = {run.failed / run.attempted:.6g} ratio")
    correct = run.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Run each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        output = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, cwd=checkout.ROOT
        ).stdout.splitlines()
        print("\n".join(output[:-1]))
        try:
            result = json.loads(output[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    merged["attempted"] = max(1, merged["attempted"])
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="size-sweep, lambda-sweep, optim-ratio, or all",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (default 20110330)"
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        repro = checkout.import_repro()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import sweep_workloads

    if args.seed is None:
        args.seed = sweep_workloads.DEFAULT_SEED
    names = list(sweep_workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in sweep_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    return run_one(args, repro)


if __name__ == "__main__":
    sys.exit(main())
