"""Per-layer spans for the benchmark's traced run.

The traced run wraps the public functions and methods of each ``repro``
layer with timing spans, runs a sweep, and restores every wrapped
attribute afterwards; ``src/`` is never edited. Spans nest: a span's *self
time* is its duration minus the part its child spans cover, so APSP run
lazily inside trace generation is reported once, as ``topology.apsp``, and
``decide`` is excluded from ``core.simulate``.

Spans recorded in process-pool workers travel back through a spool
directory: a forked worker starts a fresh span tree, and after each of its
outermost spans it rewrites ``<spool>/<pid>.json`` with its running totals.
The parent merges the files once the sweep has returned (the pool has
joined its workers by then).

Only the ``fork`` start method carries the wrappers into workers; under
``spawn`` worker-side layers would go unrecorded.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# -- span recording ----------------------------------------------------------


class Tracer:
    """Aggregated span self times, call counts and counters for one process.

    Attributes:
        self_s: span name → summed self time in seconds.
        wall_s: span name → summed duration of its outermost occurrences
            (a span nested in a span of the same name adds nothing).
        calls: span name → number of outermost occurrences.
        counts: counter name → summed value.
        peaks: counter name → largest value seen.
        root_s: summed duration of spans opened with no parent.

    Args:
        spool: directory where forked worker processes write their totals;
            ``None`` records in this process only.
    """

    def __init__(self, spool: "Path | None" = None) -> None:
        self.spool = spool
        self._worker = False
        self._reset()
        # A forked pool worker inherits this tracer with the parent's
        # totals and open spans; it must record only its own work.
        os.register_at_fork(
            after_in_child=functools.partial(_become_worker, weakref.ref(self))
        )

    def _reset(self) -> None:
        self._stack: list = []  # [name, start, child seconds]
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.wall_s: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        self.counts: "dict[str, float]" = defaultdict(float)
        self.peaks: "dict[str, float]" = {}
        self.root_s = 0.0

    def enter(self, name: str) -> None:
        """Open span ``name`` as a child of the innermost open span."""
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        """Close the innermost open span."""
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        if not self.inside(name):
            self.wall_s[name] += duration
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
            if self._worker and self.spool is not None:
                self._flush()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is currently open."""
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value`` if it is larger."""
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    def snapshot(self) -> dict:
        """The totals as plain JSON-safe data."""
        return {
            "self_s": dict(self.self_s),
            "wall_s": dict(self.wall_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "root_s": self.root_s,
        }

    def _flush(self) -> None:
        path = self.spool / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def merge(self, snapshot: dict) -> None:
        """Add another process's :meth:`snapshot` to these totals."""
        for field in ("self_s", "wall_s", "calls", "counts"):
            mine = getattr(self, field)
            for name, value in snapshot[field].items():
                mine[name] += value
        for name, value in snapshot["peaks"].items():
            self.peak(name, value)
        self.root_s += snapshot["root_s"]

    def merge_spool(self) -> int:
        """Merge and delete every worker span file; returns how many."""
        if self.spool is None:
            return 0
        merged = 0
        for path in sorted(self.spool.glob("*.json")):
            self.merge(json.loads(path.read_text()))
            path.unlink()
            merged += 1
        return merged


def _become_worker(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer._reset()
        tracer._worker = True


def span(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` so each call is span ``name``.

    ``after(result, args, kwargs)`` runs once the span has closed, for
    counters derived from the call's result.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


# -- installing wrappers -------------------------------------------------------


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: "list[tuple[object, str, object]]" = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name`` (a class ``__dict__`` entry or module attribute)."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def function(self, original, wrapper) -> None:
        """Rebind every ``repro`` module attribute that is ``original``.

        Functions imported by name (``from x import f``) live in several
        module namespaces; each binding is replaced.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @property
    def originals(self) -> "list[tuple[object, str, object]]":
        """``(owner, name, original)`` for every replacement made."""
        return list(self._undo)


def _subclasses(cls) -> "list[type]":
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


@contextmanager
def traced(tracer: Tracer):
    """Wrap every traced layer for the ``with`` block; yields the :class:`Patches`.

    Every wrapped attribute is the original object again when the block
    exits, however it exits.
    """
    patches = Patches()
    try:
        _install(tracer, patches)
        yield patches
    finally:
        patches.restore()


def _install(tracer: Tracer, patches: Patches) -> None:
    """Replace each layer's public functions and methods with spans."""
    import repro.api.cache as cache_module
    import repro.api.experiment as experiment_module
    import repro.api.metrics as metrics_module
    import repro.core.batch as batch_module
    import repro.core.simulator as simulator_module
    import repro.experiments.runner as runner_module
    import repro.workload.base as workload_module
    from repro.algorithms.opt import Opt
    from repro.algorithms.optim.backends import Program
    from repro.api.execution import ExecutionBackend
    from repro.api.specs import TopologySpec
    from repro.core.policy import AllocationPolicy
    from repro.queue.broker import Broker
    from repro.topology.substrate import Substrate

    # topology: substrate construction and the lazy all-pairs distances
    patches.set(
        TopologySpec, "build",
        span(tracer, "topology.build", TopologySpec.__dict__["build"]),
    )
    distances = Substrate.__dict__["distances"]

    def traced_distances(substrate):
        if substrate._distances is not None:
            return distances.fget(substrate)
        tracer.enter("topology.apsp")
        try:
            return distances.fget(substrate)
        finally:
            tracer.exit()
            tracer.count("topology.apsp_calls")
            tracer.count("topology.apsp_rows", substrate.n)

    patches.set(Substrate, "distances", property(traced_distances, doc=distances.__doc__))

    # workload: trace generation, and which APSP rows the trace needs
    def after_trace(trace, args, kwargs):
        tracer.count("workload.requests", trace.total_requests)
        substrate = getattr(args[0], "substrate", None)
        if substrate is None or substrate._distances is None:
            return
        used = {substrate.center}
        if trace.total_requests:
            used.update(np.unique(np.concatenate(trace.rounds)).tolist())
        tracer.count("topology.apsp_rows_used", len(used))

    patches.function(
        workload_module.generate_trace,
        span(tracer, "workload.trace", workload_module.generate_trace, after_trace),
    )

    # core: the round loops, the distance gather and its epoch memo
    def after_simulate(result, args, kwargs):
        if tracer.inside("core.simulate"):
            return  # the scalar fallback's result is counted by its caller
        tracer.count("core.simulate_calls")
        tracer.count("core.policy_rounds", result.rounds)
        tracer.count("algorithms.migrations", int(result.migrations.sum()))
        tracer.count("algorithms.creations", int(result.creations.sum()))
        changed = (
            (result.migrations > 0)
            | (result.creations > 0)
            | (np.diff(result.n_active, prepend=result.n_active[:1]) != 0)
            | (np.diff(result.n_inactive, prepend=result.n_inactive[:1]) != 0)
        )
        tracer.count("algorithms.transitions", int(changed.sum()))

    scalar = simulator_module.simulate
    traced_scalar = span(tracer, "core.simulate", scalar, after_simulate)

    @functools.wraps(scalar)
    def traced_simulate(*args, **kwargs):
        # the scalar loop running inside simulate_batched is its fallback
        if tracer.inside("core.simulate"):
            tracer.count("core.scalar_fallback_calls")
        return traced_scalar(*args, **kwargs)

    patches.function(scalar, traced_simulate)
    patches.function(
        batch_module.simulate_batched,
        span(tracer, "core.simulate", batch_module.simulate_batched, after_simulate),
    )
    gather_cls = batch_module.DistanceGather
    columns = gather_cls.__dict__["columns"]

    def traced_columns(gather):
        if gather._columns is not None:
            return gather._columns
        tracer.enter("core.gather")
        try:
            value = columns.fget(gather)
        finally:
            tracer.exit()
        tracer.peak("core.gather_mb", value.nbytes / 2**20)
        return value

    patches.set(gather_cls, "columns", property(traced_columns, doc=columns.__doc__))
    memo_get = gather_cls.__dict__["memo_get"]

    @functools.wraps(memo_get)
    def traced_memo_get(gather, key):
        value = memo_get(gather, key)
        tracer.count("core.memo_calls")
        if value is not None:
            tracer.count("core.memo_hits")
        return value

    patches.set(gather_cls, "memo_get", traced_memo_get)

    # algorithms: every policy's decide, the OPT DP and the MILP/LP solves
    for cls in _subclasses(AllocationPolicy):
        if "decide" in cls.__dict__:
            patches.set(
                cls, "decide",
                span(tracer, "algorithms.decide", cls.__dict__["decide"]),
            )
    # Opt.solve and the simulator's OPT policy both run the DP in _solve
    patches.set(
        Opt, "_solve", span(tracer, "algorithms.opt_solve", Opt.__dict__["_solve"])
    )
    patches.set(
        Program, "solve",
        span(tracer, "algorithms.optim_solve", Program.__dict__["solve"]),
    )

    # api: metrics, the result cache, backend dispatch and replicates
    patches.function(
        metrics_module.evaluate_metrics,
        span(tracer, "api.metrics", metrics_module.evaluate_metrics),
    )

    def after_store(path, args, kwargs):
        tracer.count("api.cache.bytes_written", os.path.getsize(path))

    for name in ("store", "store_point", "store_point_extension"):
        patches.set(
            cache_module.ResultCache, name,
            span(tracer, "api.cache.store",
                 cache_module.ResultCache.__dict__[name], after_store),
        )

    def after_load_point(samples, args, kwargs):
        if samples is not None:
            tracer.count("api.cache.point_hits")

    for name in ("load", "load_point", "load_point_extension"):
        patches.set(
            cache_module.ResultCache, name,
            span(tracer, "api.cache.load",
                 cache_module.ResultCache.__dict__[name],
                 after_load_point if name == "load_point" else None),
        )

    for cls in _subclasses(ExecutionBackend):
        if "run_replicates" in cls.__dict__:
            patches.set(
                cls, "run_replicates",
                _traced_dispatch(tracer, cls.__dict__["run_replicates"]),
            )
    patches.set(
        experiment_module.SpecReplicate, "__call__",
        span(tracer, "api.replicate",
             experiment_module.SpecReplicate.__dict__["__call__"]),
    )
    patches.function(
        experiment_module.run_sweep,
        span(tracer, "api.sweep", experiment_module.run_sweep),
    )
    patches.function(
        experiment_module.collect_point_samples,
        span(tracer, "api.collect_point_samples",
             experiment_module.collect_point_samples),
    )

    # experiments: sample aggregation, paired comparisons included
    for fn in (runner_module.aggregate_samples, runner_module.aggregate_point_summaries):
        patches.function(fn, span(tracer, "experiments.aggregate", fn))

    # queue: every broker round trip the queue backend makes
    for name in ("enqueue_job", "tasks_for", "lease_task", "complete", "delete_job"):
        patches.set(Broker, name, span(tracer, "queue.broker", Broker.__dict__[name]))


def _traced_dispatch(tracer: Tracer, fn):
    """``run_replicates`` as span ``api.execution.run_replicates``.

    Only the outermost backend call is a dispatch: the queue and pool
    backends delegate chunks to the serial backend internally.
    """
    inner = span(tracer, "api.execution.run_replicates", fn)

    @functools.wraps(fn)
    def wrapper(self, replicate, tasks, *args, **kwargs):
        if tracer.inside("api.execution.run_replicates"):
            return fn(self, replicate, tasks, *args, **kwargs)
        tasks = list(tasks)
        tracer.count("api.execution.tasks", len(tasks))
        return inner(self, replicate, tasks, *args, **kwargs)

    return wrapper


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer, sweeps: int, workers: int, cpu_count: int) -> dict:
    """Per-layer metrics per sweep, from ``sweeps`` traced sweeps' totals.

    ``api.execution.scaling_efficiency`` is present only when the machine
    has at least ``workers`` CPUs: on fewer, it measures oversubscription,
    not the backend.
    """
    s, counts, calls = tracer.self_s, tracer.counts, tracer.calls

    def per_sweep(value: float) -> float:
        return value / sweeps

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    dispatch_wall = tracer.wall_s.get("api.execution.run_replicates", 0.0)
    replicate_wall = tracer.wall_s.get("api.replicate", 0.0)
    broker_s = s.get("queue.broker", 0.0)
    metrics = {
        "topology.build_s": per_sweep(s.get("topology.build", 0.0)),
        "topology.apsp_s": per_sweep(s.get("topology.apsp", 0.0)),
        "topology.apsp_calls": per_sweep(counts["topology.apsp_calls"]),
        "topology.apsp_rows_used_ratio": ratio(
            counts["topology.apsp_rows_used"], counts["topology.apsp_rows"]
        ),
        "workload.trace_s": per_sweep(s.get("workload.trace", 0.0)),
        "workload.requests": per_sweep(counts["workload.requests"]),
        "core.simulate_s": per_sweep(s.get("core.simulate", 0.0)),
        "core.simulate_calls": per_sweep(counts["core.simulate_calls"]),
        "core.policy_rounds": per_sweep(counts["core.policy_rounds"]),
        "core.gather_s": per_sweep(s.get("core.gather", 0.0)),
        "core.gather_mb": tracer.peaks.get("core.gather_mb", 0.0),
        "core.memo_hit_ratio": ratio(counts["core.memo_hits"], counts["core.memo_calls"]),
        "core.scalar_fallback_calls": per_sweep(counts["core.scalar_fallback_calls"]),
        "algorithms.decide_s": per_sweep(s.get("algorithms.decide", 0.0)),
        "algorithms.decide_calls": per_sweep(calls.get("algorithms.decide", 0)),
        "algorithms.transitions": per_sweep(counts["algorithms.transitions"]),
        "algorithms.migrations": per_sweep(counts["algorithms.migrations"]),
        "algorithms.creations": per_sweep(counts["algorithms.creations"]),
        "algorithms.opt_solve_s": per_sweep(s.get("algorithms.opt_solve", 0.0)),
        "algorithms.optim_solve_s": per_sweep(s.get("algorithms.optim_solve", 0.0)),
        "algorithms.optim_solves": per_sweep(calls.get("algorithms.optim_solve", 0)),
        "api.metrics_s": per_sweep(s.get("api.metrics", 0.0)),
        "experiments.aggregate_s": per_sweep(s.get("experiments.aggregate", 0.0)),
        "api.cache.store_s": per_sweep(s.get("api.cache.store", 0.0)),
        "api.cache.bytes_written": per_sweep(counts["api.cache.bytes_written"]),
        "api.cache.load_s": per_sweep(s.get("api.cache.load", 0.0)),
        "api.cache.point_hits": per_sweep(counts["api.cache.point_hits"]),
        "api.execution.dispatch_s": per_sweep(
            max(0.0, dispatch_wall - replicate_wall / workers)
        ),
        "api.execution.tasks": per_sweep(counts["api.execution.tasks"]),
        "queue.broker_s": per_sweep(broker_s),
        "queue.broker_calls": per_sweep(calls.get("queue.broker", 0)),
        "queue.overhead_per_task_ms": 1000.0 * ratio(
            broker_s, counts["api.execution.tasks"]
        ),
    }
    if cpu_count >= workers:
        metrics["api.execution.scaling_efficiency"] = ratio(
            replicate_wall, dispatch_wall * workers
        )
    return metrics
