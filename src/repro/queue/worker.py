"""Queue workers: decompose sweeps into tasks, execute leases, assemble.

This module owns every experiment-specific decision the broker refuses to
make. The contract that keeps N uncoordinated workers bit-identical to one
serial run:

* **Tasks carry positions, not samples.** A *point* or *top-up* task is
  just a sweep point index. A lease drives the very point-unit engine
  behind :func:`~repro.api.experiment.run_sweep` for that one point: it
  loads the point's cached units and runs *at most one* fresh unit. The
  next unit and its seeds are pure functions of the point's position and
  samples, so whichever worker executes it, the result is identical.
* **Samples travel through the cache, not the queue.** Workers commit
  replicate blocks straight into the shared per-point
  :class:`~repro.api.cache.ResultCache` — the same entries a serial,
  pooled or sharded run reads and writes. Executing a task twice (a
  re-served lease racing its presumed-dead owner) rewrites identical
  bytes; atomic last-writer-wins renames make that harmless.
* **Assembly is a warm-cache ``run_sweep``.** When the last task of a
  sweep job lands, one worker wins :meth:`Broker.claim_finalize` and calls
  :func:`~repro.api.experiment.run_sweep` over the shared cache: every
  point loads, nothing simulates, and the aggregation path — including
  :class:`~repro.experiments.runner.SeriesValidator` and the stored sweep
  entry — is literally the serial code, so the queue-assembled
  :class:`~repro.experiments.runner.FigureResult` is bit-identical to the
  serial golden by construction.
"""

from __future__ import annotations

import pickle
import time
from typing import TYPE_CHECKING, Callable

from repro.api.cache import ResultCache
from repro.api.execution import SerialBackend
from repro.api.specs import SweepSpec
from repro.queue.broker import (
    DEFAULT_TTL,
    Broker,
    Heartbeat,
    Lease,
    default_worker_id,
)

if TYPE_CHECKING:
    from repro.experiments.runner import FigureResult

__all__ = [
    "enqueue_sweep",
    "execute_lease",
    "try_finalize",
    "worker_loop",
]


def enqueue_sweep(
    broker: Broker,
    cache: ResultCache,
    spec: SweepSpec,
    requeue: bool = False,
) -> dict:
    """Queue a sweep as one job with a *point* task per sweep point.

    The job id is the spec's cache key (version- and code-fingerprinted),
    so re-submitting an identical spec attaches to the in-flight job
    instead of duplicating work. The decomposition is cache-aware at the
    job level only: a **warm sweep entry answers without touching the
    broker at all** — zero tasks enqueued — which is what lets the results
    service serve repeat what-ifs instantly. Per-point warmth is the
    workers' business; their cache-first execution makes warm point tasks
    nearly free.

    A cold spec is pre-flighted first, exactly as :func:`run_sweep` does:
    a spec it rejects raises one ``ValueError`` and no job row is created,
    so no worker ever leases it.

    A previously ``done``/``failed`` job whose sweep entry has since been
    evicted (or that failed) is re-created when ``requeue`` — by default a
    failed job's state is returned so callers can surface the error.
    """
    job_id = cache.key_for(spec)
    cached = cache.load(spec)
    if cached is not None:
        return {
            "job": job_id,
            "kind": "sweep",
            "status": "done",
            "cached": True,
            "spec": spec.to_dict(),
            "tasks": {},
        }
    from repro.api.experiment import _preflight

    _preflight(spec)
    tasks = [("point", {"point": i}) for i in range(len(spec.values))]
    state = broker.enqueue_job(
        job_id, "sweep", spec=spec.to_dict(), tasks=tasks
    )
    stale = not state["created"] and state["status"] in ("done", "failed")
    if stale and requeue:
        # terminal job, but the cache no longer answers: stale (evicted
        # entry) or failed — re-queue only on request
        broker.delete_job(job_id)
        state = broker.enqueue_job(
            job_id, "sweep", spec=spec.to_dict(), tasks=tasks
        )
    state.setdefault("cached", False)
    return state


def execute_lease(
    broker: Broker, lease: Lease, cache: ResultCache
) -> "bytes | None":
    """Run one leased task; returns the result blob to store on the row.

    * ``point`` — load or run the point's initial block; under an adaptive
      spec, chain the point's first ``topup`` task.
    * ``topup`` — load the point's cached units, run at most one fresh
      unit, and chain another ``topup`` unless the point is done.
    * ``block`` — a pickled ``(replicate, tasks)`` batch from a
      :class:`~repro.api.execution.QueueBackend`; the samples travel back
      pickled on the task row (no spec/cache involved).
    """
    if lease.kind == "block":
        replicate, tasks = pickle.loads(lease.blob)
        return pickle.dumps(
            SerialBackend().run_replicates(replicate, tasks),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    if lease.kind not in ("point", "topup"):
        raise ValueError(f"unknown task kind {lease.kind!r}")
    if lease.spec is None:
        raise ValueError("sweep task carries no spec")
    from repro.api.experiment import _advance_point

    spec = SweepSpec.from_dict(lease.spec)
    index = int(lease.payload["point"])
    if _advance_point(spec, cache, index, initial=lease.kind == "point"):
        broker.add_task(lease.job, "topup", {"point": index})
    return None


def try_finalize(
    broker: Broker, job_id: str, cache: ResultCache
) -> "FigureResult | None":
    """Assemble a drained sweep job's figure from the warm cache.

    Exactly one worker wins the claim; it reruns the spec through
    :func:`~repro.api.experiment.run_sweep` with the shared cache — every
    point (and extension) loads, nothing simulates, and the resulting
    sweep entry is what :func:`enqueue_sweep` and the results service
    answer from. Tasks that exhausted their attempts fail the whole job
    with their first error instead of assembling a silently partial
    figure.
    """
    from repro.api.experiment import run_sweep

    if not broker.claim_finalize(job_id):
        return None
    state = broker.job_state(job_id)
    if state is None or state["kind"] != "sweep":
        broker.finish_job(job_id, "done")
        return None
    failed = state["tasks"].get("failed", 0)
    if failed:
        first = next(
            (
                task["error"]
                for task in broker.tasks_for(job_id)
                if task["status"] == "failed"
            ),
            "task failed",
        )
        broker.finish_job(
            job_id, "failed", error=f"{failed} task(s) failed: {first}"
        )
        return None
    try:
        result = run_sweep(SweepSpec.from_dict(state["spec"]), cache=cache)
    except Exception as error:  # noqa: BLE001 - job must reach a terminal state
        broker.finish_job(job_id, "failed", error=repr(error))
        return None
    broker.finish_job(job_id, "done")
    return result


def worker_loop(
    queue: "str | Broker",
    cache: "str | ResultCache",
    poll: float = 0.5,
    ttl: float = DEFAULT_TTL,
    max_tasks: "int | None" = None,
    idle_exit: "float | None" = None,
    stop: "Callable[[], bool] | None" = None,
    worker_id: "str | None" = None,
    log: "Callable[[str], None] | None" = None,
) -> int:
    """Drain a queue: lease, heartbeat, execute, complete, finalize.

    The entry point behind ``repro-experiments worker``. Loops until
    ``stop()`` turns true, ``max_tasks`` leases were executed, or the
    queue stayed empty for ``idle_exit`` seconds (``None`` = run forever).
    Task exceptions are reported to the broker (:meth:`Broker.fail`
    re-serves the task until its attempts run out) and never kill the
    loop. Returns the number of tasks executed.
    """
    broker = queue if isinstance(queue, Broker) else Broker(queue, ttl=ttl)
    cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
    worker_id = worker_id or default_worker_id()
    say = log or (lambda message: None)
    executed = 0
    idle_since: "float | None" = None
    while not (stop is not None and stop()):
        if max_tasks is not None and executed >= max_tasks:
            break
        lease = broker.lease_task(worker_id, ttl=ttl)
        if lease is None:
            # nothing leasable; sweep up jobs whose last completer died
            # before assembling
            finalized = False
            for job_id in broker.finalizable_jobs():
                if try_finalize(broker, job_id, cache) is not None:
                    say(f"assembled {job_id[:12]}")
                    finalized = True
            if finalized:
                idle_since = None
                continue
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if idle_exit is not None and now - idle_since >= idle_exit:
                break
            time.sleep(poll)
            continue
        idle_since = None
        executed += 1
        say(
            f"lease #{lease.task_id} {lease.kind} {lease.payload or ''}"
            f" (attempt {lease.attempts})"
        )
        try:
            with Heartbeat(broker, lease):
                result = execute_lease(broker, lease, cache)
        except Exception as error:  # noqa: BLE001 - report, re-serve, carry on
            broker.fail(lease, repr(error))
            say(f"task #{lease.task_id} failed: {error!r}")
            continue
        if not broker.complete(lease, result):
            # reaped mid-run: the re-served twin owns completion now; our
            # samples are in the cache either way (idempotent execution)
            say(f"lease #{lease.task_id} expired before completion")
            continue
        if lease.job_kind == "sweep":
            if try_finalize(broker, lease.job, cache) is not None:
                say(f"assembled {lease.job[:12]}")
    return executed
