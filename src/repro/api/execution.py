"""Execution backends: where a sweep's replicates actually run.

The sweep engine (:func:`~repro.api.experiment.run_sweep`) hands a backend
a list of :class:`ReplicateTask`\\ s — one per replicate, each carrying the
``numpy.random.SeedSequence`` its position in the sweep pins. A backend
only chooses *where* those tasks execute:

* :class:`SerialBackend` — in-process loop, the default;
* :class:`ProcessPoolBackend` — fan-out over worker processes;
* :class:`QueueBackend` — fan-out through a shared queue database.

Because the child seeds are spawned up front in the parent and travel with
the tasks, a replicate sees bit-identical randomness no matter which backend
runs it: serial and parallel sweeps produce identical
:class:`~repro.experiments.runner.FigureResult`\\ s.

The pool and the queue ship the replicate callable and its tasks to other
processes by pickling them, so both must be picklable; the spec-driven
:class:`~repro.api.experiment.SpecReplicate` is (it holds only plain spec
data). An unpicklable replicate raises instead of running serially.
"""

from __future__ import annotations

import abc
import functools
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ReplicateTask",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "QueueBackend",
]

#: A replicate maps ``(x, rng) -> {series name: value}``.
Replicate = Callable[[Any, np.random.Generator], Mapping[str, float]]

#: Optional per-result hook ``(index, task, result)`` invoked as results
#: become available, in task order — raising from it aborts the batch, which
#: is how the sweep engine fails fast on malformed replicate output instead
#: of discarding a long run's remaining compute.
ResultHook = Callable[[int, "ReplicateTask", Mapping[str, float]], None]


@dataclass(frozen=True)
class ReplicateTask:
    """One unit of sweep work: a sweep-point value plus its dedicated seed."""

    x: Any
    seed: np.random.SeedSequence


def _execute(replicate: Replicate, task: ReplicateTask) -> Mapping[str, float]:
    """Run one task; the single place a task's rng is materialised."""
    return replicate(task.x, np.random.default_rng(task.seed))


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of replicate tasks.

    Implementations must return one result per task, in task order, and must
    derive each task's generator from its own ``seed`` (use
    :func:`numpy.random.default_rng`) so results are backend-independent.
    """

    @abc.abstractmethod
    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        """Execute every task and return the results in task order.

        ``on_result`` (when given) must be called with ``(index, task,
        result)`` as each result becomes available, in task order.
        """


def _collect(tasks, results, on_result) -> list:
    """Drain ``results`` (an iterable in task order) through the hook."""
    out = []
    for index, (task, result) in enumerate(zip(tasks, results)):
        if on_result is not None:
            on_result(index, task, result)
        out.append(result)
    return out


class SerialBackend(ExecutionBackend):
    """In-process, sequential execution — the reference behaviour."""

    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        return _collect(
            tasks, (_execute(replicate, task) for task in tasks), on_result
        )

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend(ExecutionBackend):
    """Fan replicates out across worker processes.

    Args:
        workers: pool size; ``None`` uses :func:`os.cpu_count`.
    """

    def __init__(self, workers: "int | None" = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        tasks = list(tasks)
        if len(tasks) <= 1 or self.workers == 1:
            return SerialBackend().run_replicates(replicate, tasks, on_result)

        workers = min(self.workers, len(tasks))
        chunksize = max(1, len(tasks) // (workers * 4))

        execute = functools.partial(_execute, replicate)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _collect(
                tasks, pool.map(execute, tasks, chunksize=chunksize), on_result
            )

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers})"


class QueueBackend(ExecutionBackend):
    """Fan replicates out through a :class:`repro.queue.broker.Broker`.

    Where :class:`ProcessPoolBackend` owns its workers,
    :class:`QueueBackend` publishes the batch as *block* tasks on a shared
    queue file and lets whoever is draining that queue — external
    ``repro-experiments worker`` processes, possibly on other machines
    sharing the filesystem — execute them. Each block task carries the
    pickled ``(replicate, tasks)`` chunk and returns its pickled samples
    on the task row, so the batch needs no cache and works for any
    picklable replicate (the pool's contract; unpicklable work raises
    before anything is enqueued).

    With ``local=True`` (the default) the backend also work-steals its own
    block tasks between polls, so a sweep makes progress even with zero
    external workers — the queue then merely *admits* helpers instead of
    requiring them.

    Results are bit-identical to serial execution: tasks carry their
    pre-spawned seeds, and chunk results are reassembled in task order.

    Args:
        queue: the queue database path, or an existing ``Broker``.
        chunk: replicate tasks per block task (larger = fewer, longer
            leases).
        poll: seconds between progress polls while waiting on external
            workers (finite, ``>= 0``).
        ttl: lease lifetime granted to whichever worker takes a block
            (``> 0``; ``None`` = the broker's default).
        local: execute unleased blocks in-process while waiting.
        timeout: seconds before giving up on a stuck queue (``None`` =
            wait forever; abandoned leases re-serve on their own).
    """

    def __init__(
        self,
        queue,
        chunk: int = 1,
        poll: float = 0.05,
        ttl: "float | None" = None,
        local: bool = True,
        timeout: "float | None" = None,
    ) -> None:
        from repro.queue.broker import Broker

        chunk, poll = int(chunk), float(poll)
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        # checked here: time.sleep would fail on a bad poll only after the
        # batch is enqueued, and a ttl <= 0 grants already-expired leases
        if not (math.isfinite(poll) and poll >= 0):
            raise ValueError(f"poll must be finite and >= 0, got {poll}")
        if ttl is not None and not float(ttl) > 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.broker = queue if isinstance(queue, Broker) else Broker(queue)
        self.chunk = chunk
        self.poll = poll
        self.ttl = ttl
        self.local = bool(local)
        self.timeout = timeout

    def run_replicates(
        self,
        replicate: Replicate,
        tasks: Sequence[ReplicateTask],
        on_result: "ResultHook | None" = None,
    ) -> list:
        import uuid

        from repro.queue.broker import default_worker_id

        tasks = list(tasks)
        if not tasks:
            return []
        chunks = [
            tasks[start : start + self.chunk]
            for start in range(0, len(tasks), self.chunk)
        ]
        job_id = f"block:{uuid.uuid4().hex}"
        self.broker.enqueue_job(
            job_id,
            "block",
            tasks=[
                (
                    "block",
                    {"chunk": k},
                    pickle.dumps(
                        (replicate, chunk), protocol=pickle.HIGHEST_PROTOCOL
                    ),
                )
                for k, chunk in enumerate(chunks)
            ],
        )
        worker = f"{default_worker_id()}:backend"
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        blocks: "list[list | None]" = [None] * len(chunks)
        delivered = 0  # chunks whose samples went through on_result
        try:
            while True:
                for row in self.broker.tasks_for(job_id):
                    if row["status"] == "failed":
                        raise RuntimeError(
                            f"queue task for chunk "
                            f"{row['payload'].get('chunk')} failed: "
                            f"{row['error']}"
                        )
                    if row["status"] == "done" and row["result"] is not None:
                        k = int(row["payload"]["chunk"])
                        if blocks[k] is None:
                            blocks[k] = pickle.loads(row["result"])
                while delivered < len(chunks) and blocks[delivered] is not None:
                    if on_result is not None:
                        base = delivered * self.chunk
                        for offset, sample in enumerate(blocks[delivered]):
                            on_result(
                                base + offset, tasks[base + offset], sample
                            )
                    delivered += 1
                if delivered == len(chunks):
                    break
                progressed = False
                if self.local:
                    lease = self.broker.lease_task(
                        worker, ttl=self.ttl, job=job_id, kinds=("block",)
                    )
                    if lease is not None:
                        chunk_replicate, chunk_tasks = pickle.loads(lease.blob)
                        samples = SerialBackend().run_replicates(
                            chunk_replicate, chunk_tasks
                        )
                        self.broker.complete(
                            lease,
                            pickle.dumps(
                                samples, protocol=pickle.HIGHEST_PROTOCOL
                            ),
                        )
                        progressed = True
                if not progressed:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(
                            f"queue batch {job_id} incomplete after "
                            f"{self.timeout}s ({delivered}/{len(chunks)} "
                            "chunks done)"
                        )
                    time.sleep(self.poll)
        finally:
            # block jobs are transient transport, not cache: drop the rows
            # (and their pickled payloads) whatever happened
            self.broker.delete_job(job_id)
        return [sample for block in blocks for sample in block]

    def __repr__(self) -> str:
        return (
            f"QueueBackend({str(self.broker.path)!r}, chunk={self.chunk}, "
            f"local={self.local})"
        )
