"""The SQLite-backed task broker: one file, no server, crash-safe leases.

The broker is deliberately the *dumb* half of the queue: it stores jobs and
tasks, hands out leases and re-serves the ones whose owners went silent. It
knows nothing about sweeps, seeds or caches — the
:mod:`repro.queue.worker` module owns all experiment semantics, which keeps
the lease state machine small enough to test exhaustively.

Design notes, all standard SQLite work-queue practice:

* **WAL mode** lets readers proceed while a writer commits, which is what
  makes N uncoordinated worker processes on one queue file workable.
* **Connection per operation** with ``BEGIN IMMEDIATE`` transactions: every
  mutating operation takes the write lock up front, so two workers can
  never lease the same task — the second ``UPDATE`` simply finds the row no
  longer pending. A busy timeout turns lock contention into short waits
  instead of errors.
* **Leases, not locks**: a worker marks a task ``leased`` with a fresh
  token and a deadline ``now + ttl``, and must :meth:`Broker.heartbeat`
  to keep long tasks alive. Every lease attempt first *reaps* expired
  leases back to ``pending`` (or ``failed`` once ``max_attempts`` is
  exhausted), so a SIGKILLed worker's task is re-served to the next caller
  with no janitor process. Completion is token-guarded: a reaped worker
  coming back from the dead gets ``False`` instead of clobbering the row.

Task *execution* must be idempotent for this scheme to be correct — ours
is: workers write replicate samples through the cache's atomic
last-writer-wins entries, and two executions of one task produce identical
bytes (seeds are positional). The broker therefore never needs distributed
consensus, just the single-writer transaction SQLite already provides.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Broker",
    "Heartbeat",
    "Lease",
    "DEFAULT_TTL",
    "DEFAULT_MAX_ATTEMPTS",
]

#: Default lease lifetime: generous against slow points, short enough that
#: a killed worker's task is re-served within one coffee refill.
DEFAULT_TTL = 120.0

#: A task repeatedly abandoned mid-lease is poisoned (it crashes its
#: workers); after this many serves it fails instead of cycling forever.
DEFAULT_MAX_ATTEMPTS = 5

#: A job stuck in ``assembling`` longer than this had its assembler die;
#: reap it back to ``pending`` so another worker finishes the figure.
DEFAULT_ASSEMBLY_TTL = 600.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id      TEXT PRIMARY KEY,
    kind    TEXT NOT NULL,
    spec    TEXT,
    status  TEXT NOT NULL DEFAULT 'pending',
    error   TEXT,
    created REAL NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS tasks (
    id       INTEGER PRIMARY KEY AUTOINCREMENT,
    job      TEXT NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
    kind     TEXT NOT NULL,
    payload  TEXT NOT NULL DEFAULT '{}',
    blob     BLOB,
    status   TEXT NOT NULL DEFAULT 'pending',
    lease    TEXT,
    worker   TEXT,
    deadline REAL,
    attempts INTEGER NOT NULL DEFAULT 0,
    result   BLOB,
    error    TEXT,
    created  REAL NOT NULL,
    updated  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS tasks_by_status ON tasks(status, id);
CREATE INDEX IF NOT EXISTS tasks_by_job ON tasks(job, status);
"""


@dataclass(frozen=True)
class Lease:
    """One leased task: everything a worker needs to execute it.

    ``token`` proves ownership — :meth:`Broker.complete`,
    :meth:`Broker.fail` and :meth:`Broker.heartbeat` only act while the
    task still carries it, so a worker whose lease was reaped (it missed
    its deadline and the task was re-served) cannot clobber the new
    owner's state.
    """

    task_id: int
    job: str
    job_kind: str
    kind: str
    payload: dict
    blob: "bytes | None"
    spec: "dict | None"
    token: str
    deadline: float
    attempts: int
    ttl: float


class Broker:
    """The queue over one SQLite file shared by uncoordinated processes.

    Args:
        path: the queue database file (created on first use). Must not be
            an existing directory.
        ttl: default lease lifetime in seconds.
        max_attempts: serves before a repeatedly abandoned task fails.
        assembly_ttl: seconds before a stale ``assembling`` job is reaped.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        ttl: float = DEFAULT_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        assembly_ttl: float = DEFAULT_ASSEMBLY_TTL,
    ) -> None:
        self.path = Path(path).expanduser()
        if self.path.is_dir():
            raise ValueError(f"queue path {str(self.path)!r} is a directory")
        if not ttl > 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.ttl = float(ttl)
        self.max_attempts = int(max_attempts)
        self.assembly_ttl = float(assembly_ttl)
        # executescript manages its own transaction; a surrounding explicit
        # BEGIN would be committed out from under us
        db = self._connect()
        try:
            db.executescript(_SCHEMA)
        finally:
            db.close()

    # -- plumbing ---------------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        db = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        db.row_factory = sqlite3.Row
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute("PRAGMA foreign_keys=ON")
        db.execute("PRAGMA busy_timeout=30000")
        return db

    class _Tx:
        """One ``BEGIN IMMEDIATE`` transaction over a private connection."""

        def __init__(self, broker: "Broker") -> None:
            self._broker = broker

        def __enter__(self) -> sqlite3.Connection:
            self._db = self._broker._connect()
            try:
                self._db.execute("BEGIN IMMEDIATE")
            except BaseException:
                self._db.close()
                raise
            return self._db

        def __exit__(self, exc_type, exc, tb) -> None:
            try:
                if exc_type is None:
                    self._db.execute("COMMIT")
                else:
                    self._db.execute("ROLLBACK")
            finally:
                self._db.close()

    def _transaction(self) -> "Broker._Tx":
        return Broker._Tx(self)

    # -- jobs -------------------------------------------------------------------

    def enqueue_job(
        self,
        job_id: str,
        kind: str,
        spec: "Mapping | None" = None,
        tasks: "Sequence[tuple[str, Mapping] | tuple[str, Mapping, bytes | None]]" = (),
    ) -> dict:
        """Create a job with its initial tasks; idempotent on ``job_id``.

        ``tasks`` holds ``(kind, payload)`` or ``(kind, payload, blob)``
        tuples. An already-known ``job_id`` returns the existing job's
        state with ``created=False`` and enqueues nothing — callers key
        sweep jobs on the spec's cache key, so re-submitting a spec
        attaches to the in-flight job instead of duplicating its work.
        """
        now = time.time()
        with self._transaction() as db:
            row = db.execute(
                "SELECT id FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is not None:
                state = self._job_state(db, job_id)
                state["created"] = False
                return state
            db.execute(
                "INSERT INTO jobs (id, kind, spec, status, created, updated)"
                " VALUES (?, ?, ?, 'pending', ?, ?)",
                (
                    job_id,
                    kind,
                    json.dumps(spec, sort_keys=True) if spec is not None else None,
                    now,
                    now,
                ),
            )
            for task in tasks:
                task_kind, payload = task[0], task[1]
                blob = task[2] if len(task) > 2 else None
                db.execute(
                    "INSERT INTO tasks (job, kind, payload, blob, status,"
                    " created, updated) VALUES (?, ?, ?, ?, 'pending', ?, ?)",
                    (
                        job_id,
                        task_kind,
                        json.dumps(dict(payload), sort_keys=True),
                        blob,
                        now,
                        now,
                    ),
                )
            state = self._job_state(db, job_id)
            state["created"] = True
            return state

    def add_task(
        self,
        job_id: str,
        kind: str,
        payload: "Mapping | None" = None,
        blob: "bytes | None" = None,
    ) -> bool:
        """Append one task to a job unless an identical one is pending.

        Deduplicates on ``(job, kind, payload)`` against *pending* rows: a
        presumed-dead worker and the twin its lease was re-served to both
        chain the point's next top-up, and only one of them may land.
        Leased rows do not block — a top-up lease chains its successor
        while it still holds its own identical row — and neither do
        done/failed rows, since the schedule may legitimately revisit a
        payload.
        """
        now = time.time()
        text = json.dumps(dict(payload or {}), sort_keys=True)
        with self._transaction() as db:
            if db.execute(
                "SELECT 1 FROM tasks WHERE job = ? AND kind = ? AND"
                " payload = ? AND status = 'pending' LIMIT 1",
                (job_id, kind, text),
            ).fetchone():
                return False
            db.execute(
                "INSERT INTO tasks (job, kind, payload, blob, status,"
                " created, updated) VALUES (?, ?, ?, ?, 'pending', ?, ?)",
                (job_id, kind, text, blob, now, now),
            )
            # new work reopens a job another worker already assembled
            db.execute(
                "UPDATE jobs SET status = 'pending', updated = ? WHERE"
                " id = ? AND status != 'pending'",
                (now, job_id),
            )
            return True

    def delete_job(self, job_id: str) -> bool:
        """Drop a job and (via cascade) all its tasks; True if it existed."""
        with self._transaction() as db:
            cursor = db.execute("DELETE FROM jobs WHERE id = ?", (job_id,))
            return cursor.rowcount > 0

    def job_state(self, job_id: str) -> "dict | None":
        """The job row plus per-status task counts, or ``None`` if unknown."""
        with self._transaction() as db:
            row = db.execute(
                "SELECT id FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            return self._job_state(db, job_id)

    @staticmethod
    def _job_state(db: sqlite3.Connection, job_id: str) -> dict:
        job = db.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        counts = {
            row["status"]: row["n"]
            for row in db.execute(
                "SELECT status, COUNT(*) AS n FROM tasks WHERE job = ?"
                " GROUP BY status",
                (job_id,),
            )
        }
        return {
            "job": job["id"],
            "kind": job["kind"],
            "status": job["status"],
            "error": job["error"],
            "spec": json.loads(job["spec"]) if job["spec"] else None,
            "tasks": counts,
        }

    def jobs(self, limit: int = 100) -> "list[dict]":
        """The most recently updated jobs' states, newest first."""
        with self._transaction() as db:
            ids = [
                row["id"]
                for row in db.execute(
                    "SELECT id FROM jobs ORDER BY updated DESC LIMIT ?",
                    (int(limit),),
                )
            ]
            return [self._job_state(db, job_id) for job_id in ids]

    # -- leasing ----------------------------------------------------------------

    @staticmethod
    def _reap(db: sqlite3.Connection, now: float, max_attempts: int,
              assembly_ttl: float) -> None:
        """Re-serve expired leases; poison tasks out of attempts.

        Runs inside the caller's write transaction, so reap + lease is one
        atomic step — there is no window in which an expired task is
        pending but unleasable.
        """
        db.execute(
            "UPDATE tasks SET status = 'failed', lease = NULL,"
            " worker = NULL, deadline = NULL, updated = ?,"
            " error = COALESCE(error, 'lease expired ' || attempts || 'x')"
            " WHERE status = 'leased' AND deadline < ? AND attempts >= ?",
            (now, now, max_attempts),
        )
        db.execute(
            "UPDATE tasks SET status = 'pending', lease = NULL,"
            " worker = NULL, deadline = NULL, updated = ?"
            " WHERE status = 'leased' AND deadline < ?",
            (now, now),
        )
        # an assembler that died mid-run: hand the job back
        db.execute(
            "UPDATE jobs SET status = 'pending', updated = ? WHERE"
            " status = 'assembling' AND updated < ?",
            (now, now - assembly_ttl),
        )

    def release_expired(self) -> None:
        """Reap expired leases now (leasing does this implicitly)."""
        with self._transaction() as db:
            self._reap(db, time.time(), self.max_attempts, self.assembly_ttl)

    def lease_task(
        self,
        worker: str,
        ttl: "float | None" = None,
        job: "str | None" = None,
        kinds: "Sequence[str] | None" = None,
    ) -> "Lease | None":
        """Lease the oldest pending task, or ``None`` when none is ready.

        Reaps expired leases first, so a single polling worker drains a
        queue abandoned by dead ones. ``job``/``kinds`` restrict what is
        taken — the in-process :class:`~repro.api.execution.QueueBackend`
        uses them to work-steal its own block tasks.
        """
        ttl = self.ttl if ttl is None else float(ttl)
        now = time.time()
        token = uuid.uuid4().hex
        with self._transaction() as db:
            self._reap(db, now, self.max_attempts, self.assembly_ttl)
            query = "SELECT id FROM tasks WHERE status = 'pending'"
            params: list = []
            if job is not None:
                query += " AND job = ?"
                params.append(job)
            if kinds:
                query += f" AND kind IN ({','.join('?' * len(kinds))})"
                params.extend(kinds)
            query += " ORDER BY id LIMIT 1"
            row = db.execute(query, params).fetchone()
            if row is None:
                return None
            db.execute(
                "UPDATE tasks SET status = 'leased', lease = ?, worker = ?,"
                " deadline = ?, attempts = attempts + 1, updated = ?"
                " WHERE id = ?",
                (token, worker, now + ttl, now, row["id"]),
            )
            task = db.execute(
                "SELECT t.*, j.kind AS job_kind, j.spec AS job_spec"
                " FROM tasks t JOIN jobs j ON t.job = j.id WHERE t.id = ?",
                (row["id"],),
            ).fetchone()
            return Lease(
                task_id=task["id"],
                job=task["job"],
                job_kind=task["job_kind"],
                kind=task["kind"],
                payload=json.loads(task["payload"]),
                blob=task["blob"],
                spec=json.loads(task["job_spec"]) if task["job_spec"] else None,
                token=task["lease"],
                deadline=task["deadline"],
                attempts=task["attempts"],
                ttl=ttl,
            )

    def heartbeat(self, lease: Lease, ttl: "float | None" = None) -> bool:
        """Extend a live lease's deadline; ``False`` once it was reaped."""
        ttl = lease.ttl if ttl is None else float(ttl)
        now = time.time()
        with self._transaction() as db:
            cursor = db.execute(
                "UPDATE tasks SET deadline = ?, updated = ? WHERE id = ?"
                " AND status = 'leased' AND lease = ?",
                (now + ttl, now, lease.task_id, lease.token),
            )
            return cursor.rowcount > 0

    def complete(self, lease: Lease, result: "bytes | None" = None) -> bool:
        """Mark a leased task done; ``False`` if the lease was reaped.

        A stale completion is *benign*, not an error: task execution is
        idempotent (samples land in the cache via last-writer-wins atomic
        renames), so the re-served twin computed the same bytes. The
        ``False`` only tells the caller not to bother finalizing.
        """
        now = time.time()
        with self._transaction() as db:
            cursor = db.execute(
                "UPDATE tasks SET status = 'done', result = ?, lease = NULL,"
                " deadline = NULL, updated = ? WHERE id = ? AND"
                " status = 'leased' AND lease = ?",
                (result, now, lease.task_id, lease.token),
            )
            return cursor.rowcount > 0

    def fail(self, lease: Lease, error: str) -> bool:
        """Record a failed execution; re-serves unless attempts ran out."""
        now = time.time()
        status = "pending" if lease.attempts < self.max_attempts else "failed"
        with self._transaction() as db:
            cursor = db.execute(
                "UPDATE tasks SET status = ?, error = ?, lease = NULL,"
                " worker = NULL, deadline = NULL, updated = ? WHERE id = ?"
                " AND status = 'leased' AND lease = ?",
                (status, str(error)[:2000], now, lease.task_id, lease.token),
            )
            return cursor.rowcount > 0

    # -- finalization -----------------------------------------------------------

    def claim_finalize(self, job_id: str) -> bool:
        """Atomically claim a drained job for assembly; one winner only.

        Succeeds iff the job is ``pending`` and has no pending or leased
        tasks left. The winner runs the assembly pass and must then call
        :meth:`finish_job`; everyone else sees ``False`` and moves on.
        """
        now = time.time()
        with self._transaction() as db:
            cursor = db.execute(
                "UPDATE jobs SET status = 'assembling', updated = ? WHERE"
                " id = ? AND status = 'pending' AND NOT EXISTS ("
                "   SELECT 1 FROM tasks WHERE job = jobs.id AND"
                "   status IN ('pending', 'leased'))",
                (now, job_id),
            )
            return cursor.rowcount > 0

    def finish_job(
        self, job_id: str, status: str, error: "str | None" = None
    ) -> None:
        """Terminal transition after assembly: ``done`` or ``failed``."""
        if status not in ("done", "failed", "pending"):
            raise ValueError(f"unknown job status {status!r}")
        with self._transaction() as db:
            db.execute(
                "UPDATE jobs SET status = ?, error = ?, updated = ?"
                " WHERE id = ?",
                (status, error, time.time(), job_id),
            )

    def finalizable_jobs(self) -> "list[str]":
        """Jobs that are drained but not yet assembled, oldest first.

        Idle workers scan this: a job whose last task was completed by a
        worker that died before assembling (stale ``complete`` or crash
        between complete and finalize) still gets its figure built.
        """
        with self._transaction() as db:
            self._reap(db, time.time(), self.max_attempts, self.assembly_ttl)
            return [
                row["id"]
                for row in db.execute(
                    "SELECT id FROM jobs WHERE status = 'pending' AND"
                    " NOT EXISTS (SELECT 1 FROM tasks WHERE job = jobs.id"
                    " AND status IN ('pending', 'leased')) ORDER BY updated"
                )
            ]

    def tasks_for(self, job_id: str) -> "list[dict]":
        """Every task row of a job (id order), results included."""
        with self._transaction() as db:
            return [
                {
                    "id": row["id"],
                    "kind": row["kind"],
                    "payload": json.loads(row["payload"]),
                    "status": row["status"],
                    "worker": row["worker"],
                    "attempts": row["attempts"],
                    "result": row["result"],
                    "error": row["error"],
                }
                for row in db.execute(
                    "SELECT * FROM tasks WHERE job = ? ORDER BY id", (job_id,)
                )
            ]

    def stats(self) -> dict:
        """Queue-wide job/task counts per status."""
        with self._transaction() as db:
            jobs = {
                row["status"]: row["n"]
                for row in db.execute(
                    "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
                )
            }
            tasks = {
                row["status"]: row["n"]
                for row in db.execute(
                    "SELECT status, COUNT(*) AS n FROM tasks GROUP BY status"
                )
            }
        return {"path": str(self.path), "jobs": jobs, "tasks": tasks}

    def __repr__(self) -> str:
        return f"Broker({str(self.path)!r})"


def default_worker_id() -> str:
    """``host:pid`` — unique enough to attribute leases in a queue file."""
    return f"{socket.gethostname()}:{os.getpid()}"


class Heartbeat:
    """A daemon thread extending one lease until stopped.

    Renews at half the TTL so a single missed beat (GC pause, disk stall)
    never loses the lease. Used as a context manager around task
    execution::

        with Heartbeat(broker, lease):
            ...  # long-running work
    """

    def __init__(self, broker: Broker, lease: Lease,
                 interval: "float | None" = None) -> None:
        self._broker = broker
        self._lease = lease
        self._interval = (
            max(0.05, lease.ttl / 2.0) if interval is None else float(interval)
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.lost = False

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                alive = self._broker.heartbeat(self._lease)
            except sqlite3.Error:
                continue  # transient contention; retry next beat
            if not alive:
                self.lost = True
                return

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
