"""The always-on what-if results service: stdlib HTTP over queue + cache.

The paper frames flexible server allocation as something a provider
*operates*: demand shifts, and the question "what would placement cost at
n=400 with sojourn 5?" is asked continuously, not once. This module gives
the reproduction that shape as a tiny stdlib ``http.server`` front end —
no framework, no new dependency:

* ``POST /sweep`` with a :class:`~repro.api.specs.SweepSpec` dict — a warm
  cache answers **immediately from the sweep entry, enqueueing nothing**
  (the acceptance property: repeat what-ifs are free); a cold spec is
  decomposed onto the queue and ``202`` points the client at its job.
* ``GET /jobs/<id>`` — job status; once ``done`` the cached figure rides
  along, so poll-to-completion is one endpoint.
* ``GET /jobs``, ``GET /stats``, ``GET /healthz`` — operational surface.

The server holds no result state of its own: the queue file and the cache
directory *are* the state, shared with every CLI worker and sweep run.
Kill the server, restart it against the same paths, and nothing is lost.
``ThreadingHTTPServer`` keeps slow pollers from blocking submissions;
every request uses its own broker transaction and a fresh
:class:`~repro.api.cache.ResultCache` view, so handler threads never share
mutable state.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.api.cache import ResultCache
from repro.api.specs import SweepSpec
from repro.queue.broker import Broker
from repro.queue.worker import enqueue_sweep, worker_loop

__all__ = ["ResultsServer"]


class _Handler(BaseHTTPRequestHandler):
    """One request against the shared broker/cache; no state of its own."""

    server: "ResultsServer"
    protocol_version = "HTTP/1.1"

    # -- helpers ----------------------------------------------------------------

    def _send(self, status: int, payload: Mapping) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _read_spec(self) -> "SweepSpec | None":
        try:
            length = int(self.headers.get("Content-Length", 0))
            data = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(data, dict):
                raise ValueError("request body must be a JSON object")
            # accept both the bare spec dict and an envelope
            spec_dict = data.get("sweep", data)
            return SweepSpec.from_dict(spec_dict)
        except Exception as error:  # noqa: BLE001 - any bad body is a 400
            self._error(400, f"malformed sweep spec: {error}")
            return None

    def _job_payload(self, job_id: str) -> "dict | None":
        state = self.server.broker.job_state(job_id)
        if state is None:
            return None
        payload = {
            "job": state["job"],
            "kind": state["kind"],
            "status": state["status"],
            "tasks": state["tasks"],
        }
        if state["error"]:
            payload["error"] = state["error"]
        if state["kind"] == "sweep" and state["status"] == "done":
            result = self.server.cache().load(SweepSpec.from_dict(state["spec"]))
            if result is not None:
                payload["result"] = result.to_dict()
        return payload

    # -- verbs ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/sweep":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        spec = self._read_spec()
        if spec is None:
            return
        cache = self.server.cache()
        result = cache.load(spec)
        if result is not None:
            # warm path: answered from the sweep entry, broker untouched
            self._send(
                200,
                {
                    "job": cache.key_for(spec),
                    "status": "done",
                    "cached": True,
                    "result": result.to_dict(),
                },
            )
            return
        try:
            state = enqueue_sweep(self.server.broker, cache, spec)
        except ValueError as error:  # the pre-flight rejected the spec
            self._error(400, f"malformed sweep spec: {error}")
            return
        self._send(
            202,
            {
                "job": state["job"],
                "status": state["status"],
                "cached": False,
                "tasks": state["tasks"],
                "poll": f"/jobs/{state['job']}",
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, {"ok": True})
        elif path == "/stats":
            stats = self.server.broker.stats()
            stats["cache"] = self.server.cache().stats()
            self._send(200, stats)
        elif path == "/jobs":
            self._send(200, {"jobs": self.server.broker.jobs()})
        elif path.startswith("/jobs/"):
            payload = self._job_payload(path[len("/jobs/"):])
            if payload is None:
                self._error(404, f"unknown job {path[len('/jobs/'):]!r}")
            else:
                self._send(200, payload)
        else:
            self._error(404, f"no such endpoint: GET {self.path}")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # tests and the CLI own the terminal; HTTP chatter stays quiet


class ResultsServer(ThreadingHTTPServer):
    """The results service bound to one queue file and one cache directory.

    Args:
        address: ``(host, port)``; port 0 picks a free one (see
            ``server_address`` after construction).
        queue: queue database path or an existing :class:`Broker`.
        cache_dir: the shared result cache directory.

    Optionally runs its own worker threads (:meth:`start_workers`) so a
    single ``repro-experiments serve --workers N`` process is a complete
    deployment; external ``repro-experiments worker`` processes against
    the same queue path compose freely with (or replace) them.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: "tuple[str, int]",
        queue: "str | Broker",
        cache_dir,
    ) -> None:
        super().__init__(address, _Handler)
        self.broker = queue if isinstance(queue, Broker) else Broker(queue)
        self._cache_dir = cache_dir
        self._stop = threading.Event()
        self._workers: "list[threading.Thread]" = []

    def cache(self) -> ResultCache:
        """A fresh cache view (instances count hits; threads do not share)."""
        return ResultCache(self._cache_dir)

    def start_workers(self, count: int, poll: float = 0.2) -> None:
        """Spawn ``count`` in-process worker threads draining the queue."""
        for index in range(int(count)):
            thread = threading.Thread(
                target=worker_loop,
                kwargs=dict(
                    queue=self.broker,
                    cache=self.cache(),
                    poll=poll,
                    stop=self._stop.is_set,
                    worker_id=f"serve-worker-{index}",
                ),
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def shutdown(self) -> None:
        self._stop.set()
        super().shutdown()
        for thread in self._workers:
            thread.join(timeout=5.0)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"
