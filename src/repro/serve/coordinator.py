"""Lease-based campaign coordinator (``repro serve``).

The coordinator keeps two pieces of state behind one lock:

* the **attempt ledger** (:class:`repro.engine.leases.LeaseTable`) —
  every fingerprinted job ever submitted, with its lifecycle state,
  consumed attempt count and failure history, and which worker holds
  which jobs until what deadline;
* a **result store** — fleet-wide content-addressed dedup
  (:class:`repro.registry.store.ResultStore`, the on-disk result format
  the engine's disk cache uses too).

The ledger is the one every local executor drives too, so its rules are
theirs: leasing a job *consumes* an attempt, so a worker that is
SIGKILLed or partitioned mid-lease simply stops heartbeating, its lease
expires, and the jobs are re-queued at the *front* with their attempt
numbers preserved — the next lease hands out attempt 2, the named seed
streams replay, and the retry is byte-identical to an undisturbed first
try.  A job that exhausts its attempt budget is quarantined with its
failure history rather than poisoning the campaign.  What stays here is
protocol validation, HTTP, the store and the ``serve.*`` counters.

Everything is stdlib: ``ThreadingHTTPServer`` in a daemon thread, JSON
bodies, and the PR-9 span envelope carried on real HTTP headers.  The
expiry reaper is *lazy* — it runs at the top of every request instead
of in a timer thread, which keeps the coordinator single-clocked and
trivially testable (tests advance time by passing a ``clock`` callable).
"""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.engine.leases import JOB_QUARANTINED, SETTLED_STATES, LeaseTable
from repro.errors import ObserveError, ServeError, ServeProtocolError
from repro.registry.store import ResultStore
from repro.serve import protocol
from repro.telemetry.registry import Registry

#: Default lease deadline; workers renew at a fraction of this.
DEFAULT_LEASE_TIMEOUT_S = 15.0

#: Default attempt budget when a submission does not name one.
DEFAULT_MAX_ATTEMPTS = 3


class Coordinator:
    """Fault-tolerant job service over a content-addressed result store."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ServeError("lease_timeout_s must be positive")
        self.store = ResultStore(root)
        self.registry = Registry()
        self.lease_timeout_s = float(lease_timeout_s)
        self._host = host
        self._requested_port = port
        self._lock = threading.Lock()
        self._table = LeaseTable(clock=clock)
        self._workers: Set[str] = set()
        self._chaos: Optional[Dict[str, Any]] = None
        self._server: Optional[_CoordinatorServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the running (or configured) coordinator."""
        return f"http://{self._host}:{self.port}"

    def start(self) -> "Coordinator":
        """Bind and begin serving in a daemon thread."""
        if self._server is not None:
            raise ServeError("coordinator already started")
        try:
            server = _CoordinatorServer(
                (self._host, self._requested_port), _CoordinatorHandler
            )
        except OSError as error:
            raise ObserveError(
                f"cannot bind coordinator to {self._host}:{self._requested_port} "
                f"({error}); pass --port 0 to pick a free ephemeral port"
            ) from error
        server.coordinator = self
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- ledger bookkeeping ------------------------------------------------------

    def _count_requeue(self, state: str) -> None:
        """Count one failed attempt that left its job in ``state``."""
        if state == JOB_QUARANTINED:
            self.registry.counter("serve.jobs.quarantined").inc()
        else:
            self.registry.counter("serve.jobs.requeued").inc()

    def _reap(self) -> None:
        """Expire overdue leases; called under the lock by every request."""
        for _lease, settled in self._table.reap():
            self.registry.counter("serve.leases.expired").inc()
            for _fingerprint, state in settled:
                self._count_requeue(state)

    # -- request handlers (all return (body-dict, extra-headers)) ----------------

    def handle_submit(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/jobs`` — idempotent fingerprint-keyed submission."""
        protocol.check_protocol(headers)
        context = protocol.context_from_headers(headers)
        envelope = context.to_envelope() if context is not None else {}
        protocol.require(message, "jobs")
        jobs = message["jobs"]
        if not isinstance(jobs, list):
            raise ServeProtocolError("'jobs' must be a list")
        chaos = message.get("chaos")
        if chaos is not None and not isinstance(chaos, dict):
            raise ServeProtocolError("'chaos' must be an object or null")
        max_attempts = int(message.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
        if max_attempts < 1:
            raise ServeProtocolError("'max_attempts' must be >= 1")
        accepted: List[str] = []
        cached: List[str] = []
        with self._lock:
            self._reap()
            if chaos is not None:
                self._chaos = dict(chaos)
            for entry in jobs:
                if not isinstance(entry, dict):
                    raise ServeProtocolError("each job must be an object")
                protocol.require(entry, "fingerprint", "kind", "spec")
                fingerprint = str(entry["fingerprint"])
                if fingerprint in self.store:
                    # Fleet-wide dedup: any client that submitted these
                    # bytes before already paid for the execution.
                    cached.append(fingerprint)
                    self.registry.counter("serve.jobs.deduped").inc()
                    continue
                # A done job whose stored result failed verification was
                # just quarantined by the check above: run it afresh.
                if self._table.submit(
                    fingerprint,
                    {
                        "kind": str(entry["kind"]),
                        "spec": str(entry["spec"]),
                        "envelope": dict(envelope),
                    },
                    max_attempts,
                ):
                    self.registry.counter("serve.jobs.submitted").inc()
                # An in-flight duplicate submission shares the existing
                # record — both clients collect the same result.
                accepted.append(fingerprint)
        return (
            {
                "protocol": protocol.PROTOCOL_VERSION,
                "accepted": accepted,
                "cached": cached,
            },
            {},
        )

    def handle_lease(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/lease`` — hand a worker up to ``capacity`` jobs."""
        protocol.check_protocol(headers)
        protocol.require(message, "worker_id")
        worker_id = str(message["worker_id"])
        capacity = int(message.get("capacity", 1))
        if capacity < 1:
            raise ServeProtocolError("'capacity' must be >= 1")
        with self._lock:
            self._reap()
            self._workers.add(worker_id)
            lease = self._table.lease(
                f"worker {worker_id}", capacity, self.lease_timeout_s
            )
            granted: List[Dict[str, Any]] = []
            envelope: Dict[str, str] = {}
            for fingerprint in lease.keys if lease is not None else ():
                record = self._table.jobs[fingerprint]
                if not envelope:
                    envelope = dict(record.job["envelope"])
                granted.append(
                    {
                        "fingerprint": fingerprint,
                        "kind": record.job["kind"],
                        "attempt": record.attempts,
                        "spec": record.job["spec"],
                    }
                )
            body: Dict[str, Any] = {
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs": granted,
                "lease_timeout_s": self.lease_timeout_s,
                "chaos": self._chaos,
            }
            if lease is not None:
                self.registry.counter("serve.leases.granted").inc()
                body["lease_id"] = lease.lease_id
            return body, envelope

    def handle_heartbeat(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/heartbeat`` — renew a lease's deadline."""
        protocol.check_protocol(headers)
        protocol.require(message, "lease_id")
        lease_id = str(message["lease_id"])
        with self._lock:
            self._reap()
            if not self._table.renew(lease_id, self.lease_timeout_s):
                # Already reaped: the worker should abandon the batch —
                # its jobs have been re-queued for someone else.
                return {"ok": False, "reason": "unknown-lease"}, {}
            self.registry.counter("serve.leases.renewed").inc()
            return {"ok": True, "lease_timeout_s": self.lease_timeout_s}, {}

    def handle_result(
        self, fingerprint: str, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``PUT /v1/result/<fingerprint>`` — idempotent, first-wins."""
        protocol.check_protocol(headers)
        protocol.require(message, "status")
        status = str(message["status"])
        with self._lock:
            self._reap()
            record = self._table.jobs.get(fingerprint)
            if record is None:
                raise ServeProtocolError(
                    f"result for unknown job {fingerprint[:12]}…"
                )
            if record.state in SETTLED_STATES:
                # Duplicate delivery (chaos, or a re-leased twin finishing
                # after the original): the first result already won.
                self.registry.counter("serve.results.duplicate").inc()
                return {"ok": True, "duplicate": True}, {}
            if status == "ok":
                protocol.require(message, "payload")
                blob = protocol.decode_payload(str(message["payload"]))
                self.store.put(fingerprint, blob)
                self._table.complete(fingerprint)
                self.registry.counter("serve.jobs.completed").inc()
            elif status == "error":
                state = self._table.fail(
                    fingerprint,
                    str(message.get("error_type", "Error")),
                    str(message.get("error_message", "")),
                    attempt=int(message.get("attempt", record.attempts)),
                )
                self._count_requeue(state)
                if state != JOB_QUARANTINED:
                    self.registry.counter("serve.jobs.retries").inc()
            else:
                raise ServeProtocolError(
                    f"result status must be 'ok' or 'error', got {status!r}"
                )
            return {"ok": True, "duplicate": False}, {}

    def handle_collect(
        self, message: Dict[str, Any], headers: Dict[str, str]
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """``POST /v1/collect`` — poll results for a set of fingerprints."""
        protocol.check_protocol(headers)
        protocol.require(message, "fingerprints")
        fingerprints = message["fingerprints"]
        if not isinstance(fingerprints, list):
            raise ServeProtocolError("'fingerprints' must be a list")
        done: Dict[str, Dict[str, Any]] = {}
        pending: List[str] = []
        with self._lock:
            self._reap()
            for raw in fingerprints:
                fingerprint = str(raw)
                record = self._table.jobs.get(fingerprint)
                if record is not None and record.state == JOB_QUARANTINED:
                    done[fingerprint] = {
                        "status": "quarantined",
                        "attempts": record.attempts,
                        "failures": list(record.failures),
                    }
                    continue
                blob = self.store.get(fingerprint)
                if blob is not None:
                    done[fingerprint] = {
                        "status": "ok",
                        "payload": protocol.encode_payload(blob),
                        "attempts": record.attempts if record else 1,
                        "failures": list(record.failures) if record else [],
                    }
                else:
                    pending.append(fingerprint)
        return {"done": done, "pending": pending}, {}

    def status_snapshot(self) -> Dict[str, Any]:
        """JSON-safe service snapshot for ``GET /v1/status``.

        The coordinator's one read surface: live queue, lease, worker,
        job-state and store figures, plus every ``serve.*`` counter of
        :attr:`registry` under ``counters``.
        """
        with self._lock:
            self._reap()
            by_state: Dict[str, int] = {}
            for record in self._table.jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            return {
                "protocol": protocol.PROTOCOL_VERSION,
                "queue_depth": len(self._table.queue),
                "leases": len(self._table.leases),
                "workers": sorted(self._workers),
                "jobs": by_state,
                "store": {
                    "results": len(self.store),
                    **self.store.stats.as_dict(),
                },
                "counters": self.registry.counter_values(),
            }


class _CoordinatorServer(ThreadingHTTPServer):
    daemon_threads = True
    coordinator: Coordinator


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes the tiny protocol surface; errors become JSON bodies."""

    server_version = "repro-serve/1"

    # -- plumbing ----------------------------------------------------------------

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0) or 0)
        return self.rfile.read(length) if length else b""

    def _reply(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str = protocol.CONTENT_TYPE,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up (or chaos dropped the response)

    def _reply_json(
        self,
        status: int,
        message: Dict[str, Any],
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        self._reply(status, protocol.dumps_message(message), extra=extra)

    def _dispatch(
        self,
        handler: Callable[..., Tuple[Dict[str, Any], Dict[str, str]]],
        *args: Any,
    ) -> None:
        try:
            body, extra = handler(*args)
        except ServeProtocolError as error:
            self._reply_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - server must not die
            self._reply_json(
                500, {"error": f"{type(error).__name__}: {error}"}
            )
        else:
            self._reply_json(200, body, extra)

    def _headers_dict(self) -> Dict[str, str]:
        return {str(k): str(v) for k, v in self.headers.items()}

    # -- verbs -------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        coordinator = self.server.coordinator
        if path == "/healthz":
            self._reply(200, b"ok\n", content_type="text/plain; charset=utf-8")
        elif path == "/v1/status":
            self._reply_json(200, coordinator.status_snapshot())
        else:
            self._reply_json(404, {"error": f"no such path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        coordinator = self.server.coordinator
        headers = self._headers_dict()
        try:
            message = protocol.loads_message(self._body())
        except ServeProtocolError as error:
            self._reply_json(400, {"error": str(error)})
            return
        if path == "/v1/jobs":
            self._dispatch(coordinator.handle_submit, message, headers)
        elif path == "/v1/lease":
            self._dispatch(coordinator.handle_lease, message, headers)
        elif path == "/v1/heartbeat":
            self._dispatch(coordinator.handle_heartbeat, message, headers)
        elif path == "/v1/collect":
            self._dispatch(coordinator.handle_collect, message, headers)
        else:
            self._reply_json(404, {"error": f"no such path {path!r}"})

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        coordinator = self.server.coordinator
        if not path.startswith("/v1/result/"):
            self._reply_json(404, {"error": f"no such path {path!r}"})
            return
        fingerprint = path[len("/v1/result/"):]
        headers = self._headers_dict()
        try:
            message = protocol.loads_message(self._body())
        except ServeProtocolError as error:
            self._reply_json(400, {"error": str(error)})
            return
        self._dispatch(coordinator.handle_result, fingerprint, message, headers)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (the protocol is chatty)."""


__all__ = [
    "Coordinator",
    "DEFAULT_LEASE_TIMEOUT_S",
    "DEFAULT_MAX_ATTEMPTS",
]
