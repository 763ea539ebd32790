"""Client side of the campaign service: transport and remote executor.

:class:`Transport` is the only piece of this package that touches a
socket on the client's behalf.  It retries every request under a
*deterministic* capped exponential backoff — the schedule depends only
on the policy's numbers, never on randomness — and raises
:class:`~repro.errors.CoordinatorUnreachableError` once the budget is
spent.  Because every protocol request is idempotent (submission and
results are keyed on job fingerprints), the transport can retry blindly;
that is also where the chaos harness plugs in, replaying the classic
network failure modes on a seeded schedule:

* **drop** — the request reaches the coordinator but the response is
  discarded, so the retry exercises duplicate-submission paths;
* **tear** — the response body is truncated mid-byte, so the retry
  exercises the malformed-body path;
* **stall** — the socket hangs for ``net_stall_s`` before failing;
* **duplicate** — the request is delivered twice back to back.

:class:`RemoteExecutor` implements the ordinary
:class:`~repro.engine.executors.Executor` contract on top of that
transport, so ``EngineSession`` shards a campaign through the fleet
without changing a line: submit the batch (span envelope on the HTTP
headers), poll ``/v1/collect``, and hand back results in input order.
When the coordinator stays unreachable beyond the retry budget — or
stops making progress past ``max_wait_s`` — the executor degrades
gracefully: the remaining jobs finish inline on an attempt ledger under
the same :class:`~repro.engine.resilience.RetryPolicy`, exactly like the
process pool does when it cannot keep workers alive.  Degradation cannot
change payload bytes; every job replays its named seed stream wherever
it runs.
"""

from __future__ import annotations

import pickle
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.executors import (
    Executor,
    ProgressCallback,
    SupervisedBatch,
    quarantine_result,
)
from repro.engine.jobs import JobResult, JobSpec
from repro.engine.resilience import ChaosPolicy, RetryPolicy
from repro.errors import CoordinatorUnreachableError, ServeProtocolError
from repro.registry.store import encode_object
from repro.serve import protocol

#: Transport retry schedule defaults (deterministic, capped exponential).
DEFAULT_MAX_TRIES = 5
DEFAULT_BACKOFF_S = 0.05
DEFAULT_BACKOFF_FACTOR = 2.0
DEFAULT_BACKOFF_CAP_S = 2.0
DEFAULT_TIMEOUT_S = 10.0


class Transport:
    """Retrying HTTP/JSON channel to one coordinator.

    ``sleep`` is injectable so tests can pin the backoff schedule
    without waiting through it.
    """

    def __init__(
        self,
        base_url: str,
        *,
        chaos: Optional[ChaosPolicy] = None,
        max_tries: int = DEFAULT_MAX_TRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        backoff_factor: float = DEFAULT_BACKOFF_FACTOR,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.chaos = chaos
        self.max_tries = max(1, int(max_tries))
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.backoff_cap_s = float(backoff_cap_s)
        self.timeout_s = float(timeout_s)
        self._sleep = sleep

    def backoff_for(self, attempt: int) -> float:
        """Deterministic capped exponential delay before retry ``attempt + 1``."""
        return min(
            self.backoff_cap_s,
            self.backoff_s * self.backoff_factor ** (attempt - 1),
        )

    def _raw(
        self,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[Dict[str, str], bytes]:
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method
        )
        request.add_header("Content-Type", protocol.CONTENT_TYPE)
        request.add_header(
            protocol.PROTOCOL_HEADER, str(protocol.PROTOCOL_VERSION)
        )
        for name, value in headers.items():
            request.add_header(name, value)
        with urllib.request.urlopen(request, timeout=self.timeout_s) as reply:
            return dict(reply.headers.items()), reply.read()

    def request(
        self,
        method: str,
        path: str,
        message: Optional[Dict[str, Any]] = None,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[Dict[str, Any], Dict[str, str]]:
        """One idempotent protocol request, retried under the budget.

        Returns ``(parsed body, response headers)``.  Raises
        :class:`ServeProtocolError` on a coordinator 400 (a real
        protocol disagreement, which a retry cannot fix) and
        :class:`CoordinatorUnreachableError` when the retry budget is
        exhausted by connection failures, 5xx replies, or chaos.
        """
        data = protocol.dumps_message(message or {})
        extra = dict(headers or {})
        last_error: BaseException = OSError("no attempt made")
        for attempt in range(1, self.max_tries + 1):
            action = None
            if self.chaos is not None:
                action = self.chaos.network_action_for(
                    f"{method} {path}", attempt
                )
            try:
                if action == "stall":
                    self._sleep(self.chaos.net_stall_s)
                    raise OSError("chaos: stalled socket")
                reply_headers, body = self._raw(method, path, data, extra)
                if action == "duplicate":
                    # Deliver the (idempotent) request a second time and
                    # use the second reply — the duplicate must be free.
                    reply_headers, body = self._raw(method, path, data, extra)
                if action == "drop":
                    # The coordinator processed the request; the client
                    # never hears back.  The retry must be harmless.
                    raise OSError("chaos: response dropped")
                if action == "tear":
                    body = body[: len(body) // 2]
                return protocol.loads_message(body), reply_headers
            except urllib.error.HTTPError as error:
                detail = ""
                try:
                    detail = error.read().decode("utf-8", "replace")
                except OSError:
                    pass
                if error.code == 400:
                    raise ServeProtocolError(
                        f"coordinator rejected {method} {path}: {detail.strip()}"
                    ) from error
                last_error = error
            except (OSError, ServeProtocolError) as error:
                last_error = error
            if attempt < self.max_tries:
                self._sleep(self.backoff_for(attempt))
        raise CoordinatorUnreachableError(
            self.base_url, self.max_tries, last_error
        )


class RemoteExecutor(Executor):
    """Shards batches through a coordinator; degrades to inline on loss.

    Satisfies the full :class:`Executor` contract — results in input
    order, each landed through :meth:`SupervisedBatch.land` with the
    coordinator's attempt history on it, quarantine semantics — so the
    engine session cannot tell the fleet from a local pool except by
    reading ``result.origin``.
    """

    name = "remote"

    def __init__(
        self,
        url: str,
        *,
        policy: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
        poll_interval_s: float = 0.05,
        max_wait_s: Optional[float] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        super().__init__(policy=policy)
        self.url = url.rstrip("/")
        self.chaos = chaos
        self.poll_interval_s = float(poll_interval_s)
        self.max_wait_s = max_wait_s
        self.transport = transport or Transport(self.url, chaos=chaos)

    # -- landing results ---------------------------------------------------------

    @staticmethod
    def _land(entry: Dict[str, Any], job: JobSpec, cached: bool) -> JobResult:
        """The result a ``done`` entry describes, with its ledger record."""
        attempts = int(entry.get("attempts", 1))
        failures = list(entry.get("failures", []))
        if entry.get("status") == "quarantined":
            result = quarantine_result(job, attempts, failures)
            result.origin = protocol.ORIGIN_REMOTE
        else:
            result = pickle.loads(protocol.decode_payload(str(entry["payload"])))
            result.origin = (
                protocol.ORIGIN_REMOTE_CACHE if cached else protocol.ORIGIN_REMOTE
            )
        result.attempts = attempts
        result.failures = failures
        return result

    # -- the executor contract ---------------------------------------------------

    def run_jobs(
        self,
        jobs: Sequence[JobSpec],
        *,
        progress: Optional[ProgressCallback] = None,
        span_context=None,
    ) -> List[JobResult]:
        jobs = list(jobs)
        if not jobs:
            return []
        fingerprints = [job.fingerprint() for job in jobs]
        by_fingerprint: Dict[str, JobSpec] = {}
        for job, fingerprint in zip(jobs, fingerprints):
            by_fingerprint.setdefault(fingerprint, job)

        batch = SupervisedBatch(self, progress)

        headers = protocol.span_headers(span_context)
        submit_message = {
            "jobs": [
                {
                    "fingerprint": fingerprint,
                    "kind": by_fingerprint[fingerprint].kind,
                    "spec": protocol.encode_payload(
                        encode_object(by_fingerprint[fingerprint])
                    ),
                }
                for fingerprint in sorted(by_fingerprint)
            ],
            "chaos": self.chaos.as_dict() if self.chaos is not None else None,
            "max_attempts": self.policy.max_attempts,
        }
        unreachable = False
        try:
            reply, _ = self.transport.request(
                "POST", "/v1/jobs", submit_message, headers=headers
            )
        except CoordinatorUnreachableError:
            # Never reached the fleet: the whole batch runs locally.
            reply, unreachable = {}, True

        cached = set(reply.get("cached", []))
        submitted_s = time.monotonic()
        pending = set(by_fingerprint)
        deadline = (
            submitted_s + self.max_wait_s if self.max_wait_s is not None else None
        )
        while pending and not unreachable:
            try:
                reply, _ = self.transport.request(
                    "POST",
                    "/v1/collect",
                    {"fingerprints": sorted(pending)},
                    headers=headers,
                )
            except CoordinatorUnreachableError:
                unreachable = True
                break
            for fingerprint, entry in sorted(reply.get("done", {}).items()):
                if fingerprint not in pending:
                    continue
                pending.discard(fingerprint)
                result = self._land(
                    entry, by_fingerprint[fingerprint], fingerprint in cached
                )
                # The whole remote hop (queue + execution + transfer)
                # since this client submitted is the job span's queue
                # wait; a result replayed from the fleet store was never
                # queued for this submission.
                batch.land(
                    fingerprint,
                    result,
                    None
                    if result.origin == protocol.ORIGIN_REMOTE_CACHE
                    else submitted_s,
                )
            if not pending:
                break
            if deadline is not None and time.monotonic() > deadline:
                # Reachable but not progressing (no workers attached, or
                # a stuck fleet): from here the local machine is the
                # fleet of last resort.
                unreachable = True
                break
            time.sleep(self.poll_interval_s)

        if unreachable and pending:
            # Degrade: the rest finishes inline on the batch's ledger.
            self.stats.degraded += len(pending)
            batch.submit(sorted((f, by_fingerprint[f]) for f in pending))
            batch.run_inline(span_context)
        return [batch.results[fingerprint] for fingerprint in fingerprints]


__all__ = [
    "DEFAULT_BACKOFF_CAP_S",
    "DEFAULT_BACKOFF_FACTOR",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_MAX_TRIES",
    "DEFAULT_TIMEOUT_S",
    "RemoteExecutor",
    "Transport",
]
