"""Supervision primitives for resilient campaign execution.

Large characterization/attack campaigns (Tables 3-5 of the paper) run
for a long time across many worker processes; production campaign
runners survive their own failures.  The attempt ledger
(:mod:`repro.engine.leases`) decides retry, requeue and quarantine for
every executor; this module holds the rest of what supervision is built
from:

* :class:`RetryPolicy` — per-job timeouts and bounded retries with a
  *deterministic* backoff schedule.  Retries replay the job's exact
  named seed stream, so a job that succeeds on attempt 3 returns the
  byte-identical payload it would have returned on attempt 1.
* :class:`ChaosPolicy` — seeded, deterministic fault injection (worker
  kills, job exceptions, job stalls, torn cache writes).  The decision
  for a given (job fingerprint, attempt) is a pure function of the
  chaos seed, so a chaos run is exactly reproducible, and because
  injected faults never change what a job *computes*, a supervised
  campaign under chaos converges to the failure-free result byte for
  byte (the ``repro chaos`` double-run contract).
* :class:`SupervisionStats` — what the supervisor did: retries,
  timeouts, requeues, pool respawns, quarantines, degraded-inline jobs.
  Retries, requeues and quarantines are counted from each landed
  result's ledger record by one rule, :meth:`SupervisionStats.book`;
  the engine session folds the deltas into ``engine.retries`` /
  ``engine.requeues`` / ``engine.quarantined`` telemetry counters.
* :class:`Quarantined` — the payload standing in for a poison job's
  result after every attempt failed: the campaign continues, the
  quarantine record lands in the run report, and a flight dump
  preserves the scene (:func:`repro.observe.flight.dump_quarantine`).
* :func:`execute_supervised` — the process-pool entry point wrapping
  :func:`repro.engine.jobs.execute_job` with chaos injection.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields, replace
from typing import Any, ClassVar, Dict, Optional, Sequence

from repro.engine.jobs import JobResult, JobSpec, execute_job
from repro.engine.leases import LEASE_EXPIRED
from repro.errors import ChaosError, ConfigurationError, ReproError

#: Environment knobs steering the default retry policy.
JOB_RETRIES_ENV = "REPRO_JOB_RETRIES"
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Chaos actions a policy can schedule for one (fingerprint, attempt).
CHAOS_ACTIONS = ("kill", "error", "stall")

#: Network chaos actions a policy can schedule for one request attempt
#: (see :meth:`ChaosPolicy.network_action_for`).
NETWORK_CHAOS_ACTIONS = ("drop", "tear", "stall", "duplicate")

#: Separator keeping ("a","bc") and ("ab","c") on distinct draws.
_DRAW_SEPARATOR = "\x1f"


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats one job's attempts.

    ``max_attempts`` bounds total tries (1 = no retries); a job that
    exhausts it is quarantined and the campaign continues.
    ``timeout_s`` is the per-attempt wall-clock budget (``None`` =
    unbounded; a timed out attempt cannot be preempted, it is abandoned
    and its late result discarded).  Backoff before attempt *n+1* is the
    deterministic ``backoff_s * 2**(n-1)`` — no jitter, so two runs of
    the same campaign retry on the same schedule.  ``max_pool_respawns``
    bounds how many times one batch may rebuild a broken process pool
    before degrading to inline execution.
    """

    max_attempts: int = 3
    timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    max_pool_respawns: int = 2

    #: Growth of the backoff from one retry to the next.
    backoff_factor: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive (or None)")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if self.max_pool_respawns < 0:
            raise ConfigurationError("max_pool_respawns must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before re-running after failed ``attempt``."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """The policy selected by ``REPRO_JOB_RETRIES`` / ``REPRO_JOB_TIMEOUT``
        / ``REPRO_RETRY_BACKOFF`` (unset knobs keep their defaults)."""
        kwargs: Dict[str, Any] = {}
        for env, name, parse, expected in (
            (JOB_RETRIES_ENV, "max_attempts", int, "an integer"),
            (JOB_TIMEOUT_ENV, "timeout_s", float, "a number of seconds"),
            (RETRY_BACKOFF_ENV, "backoff_s", float, "a number of seconds"),
        ):
            raw = os.environ.get(env)
            if raw:
                try:
                    kwargs[name] = parse(raw)
                except ValueError as error:
                    raise ConfigurationError(
                        f"{env} must be {expected}, got {raw!r}"
                    ) from error
        return cls(**kwargs)


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded deterministic fault injection for the chaos harness.

    Every decision is a pure function of ``(seed, fingerprint, attempt)``
    via sha256, so the same chaos run replays exactly.  Faults are only
    scheduled for attempts ``<= max_faulted_attempts`` (default 1): a
    retried attempt always runs clean, which is what makes a chaos
    campaign *provably converge* to the failure-free result as long as
    the retry budget exceeds the faulted-attempt budget.

    ``kill_rate`` maps to ``os._exit(1)`` in the worker (breaks the
    whole pool — or, for a remote worker agent, dies mid-lease so the
    coordinator re-leases the batch), ``error_rate`` to a
    :class:`~repro.errors.ChaosError`, ``stall_rate`` to a ``stall_s``
    sleep (trips per-job timeouts), and ``torn_write_rate`` to a
    corrupted on-disk cache entry injected by the engine session right
    after a ``put``.

    The ``drop_rate`` / ``torn_body_rate`` / ``net_stall_rate`` /
    ``duplicate_rate`` quartet schedules *network* faults for the
    multi-host campaign service (:mod:`repro.serve`): a dropped
    response (the request was processed, the reply never arrived), a
    torn/truncated body, a stalled socket, and a duplicated delivery
    of the same request.  They are addressed per (request name,
    transport attempt) via :meth:`network_action_for` and obey the same
    ``max_faulted_attempts`` convergence rule as the worker faults:
    retried deliveries always run clean, and because every service
    request is idempotent, a chaos-ridden remote campaign converges to
    the undisturbed result byte for byte.
    """

    seed: int = 0
    kill_rate: float = 0.0
    error_rate: float = 0.0
    stall_rate: float = 0.0
    torn_write_rate: float = 0.0
    stall_s: float = 0.5
    max_faulted_attempts: int = 1
    drop_rate: float = 0.0
    torn_body_rate: float = 0.0
    net_stall_rate: float = 0.0
    duplicate_rate: float = 0.0
    net_stall_s: float = 0.2

    def __post_init__(self) -> None:
        rates = (
            self.kill_rate, self.error_rate, self.stall_rate, self.torn_write_rate,
            self.drop_rate, self.torn_body_rate, self.net_stall_rate,
            self.duplicate_rate,
        )
        if any(rate < 0.0 or rate > 1.0 for rate in rates):
            raise ConfigurationError("chaos rates must lie in [0, 1]")
        if self.kill_rate + self.error_rate + self.stall_rate > 1.0:
            raise ConfigurationError(
                "kill_rate + error_rate + stall_rate must not exceed 1"
            )
        if (
            self.drop_rate + self.torn_body_rate + self.net_stall_rate
            + self.duplicate_rate
        ) > 1.0:
            raise ConfigurationError(
                "drop_rate + torn_body_rate + net_stall_rate + "
                "duplicate_rate must not exceed 1"
            )
        if self.stall_s < 0 or self.net_stall_s < 0:
            raise ConfigurationError("stall_s must be >= 0")
        if self.max_faulted_attempts < 0:
            raise ConfigurationError("max_faulted_attempts must be >= 0")

    # -- deterministic draws -----------------------------------------------------

    def _draw(self, *names: str) -> float:
        """A uniform [0, 1) variate addressed by ``names`` under the seed."""
        blob = _DRAW_SEPARATOR.join((str(self.seed),) + names).encode("utf-8")
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "little") / 2.0**64

    def action_for(self, fingerprint: str, attempt: int) -> Optional[str]:
        """The fault scheduled for this attempt (``None`` = run clean)."""
        if attempt > self.max_faulted_attempts:
            return None
        draw = self._draw(fingerprint, str(attempt), "action")
        if draw < self.kill_rate:
            return "kill"
        if draw < self.kill_rate + self.error_rate:
            return "error"
        if draw < self.kill_rate + self.error_rate + self.stall_rate:
            return "stall"
        return None

    def should_tear_cache(self, fingerprint: str) -> bool:
        """Whether the disk cache entry for this result gets torn."""
        return self._draw(fingerprint, "tear") < self.torn_write_rate

    def network_action_for(self, name: str, attempt: int) -> Optional[str]:
        """The network fault scheduled for one request delivery.

        ``name`` addresses the request (method, path and the batch or
        result fingerprint it carries); ``attempt`` is the transport
        attempt number.  Like :meth:`action_for`, faults are only
        scheduled for attempts ``<= max_faulted_attempts``, so a
        retried delivery always runs clean and the retry budget bounds
        convergence.  Returns one of :data:`NETWORK_CHAOS_ACTIONS` or
        ``None`` (deliver clean).
        """
        if attempt > self.max_faulted_attempts:
            return None
        draw = self._draw("net", name, str(attempt), "action")
        if draw < self.drop_rate:
            return "drop"
        if draw < self.drop_rate + self.torn_body_rate:
            return "tear"
        if draw < self.drop_rate + self.torn_body_rate + self.net_stall_rate:
            return "stall"
        if draw < (
            self.drop_rate + self.torn_body_rate + self.net_stall_rate
            + self.duplicate_rate
        ):
            return "duplicate"
        return None

    # -- worker-side application -------------------------------------------------

    def apply(self, fingerprint: str, attempt: int) -> None:
        """Inject this attempt's scheduled fault (worker side).

        A *kill* takes the whole worker down with ``os._exit`` (the
        parent sees ``BrokenProcessPool`` and respawns); an *error*
        raises :class:`~repro.errors.ChaosError`; a *stall* sleeps for
        ``stall_s`` and then lets the job run (the parent's per-job
        timeout fires first and the late result is discarded).
        """
        action = self.action_for(fingerprint, attempt)
        if action == "kill":
            os._exit(1)
        if action == "error":
            raise ChaosError(
                f"injected fault for job {fingerprint[:12]} attempt {attempt}"
            )
        if action == "stall":
            time.sleep(self.stall_s)

    # -- parent-side application -------------------------------------------------

    def tear(self, cache: Any, fingerprint: str) -> bool:
        """Tear the cache entry for ``fingerprint`` (parent side).

        Truncates the indexed blob (when the cache has a disk layer) and
        drops the in-memory copy, so the next lookup must detect the
        corruption, quarantine the blob and recompute.  Returns whether
        anything was torn.
        """
        torn = False
        disk = cache.disk
        path = disk.blob_path(fingerprint) if disk is not None else None
        if path is not None and path.exists():
            raw = path.read_bytes()
            # Keep a non-empty prefix: the worst kind of torn write,
            # undetectable by length-zero checks, caught only because
            # the bytes no longer hash to their address.
            path.write_bytes(raw[: max(1, len(raw) // 2)])
            torn = True
        if cache._memory.pop(fingerprint, None) is not None:
            torn = True
        return torn

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe description for CLI output and run reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SupervisionStats:
    """What a supervised executor did over its lifetime (cumulative).

    Timeouts, respawns and degraded jobs are counted where the executor
    acts; the rest are outcomes of jobs, counted by :meth:`book`.
    """

    retries: int = 0
    timeouts: int = 0
    requeues: int = 0
    respawns: int = 0
    quarantined: int = 0
    degraded: int = 0

    def book(self, result: JobResult) -> None:
        """Count a landed result: each lease expiry is a requeue, each
        other failure that was tried again a retry."""
        quarantined = isinstance(result.payload, Quarantined)
        if result.failures:
            retried = len(result.failures) - quarantined
            for index, failure in enumerate(result.failures):
                if failure.get("error_type") == LEASE_EXPIRED:
                    self.requeues += 1
                elif index < retried:
                    self.retries += 1
        self.quarantined += quarantined

    def copy(self) -> "SupervisionStats":
        return replace(self)

    def delta(self, since: "SupervisionStats") -> "SupervisionStats":
        """The increments accumulated after the ``since`` snapshot."""
        return SupervisionStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class Quarantined:
    """The stand-in payload for a job whose every attempt failed.

    The supervised executor returns this instead of raising, so one
    poison job cannot abort a campaign; the session keeps a quarantine
    list for the run report and never caches these.
    """

    fingerprint: str
    kind: str
    attempts: int
    error_type: str
    error_message: str
    flight_dump: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "flight_dump": self.flight_dump,
        }


def refuse_partial(payloads: Sequence[Any], scope: str, unit: str) -> None:
    """Raise :class:`~repro.errors.ReproError` if any payload is
    quarantined: a fold over the rest would be silently wrong."""
    lost = sum(1 for payload in payloads if isinstance(payload, Quarantined))
    if lost:
        raise ReproError(
            f"{scope} lost {lost} {unit}(s) to quarantine; "
            "see the run report's quarantine list"
        )


@dataclass(frozen=True)
class SupervisedTask:
    """One attempt shipped to a worker: the job, which try, what chaos.

    ``span_context`` is the session's propagated trace position
    (:class:`repro.observe.spans.SpanContext`); it rides on the task —
    *not* on the :class:`JobSpec` — because trace position is scheduling
    metadata that must never enter a job's fingerprint.
    """

    job: JobSpec
    attempt: int = 1
    chaos: Optional[ChaosPolicy] = None
    span_context: Optional[Any] = None


def execute_supervised(task: SupervisedTask) -> JobResult:
    """Worker entry point for supervised execution.

    Applies the chaos policy's scheduled fault for this attempt (if
    any), then runs the job exactly as :func:`execute_job` would — the
    job draws from the same named seed stream regardless of the attempt
    number, so retries are byte-identical to first tries.  Top-level by
    design so the process pool pickles it by reference.
    """
    if task.chaos is not None:
        task.chaos.apply(task.job.fingerprint(), task.attempt)
    return execute_job(
        task.job, span_context=task.span_context, attempt=task.attempt
    )
