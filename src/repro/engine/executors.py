"""Pluggable job executors: in-process serial and supervised process-pool.

Executors run batches of :class:`~repro.engine.jobs.JobSpec` and return
:class:`~repro.engine.jobs.JobResult` lists *in input order*.  Because
every job derives its randomness from a seed stream keyed by its own
identity, the two executors are interchangeable: sharding a sweep across
worker processes reproduces the serial output byte for byte, only
faster.  Selection is config-driven:

* ``REPRO_EXECUTOR`` — ``serial`` (default) or ``process``;
* ``REPRO_WORKERS`` — worker count for the process pool;
* ``REPRO_JOB_RETRIES`` / ``REPRO_JOB_TIMEOUT`` / ``REPRO_RETRY_BACKOFF``
  — the supervision policy (see :class:`~repro.engine.resilience.RetryPolicy`);
* the CLI's ``--executor`` / ``--workers`` flags override the first two.

:class:`ParallelExecutor` is a *supervised* executor: instead of a bare
``pool.map`` (where one worker crash or hung job aborted the whole batch
and discarded every completed result) it drives submit/wait futures with
per-job timeouts, bounded deterministic-backoff retries,
``BrokenProcessPool`` recovery (respawn, requeue in-flight jobs, keep
completed results), poison-job quarantine, and graceful degradation to
inline execution when the pool cannot be rebuilt.  None of this can
perturb results: a retried job replays its exact seed stream.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.jobs import JobResult, JobSpec, execute_job
from repro.engine.resilience import (
    ChaosPolicy,
    Quarantined,
    RetryPolicy,
    SupervisedTask,
    SupervisionStats,
    execute_supervised,
)
from repro.errors import ConfigurationError, JobFailedError

#: Environment variables steering executor selection.
EXECUTOR_ENV = "REPRO_EXECUTOR"
WORKERS_ENV = "REPRO_WORKERS"

#: Recognised executor kinds.
EXECUTOR_KINDS = ("serial", "process", "remote")

#: Coordinator URL consulted when ``REPRO_EXECUTOR=remote``.
COORDINATOR_ENV = "REPRO_COORDINATOR"


#: Per-job completion callback: ``progress(done_count, result)``.  Used
#: by the engine session to keep its progress gauges current while a
#: batch is in flight and to cache completed results as they land.
ProgressCallback = Callable[[int, JobResult], None]


class Executor(ABC):
    """Runs job batches; concrete classes choose where the work lands."""

    #: Kind tag used by config, CLI output and bench artifacts.
    name: str = "abstract"

    def __init__(self) -> None:
        #: Cumulative supervision bookkeeping; the session snapshots
        #: deltas into ``engine.retries`` / ``engine.requeues`` /
        #: ``engine.quarantined`` counters after every batch.
        self.stats = SupervisionStats()
        #: Failed-attempt records (fingerprint, kind, attempt,
        #: error_type) accumulated until the session drains them into the
        #: fleet timeline as ``attempt`` spans.
        self.failed_attempts: List[Dict[str, str]] = []

    def _record_failed_attempt(
        self, job: JobSpec, attempt: int, error: BaseException
    ) -> None:
        self.failed_attempts.append(
            {
                "fingerprint": job.fingerprint(),
                "kind": job.kind,
                "attempt": int(attempt),
                "error_type": type(error).__name__,
            }
        )

    def drain_failed_attempts(self) -> List[Dict[str, str]]:
        """Return and clear the accumulated failed-attempt records."""
        drained, self.failed_attempts = self.failed_attempts, []
        return drained

    @abstractmethod
    def run_jobs(
        self,
        jobs: Sequence[JobSpec],
        *,
        progress: Optional[ProgressCallback] = None,
        span_context=None,
    ) -> List[JobResult]:
        """Execute every job and return results in input order.

        ``progress`` (when given) is invoked in the calling process as
        each result lands, with the running completed count and the
        result — results still return in input order either way.
        ``span_context`` (a :class:`repro.observe.spans.SpanContext`) is
        propagated to every attempt so worker-recorded spans join the
        session's trace.
        """

    def close(self) -> None:
        """Release any held workers (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _quarantine_result(
    job: JobSpec, attempts: int, error: BaseException
) -> JobResult:
    """The stand-in result for a poison job, with a parent-side flight dump."""
    from repro.observe.flight import dump_quarantine

    path = dump_quarantine(job, error, attempts)
    payload = Quarantined(
        fingerprint=job.fingerprint(),
        kind=job.kind,
        attempts=attempts,
        error_type=type(error).__name__,
        error_message=str(error),
        flight_dump=str(path) if path is not None else None,
    )
    return JobResult(
        fingerprint=payload.fingerprint,
        payload=payload,
        counters={},
        attempts=attempts,
    )


class SerialExecutor(Executor):
    """Runs every job inline in the calling process.

    Carries the same retry/quarantine supervision as the pool executor
    (minus worker kills and timeouts, which need a process boundary), so
    a campaign degraded to serial execution keeps its failure semantics.
    """

    name = "serial"

    def __init__(self, *, policy: Optional[RetryPolicy] = None) -> None:
        super().__init__()
        self.policy = policy or RetryPolicy()

    def _run_one(
        self,
        job: JobSpec,
        completed: Sequence[JobResult],
        span_context=None,
    ) -> JobResult:
        from repro.observe.spans import note_queue_wait

        policy = self.policy
        attempt = 0
        while True:
            attempt += 1
            submitted = time.monotonic()
            try:
                result = execute_job(
                    job, span_context=span_context, attempt=attempt
                )
                result.attempts = attempt
                note_queue_wait(result.spans, result.span_wall, submitted)
                return result
            except Exception as error:
                self._record_failed_attempt(job, attempt, error)
                if attempt < policy.max_attempts:
                    self.stats.retries += 1
                    time.sleep(policy.backoff_for(attempt))
                    continue
                if policy.quarantine:
                    self.stats.quarantined += 1
                    return _quarantine_result(job, attempt, error)
                raise JobFailedError(job, attempt, error, completed) from error

    def run_jobs(
        self,
        jobs: Sequence[JobSpec],
        *,
        progress: Optional[ProgressCallback] = None,
        span_context=None,
    ) -> List[JobResult]:
        results: List[JobResult] = []
        for job in jobs:
            result = self._run_one(job, results, span_context)
            results.append(result)
            if progress is not None:
                progress(len(results), result)
        return results


class ParallelExecutor(Executor):
    """Supervised sharding across a ``concurrent.futures`` process pool.

    The pool is created lazily on first use and reused across batches
    for the lifetime of the session, so repeated engine calls do not pay
    the fork cost again.  Worker results carry their telemetry counter
    increments home in :class:`JobResult.counters`; the session merges
    them into its registry.

    Supervision (per :class:`RetryPolicy`):

    * every attempt is a tracked future with an optional wall-clock
      deadline; a timed-out attempt is abandoned (its late result, and
      its late counters, are discarded) and the job retried;
    * a failed attempt retries after a deterministic backoff, up to
      ``max_attempts``, then is quarantined (default) or raises
      :class:`~repro.errors.JobFailedError` carrying the batch's
      completed results;
    * ``BrokenProcessPool`` respawns the pool and requeues every
      in-flight job — completed results are never lost, and a requeue
      consumes one attempt so a chaos-killed job reruns on a clean
      (never re-faulted) attempt number;
    * after ``max_pool_respawns`` pool rebuilds in one batch the
      executor degrades gracefully: the remaining jobs finish inline in
      the calling process (without chaos injection — a kill would take
      the session down) and the batch still completes.

    An optional :class:`ChaosPolicy` is shipped to workers with every
    attempt; see :mod:`repro.engine.resilience`.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        policy: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosPolicy] = None,
    ) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self.workers = workers or max(1, os.cpu_count() or 1)
        self.policy = policy or RetryPolicy()
        self.chaos = chaos
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _respawn_pool(self):
        """Replace a broken pool with a fresh one."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        self.stats.respawns += 1
        return self._ensure_pool()

    def run_jobs(
        self,
        jobs: Sequence[JobSpec],
        *,
        progress: Optional[ProgressCallback] = None,
        span_context=None,
    ) -> List[JobResult]:
        from concurrent.futures import FIRST_COMPLETED, Future, wait
        from concurrent.futures.process import BrokenProcessPool

        from repro.observe.spans import note_queue_wait

        jobs = list(jobs)
        if not jobs:
            return []
        policy = self.policy
        pool = self._ensure_pool()

        results: List[Optional[JobResult]] = [None] * len(jobs)
        completed = 0
        attempts = [0] * len(jobs)
        queue = deque(range(len(jobs)))
        #: future -> (job index, wall-clock deadline or None, submit time)
        in_flight: Dict[Future, Tuple[int, Optional[float], float]] = {}
        #: timed-out futures whose (stale) results must be discarded.
        abandoned: Set[Future] = set()
        respawns_this_batch = 0
        degraded = False

        def completed_results() -> List[JobResult]:
            return [r for r in results if r is not None]

        def land(index: int, result: JobResult) -> None:
            nonlocal completed
            result.attempts = attempts[index]
            results[index] = result
            completed += 1
            if progress is not None:
                progress(completed, result)

        def fail_attempt(index: int, error: BaseException) -> None:
            """One attempt failed: back off and requeue, or give up."""
            self._record_failed_attempt(jobs[index], attempts[index], error)
            if attempts[index] < policy.max_attempts:
                self.stats.retries += 1
                time.sleep(policy.backoff_for(attempts[index]))
                queue.append(index)
                return
            if policy.quarantine:
                self.stats.quarantined += 1
                land(index, _quarantine_result(jobs[index], attempts[index], error))
                return
            raise JobFailedError(
                jobs[index], attempts[index], error, completed_results()
            ) from error

        def submit(index: int) -> None:
            nonlocal pool
            attempts[index] += 1
            task = SupervisedTask(
                job=jobs[index],
                attempt=attempts[index],
                chaos=self.chaos,
                span_context=span_context,
            )
            try:
                future = pool.submit(execute_supervised, task)
            except BrokenProcessPool:
                # The pool died between batches; rebuilding here is free
                # (no in-flight work to lose yet).
                pool = self._respawn_pool()
                future = pool.submit(execute_supervised, task)
            submitted = time.monotonic()
            deadline = (
                submitted + policy.timeout_s
                if policy.timeout_s is not None
                else None
            )
            in_flight[future] = (index, deadline, submitted)

        def recover_broken_pool(error: BaseException) -> None:
            """Respawn (or degrade) and requeue every in-flight job."""
            nonlocal pool, respawns_this_batch, degraded
            casualties = sorted(index for index, _, _ in in_flight.values())
            in_flight.clear()
            abandoned.clear()
            # A requeue keeps the attempt it consumed: the job that
            # killed the worker must not re-run on the same (possibly
            # chaos-faulted) attempt number, and innocent casualties
            # rerun identically regardless (same seed stream).
            self.stats.requeues += len(casualties)
            for index in casualties:
                if attempts[index] >= policy.max_attempts:
                    # The crash consumed the last attempt.
                    if policy.quarantine:
                        self.stats.quarantined += 1
                        land(
                            index,
                            _quarantine_result(jobs[index], attempts[index], error),
                        )
                    else:
                        raise JobFailedError(
                            jobs[index], attempts[index], error, completed_results()
                        ) from error
                else:
                    queue.appendleft(index)
            respawns_this_batch += 1
            if respawns_this_batch > policy.max_pool_respawns:
                degraded = True
            else:
                pool = self._respawn_pool()

        while completed < len(results) and not degraded:
            # Keep at most `workers` attempts in flight — counting
            # abandoned (timed-out but unpreemptable) attempts that
            # still occupy a worker — so a submitted attempt starts
            # (nearly) immediately and its deadline measures execution,
            # not queueing.
            capacity = self.workers - len(abandoned)
            if queue and capacity <= 0:
                # Every worker is wedged on a timed-out attempt; the
                # only way forward is a fresh pool (the old processes
                # are left to finish and die on their own).
                recover_broken_pool(
                    TimeoutError("every pool worker is stuck on a timed-out job")
                )
                continue
            try:
                while queue and len(in_flight) < capacity:
                    submit(queue.popleft())
            except BrokenProcessPool as error:
                recover_broken_pool(error)
                continue

            if not in_flight:
                break
            now = time.monotonic()
            deadlines = [d for _, d, _ in in_flight.values() if d is not None]
            wait_s = (
                max(0.0, min(deadlines) - now) + 1e-3 if deadlines else None
            )
            done, _ = wait(
                set(in_flight) | abandoned,
                timeout=wait_s,
                return_when=FIRST_COMPLETED,
            )

            for future in done:
                if future in abandoned:
                    # A late arrival from a timed-out attempt: discard
                    # the result *and* its counters so nothing is
                    # double-merged.
                    abandoned.discard(future)
                    continue
                if future not in in_flight:
                    continue
                index, _deadline, submitted = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool as error:
                    # counted as casualty
                    in_flight[future] = (index, _deadline, submitted)
                    recover_broken_pool(error)
                    break
                except Exception as error:
                    fail_attempt(index, error)
                else:
                    note_queue_wait(result.spans, result.span_wall, submitted)
                    land(index, result)

            # Expire attempts past their deadline (they cannot be
            # preempted: the future is abandoned, the job retried).
            now = time.monotonic()
            for future, (index, deadline, _submitted) in list(in_flight.items()):
                if deadline is None or now < deadline or future.done():
                    continue
                del in_flight[future]
                future.cancel()
                if not future.cancelled():
                    abandoned.add(future)
                self.stats.timeouts += 1
                fail_attempt(
                    index,
                    TimeoutError(
                        f"job attempt exceeded {policy.timeout_s:g}s timeout"
                    ),
                )

        if degraded:
            # The pool could not be kept alive; finish inline so the
            # batch still completes.  Chaos injection stays off in this
            # mode (an inline kill would take the session down), which
            # cannot change payloads — only chaos bookkeeping.
            inline = SerialExecutor(policy=policy)
            pending = sorted(set(queue) | {i for i, _, _ in in_flight.values()})
            queue.clear()
            in_flight.clear()
            for index in pending:
                self.stats.degraded += 1
                result = inline._run_one(
                    jobs[index], completed_results(), span_context
                )
                attempts[index] += result.attempts
                land(index, result)
            self.stats.retries += inline.stats.retries
            self.stats.quarantined += inline.stats.quarantined
            self.failed_attempts.extend(inline.drain_failed_attempts())

        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(
    kind: str,
    *,
    workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    url: Optional[str] = None,
) -> Executor:
    """Build an executor by kind name (``serial``/``process``/``remote``)."""
    kind = (kind or "serial").lower()
    if kind == "serial":
        return SerialExecutor(policy=policy)
    if kind == "process":
        return ParallelExecutor(workers, policy=policy, chaos=chaos)
    if kind == "remote":
        if not url:
            raise ConfigurationError(
                "the remote executor needs a coordinator URL "
                f"(--remote / {COORDINATOR_ENV})"
            )
        # Imported here: repro.serve depends on this module.
        from repro.serve.client import RemoteExecutor

        return RemoteExecutor(url, policy=policy, chaos=chaos)
    raise ConfigurationError(
        f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
    )


def executor_from_env(*, workers: Optional[int] = None) -> Executor:
    """The executor selected by ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``,
    supervised per ``REPRO_JOB_RETRIES`` / ``REPRO_JOB_TIMEOUT``."""
    kind = os.environ.get(EXECUTOR_ENV, "serial")
    if workers is None:
        raw = os.environ.get(WORKERS_ENV)
        if raw is not None:
            try:
                workers = int(raw)
            except ValueError as error:
                raise ConfigurationError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from error
    return make_executor(
        kind,
        workers=workers,
        policy=RetryPolicy.from_env(),
        url=os.environ.get(COORDINATOR_ENV),
    )
