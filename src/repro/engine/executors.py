"""Pluggable job executors: in-process serial and supervised process-pool.

Executors run batches of :class:`~repro.engine.jobs.JobSpec` and return
:class:`~repro.engine.jobs.JobResult` lists *in input order*.  Because
every job derives its randomness from a seed stream keyed by its own
identity, the executors are interchangeable: sharding a sweep across
worker processes reproduces the serial output byte for byte, only
faster.  Selection is config-driven:

* ``REPRO_EXECUTOR`` — ``serial`` (default), ``process`` or ``remote``;
* ``REPRO_WORKERS`` — worker count for the process pool;
* ``REPRO_COORDINATOR`` — the coordinator URL of the remote executor;
* ``REPRO_JOB_RETRIES`` / ``REPRO_JOB_TIMEOUT`` / ``REPRO_RETRY_BACKOFF``
  — the supervision policy (see :class:`~repro.engine.resilience.RetryPolicy`);
* the CLI's ``--executor`` / ``--workers`` flags override the first two.

Every executor runs a batch on one attempt ledger,
:class:`~repro.engine.leases.LeaseTable` — the table the campaign
coordinator keeps for its fleet.  :class:`SerialExecutor` drains it one
capacity-1 lease at a time.  :class:`ParallelExecutor` holds a one-job
lease per pool submission, with the policy's timeout as its deadline:
a worker exception is an error result, a timeout is the lease's
expiry, and ``BrokenProcessPool`` expires every open lease, exactly as
a SIGKILLed fleet worker's lease expires.  The ledger decides retry,
requeue or quarantine; none of it can perturb results, because a
retried job replays its exact seed stream.  Every result lands through
:meth:`SupervisedBatch.land`, which stamps its ledger record on it.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.engine.jobs import JobResult, JobSpec, execute_job
from repro.engine.leases import JOB_PENDING, JOB_QUARANTINED, LEASE_EXPIRED, LeaseTable
from repro.engine.resilience import (
    ChaosPolicy,
    Quarantined,
    RetryPolicy,
    SupervisedTask,
    SupervisionStats,
    execute_supervised,
)
from repro.errors import ConfigurationError
from repro.observe.spans import note_queue_wait

#: Environment variables steering executor selection.
EXECUTOR_ENV = "REPRO_EXECUTOR"
WORKERS_ENV = "REPRO_WORKERS"

#: Recognised executor kinds.
EXECUTOR_KINDS = ("serial", "process", "remote")

#: Coordinator URL consulted when ``REPRO_EXECUTOR=remote``.
COORDINATOR_ENV = "REPRO_COORDINATOR"


#: Per-job completion callback: ``progress(done_count, result)``.  Used
#: by the engine session to cache completed results as they land.
ProgressCallback = Callable[[int, JobResult], None]


class Executor(ABC):
    """Runs job batches; concrete classes choose where the work lands."""

    #: Kind tag used by config, CLI output and bench artifacts.
    name: str = "abstract"

    def __init__(self, *, policy: Optional[RetryPolicy] = None) -> None:
        #: The attempt budget, timeout and backoff every job runs under.
        self.policy = policy or RetryPolicy()
        #: Cumulative supervision bookkeeping; the session snapshots
        #: deltas into ``engine.retries`` / ``engine.requeues`` /
        #: ``engine.quarantined`` counters after every batch.
        self.stats = SupervisionStats()

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


def quarantine_result(
    job: JobSpec,
    attempts: int,
    failures: Sequence[Dict[str, Any]],
    error: Optional[BaseException] = None,
) -> JobResult:
    """The stand-in result for a poison job, from its failure history.

    ``error`` is the terminal exception when the supervisor saw it; it
    also gets a parent-side flight dump, written below
    ``REPRO_FLIGHT_DIR`` when that is set.  The record names the dump by
    file name either way, so it does not depend on the dump directory.
    """
    from repro.observe.flight import dump_quarantine, job_dump_name

    last = failures[-1] if failures else {}
    dump = None
    if error is not None:
        dump_quarantine(job, error, attempts)
        dump = job_dump_name(job, "quarantine")
    payload = Quarantined(
        fingerprint=job.fingerprint(),
        kind=job.kind,
        attempts=attempts,
        error_type=str(last.get("error_type", "Error")),
        error_message=str(last.get("error_message", "")),
        flight_dump=dump,
    )
    return JobResult(
        fingerprint=payload.fingerprint,
        payload=payload,
        counters={},
        attempts=attempts,
    )


class SupervisedBatch:
    """One ``run_jobs`` call on an attempt ledger.

    The ledger decides retry, requeue and quarantine; the batch applies
    the backoff, lands quarantine stand-ins and lands every result
    through :meth:`land`.  Keys are batch positions, or fingerprints for
    the remote executor.
    """

    def __init__(
        self,
        executor: Executor,
        progress: Optional[ProgressCallback],
        jobs: Iterable[Tuple[Hashable, JobSpec]] = (),
    ) -> None:
        self.executor = executor
        self.progress = progress
        self.table = LeaseTable()
        self.results: Dict[Hashable, JobResult] = {}
        self.submit(jobs)

    def submit(self, jobs: Iterable[Tuple[Hashable, JobSpec]]) -> None:
        for key, job in jobs:
            self.table.submit(key, job, self.executor.policy.max_attempts)

    def land(
        self, key: Hashable, result: JobResult, submitted: Optional[float] = None
    ) -> None:
        """The one step every result takes: stamp its ledger record
        (a remote result brings the coordinator's), note the queue wait
        since ``submitted``, book it and report progress."""
        record = self.table.jobs.get(key)
        if record is not None:
            result.attempts = record.attempts
            result.failures = list(record.failures)
        if submitted is not None:
            note_queue_wait(result.spans, result.span_wall, submitted)
        self.executor.stats.book(result)
        self.results[key] = result
        if self.progress is not None:
            self.progress(len(self.results), result)

    def settle(self, key: Hashable, state: str, error: BaseException) -> None:
        """Land the quarantine stand-in when ``key``'s failed attempt was its last."""
        if state == JOB_QUARANTINED:
            record = self.table.jobs[key]
            self.land(
                key,
                quarantine_result(
                    record.job, record.attempts, record.failures, error
                ),
            )

    def fail(self, key: Hashable, error: BaseException) -> None:
        """An attempt raised: retry after the backoff, or quarantine."""
        state = self.table.fail(key, type(error).__name__, str(error))
        self.settle(key, state, error)
        if state == JOB_PENDING:
            time.sleep(
                self.executor.policy.backoff_for(self.table.jobs[key].attempts)
            )

    def run_inline(self, span_context) -> None:
        """Drain the ledger in this process, one capacity-1 lease at a time.

        Chaos injection never applies here: an inline kill would take
        the calling process down.
        """
        while True:
            lease = self.table.lease("inline", 1, None)
            if lease is None:
                return
            key = lease.keys[0]
            record = self.table.jobs[key]
            submitted = time.monotonic()
            try:
                result = execute_job(
                    record.job, span_context=span_context, attempt=record.attempts
                )
            except Exception as error:
                self.fail(key, error)
            else:
                self.table.complete(key)
                self.land(key, result, submitted)


class SerialExecutor(Executor):
    """Runs every job inline in the calling process.

    It drives the attempt ledger with capacity 1, so retries and
    quarantine behave as on the pool; worker kills and timeouts need a
    process boundary, so neither happens here.
    """

    name = "serial"

    def run_jobs(
        self,
        jobs: Sequence[JobSpec],
        *,
        progress: Optional[ProgressCallback] = None,
        span_context=None,
    ) -> List[JobResult]:
        jobs = list(jobs)
        batch = SupervisedBatch(self, progress, enumerate(jobs))
        batch.run_inline(span_context)
        return [batch.results[index] for index in range(len(jobs))]


class ParallelExecutor(Executor):
    """Supervised sharding across a ``concurrent.futures`` process pool.

    The pool is created lazily on first use and reused across batches
    for the lifetime of the session, so repeated engine calls do not pay
    the fork cost again.  Worker results carry their telemetry counter
    increments home in :class:`JobResult.counters`; the session merges
    them into its registry.

    Each pool submission is a one-job lease on the batch's ledger (see
    the module docstring).  The pool-specific parts stay here: an
    expired attempt cannot be preempted, so its future is abandoned — it
    keeps occupying a worker, and its late result and counters are
    discarded; a broken pool is respawned; and after
    ``max_pool_respawns`` rebuilds in one batch the remaining jobs
    finish inline on the same ledger, without chaos injection (a kill
    would take the session down).

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
        super().__init__(policy=policy)
        if workers is not None and workers < 1:
            raise ConfigurationError("workers must be at least 1")
        self.workers = workers or max(1, os.cpu_count() or 1)
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

        jobs = list(jobs)
        if not jobs:
            return []
        policy = self.policy
        batch = SupervisedBatch(self, progress, enumerate(jobs))
        table = batch.table
        pool = self._ensure_pool()
        #: future -> (job index, submit time) of every open lease.
        in_flight: Dict[Future, Tuple[int, float]] = {}
        #: futures of expired leases; their late results are discarded.
        abandoned: Set[Future] = set()
        respawns_this_batch = 0

        while len(batch.results) < len(jobs):
            try:
                # Keep at most `workers` attempts in flight — counting
                # abandoned attempts that still occupy a worker — so a
                # submitted attempt starts (nearly) immediately and its
                # deadline measures execution, not queueing.
                capacity = self.workers - len(abandoned)
                if table.queue and capacity <= 0:
                    # The only way forward is a fresh pool (the wedged
                    # processes are left to finish and die on their own).
                    raise BrokenProcessPool(
                        "every pool worker is stuck on a timed-out job"
                    )
                while len(in_flight) < capacity:
                    lease = table.lease("pool worker", 1, policy.timeout_s)
                    if lease is None:
                        break
                    index = lease.keys[0]
                    task = SupervisedTask(
                        job=jobs[index],
                        attempt=table.jobs[index].attempts,
                        chaos=self.chaos,
                        span_context=span_context,
                    )
                    try:
                        future = pool.submit(execute_supervised, task)
                    except BrokenProcessPool:
                        # The pool died between batches; rebuilding here
                        # is free (no in-flight work to lose yet).
                        pool = self._respawn_pool()
                        future = pool.submit(execute_supervised, task)
                    in_flight[future] = (index, time.monotonic())

                deadlines = [
                    lease.deadline
                    for lease in table.leases.values()
                    if lease.deadline is not None
                ]
                done, _ = wait(
                    set(in_flight) | abandoned,
                    timeout=(
                        max(0.0, min(deadlines) - time.monotonic()) + 1e-3
                        if deadlines
                        else None
                    ),
                    return_when=FIRST_COMPLETED,
                )
                broken: Optional[BaseException] = None
                for future in done:
                    if future in abandoned:
                        # A late arrival from a timed-out attempt: drop
                        # the result *and* its counters.
                        abandoned.discard(future)
                        continue
                    index, submitted = in_flight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool as error:
                        broken = error  # its lease stays open: a casualty
                    except Exception as error:
                        batch.fail(index, error)
                    else:
                        table.complete(index)
                        batch.land(index, result, submitted)
                if broken is not None:
                    raise broken

                # An attempt past its deadline cannot be preempted: its
                # future is abandoned and the job's lease expired.
                for _lease, ((index, state),) in table.reap("TimeoutError"):
                    future = next(f for f, (i, _) in in_flight.items() if i == index)
                    del in_flight[future]
                    if not future.cancel():
                        abandoned.add(future)
                    self.stats.timeouts += 1
                    batch.settle(
                        index,
                        state,
                        TimeoutError(
                            f"job attempt exceeded {policy.timeout_s:g}s timeout"
                        ),
                    )
            except BrokenProcessPool as error:
                for lease_id in list(table.leases):
                    for index, state in table.expire(
                        lease_id, LEASE_EXPIRED, f"process pool broke: {error}"
                    ):
                        batch.settle(index, state, error)
                in_flight.clear()
                abandoned.clear()
                respawns_this_batch += 1
                if respawns_this_batch > policy.max_pool_respawns:
                    self.stats.degraded += len(jobs) - len(batch.results)
                    batch.run_inline(span_context)
                    break
                pool = self._respawn_pool()

        return [batch.results[index] for index in range(len(jobs))]

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
