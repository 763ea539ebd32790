"""The attempt ledger: one lease table behind every executor.

The inline runner, the process pool and the campaign coordinator all
move jobs through this table (``pending → leased → done | quarantined``;
the state diagram is in ``docs/architecture.md``).  Leasing a job
consumes an attempt.  An error result or an expired lease requeues the
job at the front while its budget lasts, and quarantines it once
``attempts`` reaches ``max_attempts``.  A lost holder — a SIGKILLed
fleet worker, a broken process pool, an attempt past its timeout — so
costs the job the attempt it held, and a chaos fault drawn for attempt
1 cannot loop.

The table has no clock of its own (``clock`` is injected), no lock, no
transport and no result store: its drivers keep those, and count their
own statistics from the states the transitions return.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

#: Job states, in lifecycle order.
JOB_PENDING = "pending"
JOB_LEASED = "leased"
JOB_DONE = "done"
JOB_QUARANTINED = "quarantined"

#: The states no later result can change (the first result wins).
SETTLED_STATES = (JOB_DONE, JOB_QUARANTINED)

#: Failure type recorded for a job whose lease holder went away.
LEASE_EXPIRED = "LeaseExpired"


@dataclass
class JobRecord:
    """One job's lifecycle in the ledger."""

    key: Hashable
    job: Any
    max_attempts: int
    state: str = JOB_PENDING
    attempts: int = 0
    lease_id: Optional[str] = None
    failures: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class Lease:
    """One holder's claim over ``keys`` until ``deadline`` (``None`` = never)."""

    lease_id: str
    holder: str
    deadline: Optional[float]
    keys: List[Hashable] = field(default_factory=list)


class LeaseTable:
    """Job records, a requeue-at-the-front queue and the open leases."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.jobs: Dict[Hashable, JobRecord] = {}
        self.queue: Deque[Hashable] = deque()
        self.leases: Dict[str, Lease] = {}
        self._serial = 0

    def submit(self, key: Hashable, job: Any, max_attempts: int) -> bool:
        """Queue ``job`` under ``key``; ``False`` when a live record shares it.

        A key whose record is done starts afresh (its stored result was
        lost); a pending, leased or quarantined record is shared.
        """
        record = self.jobs.get(key)
        if record is not None and record.state != JOB_DONE:
            return False
        self.jobs[key] = JobRecord(key=key, job=job, max_attempts=max_attempts)
        self.queue.append(key)
        return True

    def lease(
        self, holder: str, capacity: int, timeout_s: Optional[float]
    ) -> Optional[Lease]:
        """Lease up to ``capacity`` pending jobs to ``holder`` (``None`` if none)."""
        lease: Optional[Lease] = None
        while self.queue and (lease is None or len(lease.keys) < capacity):
            key = self.queue.popleft()
            record = self.jobs.get(key)
            if record is None or record.state != JOB_PENDING:
                continue
            if lease is None:
                self._serial += 1
                lease = Lease(
                    lease_id=f"lease-{self._serial}",
                    holder=holder,
                    deadline=(
                        self.clock() + timeout_s if timeout_s is not None else None
                    ),
                )
                self.leases[lease.lease_id] = lease
            record.state = JOB_LEASED
            record.lease_id = lease.lease_id
            record.attempts += 1  # leasing consumes the attempt
            lease.keys.append(key)
        return lease

    def renew(self, lease_id: str, timeout_s: float) -> bool:
        """Push a live lease's deadline out; ``False`` once it has expired."""
        lease = self.leases.get(lease_id)
        if lease is None:
            return False
        lease.deadline = self.clock() + timeout_s
        return True

    def complete(self, key: Hashable) -> bool:
        """Land ``key``'s result; ``False`` for a duplicate (the first won)."""
        record = self.jobs[key]
        if record.state in SETTLED_STATES:
            return False
        self._release(record)
        record.state = JOB_DONE
        return True

    def fail(
        self,
        key: Hashable,
        error_type: str,
        message: str,
        *,
        attempt: Optional[int] = None,
    ) -> Optional[str]:
        """Settle one failed attempt: the job's new state, ``None`` if settled.

        The job is requeued at the front while its budget lasts and
        quarantined once ``attempts`` reaches ``max_attempts``.
        """
        record = self.jobs[key]
        if record.state in SETTLED_STATES:
            return None
        self._release(record)
        record.failures.append(
            {
                "attempt": record.attempts if attempt is None else attempt,
                "error_type": error_type,
                "error_message": message,
            }
        )
        if record.attempts >= record.max_attempts:
            record.state = JOB_QUARANTINED
        else:
            record.state = JOB_PENDING
            self.queue.appendleft(key)
        return record.state

    def expire(
        self, lease_id: str, error_type: str, message: str
    ) -> List[Tuple[Hashable, str]]:
        """Drop a lease; each job it holds fails with its attempt kept.

        Returns ``(key, new state)`` for every job the lease held.  A
        job leaves its lease's ``keys`` as soon as it settles, so every
        key here is still leased.
        """
        lease = self.leases.pop(lease_id)
        return [
            (key, self.fail(key, error_type, message))
            for key in sorted(lease.keys)
        ]

    def reap(
        self, error_type: str = LEASE_EXPIRED
    ) -> List[Tuple[Lease, List[Tuple[Hashable, str]]]]:
        """Expire every lease past its deadline (see :meth:`expire`)."""
        now = self.clock()
        return [
            (
                lease,
                self.expire(
                    lease.lease_id,
                    error_type,
                    f"{lease.holder} missed its lease deadline "
                    f"(lease {lease.lease_id})",
                ),
            )
            for lease in list(self.leases.values())
            if lease.deadline is not None and lease.deadline < now
        ]

    def _release(self, record: JobRecord) -> None:
        """Take ``record`` off its lease, dropping the lease once empty."""
        lease = self.leases.get(record.lease_id or "")
        record.lease_id = None
        if lease is not None and record.key in lease.keys:
            lease.keys.remove(record.key)
            if not lease.keys:
                del self.leases[lease.lease_id]

