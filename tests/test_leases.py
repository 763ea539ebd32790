"""The attempt ledger (:mod:`repro.engine.leases`) and every driver of it.

One set of supervision scenarios runs against the ledger itself (on an
injected clock), the inline :class:`SerialExecutor`, a two-worker
:class:`ParallelExecutor`, a clocked :class:`Coordinator` driven
through its request handlers, and a :class:`RemoteExecutor` whose
coordinator reports the scenario's history.  Each driver reports the
job's final state, its consumed attempts and the error type of each
failed attempt, and all of them must agree; each executor must also
book the same retries, requeues and quarantines.

Two combinations cannot happen and are not generated: nothing can die
under the inline runner (there is no process boundary), and the inline
runner never has a second result for a job.  On the pool a second
result can only be the late result of an attempt past its deadline.
"""

from __future__ import annotations

import os
import pickle
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.engine import (
    JobResult,
    ParallelExecutor,
    Quarantined,
    RetryPolicy,
    SerialExecutor,
)
from repro.engine.leases import (
    JOB_DONE,
    JOB_LEASED,
    JOB_PENDING,
    JOB_QUARANTINED,
    LEASE_EXPIRED,
    LeaseTable,
)
from repro.serve import RemoteExecutor, protocol
from tests.test_resilience import ScriptedJob
from tests.test_serve import _clocked_coordinator, _submit_message, _tiny_job


class Outcome(NamedTuple):
    state: str
    attempts: int
    failures: List[str]


class Scenario(NamedTuple):
    budget: int
    #: What each attempt does, in order: "error" (the job raises), "die"
    #: (its holder goes away mid-lease) or "ok".
    script: Tuple[str, ...]
    expected: Outcome
    #: What an executor books for it: (retries, requeues, quarantined).
    booked: Tuple[int, int, int]


SCENARIOS = {
    "flaky-retries-to-success": Scenario(
        3, ("error", "error", "ok"),
        Outcome(JOB_DONE, 3, ["RuntimeError", "RuntimeError"]),
        (2, 0, 0),
    ),
    "poison-quarantined-at-budget": Scenario(
        2, ("error", "error"),
        Outcome(JOB_QUARANTINED, 2, ["RuntimeError", "RuntimeError"]),
        (1, 0, 1),
    ),
    "casualty-keeps-its-attempt": Scenario(
        3, ("die", "ok"), Outcome(JOB_DONE, 2, [LEASE_EXPIRED]), (0, 1, 0),
    ),
    "casualty-on-last-attempt-quarantined": Scenario(
        1, ("die",), Outcome(JOB_QUARANTINED, 1, [LEASE_EXPIRED]), (0, 1, 1),
    ),
}


# ---------------------------------------------------------------------------
# drivers


class LedgerDriver:
    """The table itself: a holder leases, then reports or vanishes."""

    def __init__(self, tmp_path) -> None:
        self.now = [0.0]
        self.table = LeaseTable(clock=lambda: self.now[0])

    def run(self, scenario: Scenario) -> Outcome:
        table = self.table
        table.submit("job", None, scenario.budget)
        for event in scenario.script:
            assert table.lease("w", 1, 10.0).keys == ["job"]
            if event == "error":
                table.fail("job", "RuntimeError", "scripted failure")
            elif event == "die":
                self.now[0] += 11.0
                table.reap()
            else:
                assert table.complete("job")
        record = table.jobs["job"]
        return Outcome(
            record.state,
            record.attempts,
            [failure["error_type"] for failure in record.failures],
        )

    def duplicate(self) -> bool:
        """Land two results for one job; whether the second was refused."""
        self.run(Scenario(1, ("ok",), None, None))
        return self.table.complete("job") is False


class CoordinatorDriver:
    """A clocked coordinator; a worker that dies just stops heartbeating."""

    def __init__(self, tmp_path) -> None:
        self.service, self.now = _clocked_coordinator(tmp_path)
        self.job = _tiny_job()

    def _result(self, lease_id: str, attempt: int, status: str) -> dict:
        message = {"lease_id": lease_id, "attempt": attempt, "status": status}
        if status == "ok":
            message["payload"] = protocol.encode_payload(b"payload-bytes")
        else:
            message.update(error_type="RuntimeError", error_message="scripted")
        reply, _ = self.service.handle_result(self.job.fingerprint(), message, {})
        return reply

    def run(self, scenario: Scenario) -> Outcome:
        service = self.service
        service.handle_submit(
            _submit_message(self.job, max_attempts=scenario.budget), {}
        )
        for event in scenario.script:
            granted, _ = service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
            attempt = granted["jobs"][0]["attempt"]
            if event == "die":
                self.now[0] += 11.0
            else:
                self._result(granted["lease_id"], attempt, event)
        collected, _ = service.handle_collect(
            {"fingerprints": [self.job.fingerprint()]}, {}
        )
        entry = collected["done"][self.job.fingerprint()]
        return Outcome(
            JOB_DONE if entry["status"] == "ok" else entry["status"],
            entry["attempts"],
            [failure["error_type"] for failure in entry["failures"]],
        )

    def duplicate(self) -> bool:
        self.run(Scenario(1, ("ok",), None, None))
        return self._result("lease-1", 1, "ok")["duplicate"] is True


class _ExecutorDriver:
    """A scripted job beside a healthy one, through a real executor.

    ``booked`` holds the (retries, requeues, quarantined) the executor
    counted for the last scenario.
    """

    def __init__(self, tmp_path) -> None:
        self.scratch = str(tmp_path / "scratch")
        self.booked: Tuple[int, int, int] = (0, 0, 0)

    def executor(self, policy: RetryPolicy, scenario: Scenario, jobs):
        raise NotImplementedError

    def _outcome(self, executor, job, result) -> Outcome:
        stats = executor.stats
        self.booked = (stats.retries, stats.requeues, stats.quarantined)
        failures = [failure["error_type"] for failure in result.failures]
        if isinstance(result.payload, Quarantined):
            return Outcome(JOB_QUARANTINED, result.payload.attempts, failures)
        assert result.payload == {"name": job.name, "value": 0}
        return Outcome(JOB_DONE, result.attempts, failures)

    def run(self, scenario: Scenario) -> Outcome:
        script = scenario.script

        def times(event: str) -> int:
            # A script that never succeeds misbehaves on every attempt.
            if "ok" not in script and event in script:
                return 99
            return script.count(event)

        # A broken pool charges every job in flight an attempt, so the
        # dying job waits until the bystander has landed: the scenario
        # then charges only the job it scripts.
        os.makedirs(self.scratch, exist_ok=True)
        landed = os.path.join(self.scratch, "other.landed")
        job = ScriptedJob(
            name="job",
            scratch=self.scratch,
            exit_times=times("die"),
            fail_times=times("error"),
            exit_after=landed,
        )
        other = ScriptedJob(name="other", scratch=self.scratch, value=10)

        def progress(_done, result) -> None:
            if result.fingerprint == other.fingerprint():
                open(landed, "w").close()

        with self.executor(
            RetryPolicy(max_attempts=scenario.budget, backoff_s=0.0),
            scenario,
            (job, other),
        ) as executor:
            results = executor.run_jobs([job, other], progress=progress)
        assert results[1].payload == {"name": "other", "value": 10}
        return self._outcome(executor, job, results[0])


class SerialDriver(_ExecutorDriver):
    def executor(self, policy: RetryPolicy, scenario: Scenario, jobs):
        return SerialExecutor(policy=policy)


class PoolDriver(_ExecutorDriver):
    def executor(self, policy: RetryPolicy, scenario: Scenario, jobs):
        return ParallelExecutor(2, policy=policy)

    def duplicate(self) -> bool:
        """An attempt stalls past its deadline and is retried; the retry
        lands first, and the stalled attempt's result never does."""
        job = ScriptedJob(name="job", scratch=self.scratch, sleep_first_s=1.0)
        with ParallelExecutor(
            2, policy=RetryPolicy(max_attempts=2, timeout_s=0.25, backoff_s=0.0)
        ) as executor:
            (result,) = executor.run_jobs([job])
        return self._outcome(executor, job, result) == Outcome(
            JOB_DONE, 2, ["TimeoutError"]
        )


class _ScriptedFleet:
    """A coordinator stub that reports each job's scripted history.

    ``scripts`` maps a fingerprint to its attempts (see
    :class:`Scenario`); a dying attempt is a lease expiry, a script
    without "ok" ends quarantined.
    """

    def __init__(self, scripts: Dict[str, Tuple[str, ...]], payloads) -> None:
        self.scripts = scripts
        self.payloads = payloads

    def _entry(self, fingerprint: str) -> dict:
        script = self.scripts[fingerprint]
        entry = {
            "attempts": len(script),
            "failures": [
                {
                    "attempt": attempt,
                    "error_type": LEASE_EXPIRED if event == "die" else "RuntimeError",
                    "error_message": "scripted",
                }
                for attempt, event in enumerate(script, 1)
                if event != "ok"
            ],
        }
        if "ok" not in script:
            return dict(entry, status="quarantined")
        result = JobResult(
            fingerprint=fingerprint, payload=self.payloads[fingerprint], counters={}
        )
        return dict(
            entry,
            status="ok",
            payload=protocol.encode_payload(pickle.dumps(result)),
        )

    def request(self, method, path, message=None, *, headers=None):
        if path == "/v1/jobs":
            return {"cached": []}, {}
        return {"done": {fp: self._entry(fp) for fp in message["fingerprints"]}}, {}


class RemoteDriver(_ExecutorDriver):
    def executor(self, policy: RetryPolicy, scenario: Scenario, jobs):
        job, other = jobs
        return RemoteExecutor(
            "http://coordinator.invalid",
            policy=policy,
            poll_interval_s=0.0,
            transport=_ScriptedFleet(
                {job.fingerprint(): scenario.script, other.fingerprint(): ("ok",)},
                {
                    job.fingerprint(): {"name": job.name, "value": 0},
                    other.fingerprint(): {"name": other.name, "value": 10},
                },
            ),
        )


DRIVERS = {
    "ledger": LedgerDriver,
    "serial": SerialDriver,
    "pool": PoolDriver,
    "coordinator": CoordinatorDriver,
    "remote": RemoteDriver,
}

#: Nothing can die under the inline runner.
CASES = [
    (driver, scenario)
    for driver in DRIVERS
    for scenario in SCENARIOS
    if not (driver == "serial" and "casualty" in scenario)
]


class TestSupervisionScenarios:
    @pytest.mark.parametrize(
        "driver, scenario", CASES, ids=[f"{d}-{s}" for d, s in CASES]
    )
    def test_every_driver_agrees(self, tmp_path, driver, scenario):
        spec = SCENARIOS[scenario]
        runner = DRIVERS[driver](tmp_path)
        assert runner.run(spec) == spec.expected
        if isinstance(runner, _ExecutorDriver):
            assert runner.booked == spec.booked

    @pytest.mark.parametrize("driver", ["ledger", "pool", "coordinator"])
    def test_duplicate_result_loses_to_the_first(self, tmp_path, driver):
        assert DRIVERS[driver](tmp_path).duplicate()


# ---------------------------------------------------------------------------
# the table's own transitions


class TestLeaseTable:
    def _table(self):
        now = [0.0]
        return LeaseTable(clock=lambda: now[0]), now

    def test_lease_consumes_attempts_in_queue_order(self):
        table, _ = self._table()
        for key in ("a", "b", "c"):
            assert table.submit(key, key, 3)
        lease = table.lease("w", 2, None)
        assert lease.keys == ["a", "b"]
        assert lease.deadline is None
        assert [table.jobs[k].attempts for k in "abc"] == [1, 1, 0]
        assert table.jobs["a"].state == JOB_LEASED
        assert table.lease("w", 2, None).keys == ["c"]
        assert table.lease("w", 2, None) is None

    def test_failed_attempt_requeues_at_the_front(self):
        table, _ = self._table()
        table.submit("a", None, 3)
        table.submit("b", None, 3)
        table.lease("w", 1, None)
        assert table.fail("a", "RuntimeError", "boom") == JOB_PENDING
        assert list(table.queue) == ["a", "b"]
        assert table.leases == {}

    def test_expiry_requeues_sorted_keys_and_keeps_attempts(self):
        table, now = self._table()
        for key in ("b", "a"):
            table.submit(key, None, 3)
        lease = table.lease("worker w1", 2, 5.0)
        now[0] = 6.0
        ((reaped, settled),) = table.reap()
        assert reaped is lease
        assert settled == [("a", JOB_PENDING), ("b", JOB_PENDING)]
        assert list(table.queue) == ["b", "a"]
        assert table.jobs["a"].failures == [
            {
                "attempt": 1,
                "error_type": LEASE_EXPIRED,
                "error_message": (
                    f"worker w1 missed its lease deadline (lease {lease.lease_id})"
                ),
            }
        ]
        assert table.lease("w2", 1, None).keys == ["b"]
        assert table.jobs["b"].attempts == 2

    def test_renewed_lease_outlives_its_first_deadline(self):
        table, now = self._table()
        table.submit("a", None, 3)
        lease = table.lease("w", 1, 5.0)
        now[0] = 4.0
        assert table.renew(lease.lease_id, 5.0)
        now[0] = 8.0
        assert table.reap() == []
        now[0] = 10.0
        assert [l.lease_id for l, _ in table.reap()] == [lease.lease_id]
        assert not table.renew(lease.lease_id, 5.0)

    def test_settled_jobs_refuse_later_results(self):
        table, _ = self._table()
        table.submit("a", None, 1)
        table.lease("w", 1, None)
        assert table.fail("a", "RuntimeError", "boom") == JOB_QUARANTINED
        assert table.fail("a", "RuntimeError", "again") is None
        assert table.complete("a") is False
        assert len(table.jobs["a"].failures) == 1

    def test_resubmission_shares_live_records_and_restarts_done_ones(self):
        table, _ = self._table()
        assert table.submit("a", "first", 3)
        assert not table.submit("a", "second", 3)
        table.lease("w", 1, None)
        table.complete("a")
        assert table.submit("a", "third", 3)
        assert table.jobs["a"].job == "third"
        assert table.jobs["a"].attempts == 0

    def test_complete_releases_only_its_own_key(self):
        table, _ = self._table()
        table.submit("a", None, 3)
        table.submit("b", None, 3)
        lease = table.lease("w", 2, None)
        table.complete("a")
        assert table.leases[lease.lease_id].keys == ["b"]
        table.complete("b")
        assert table.leases == {}
