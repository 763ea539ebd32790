"""The resilience layer: retries, timeouts, crash recovery, chaos, resume.

The supervised executor's contract is that *nothing it does to keep a
campaign alive may change what the campaign computes*: a retried job
replays its exact named seed stream, a respawned pool re-runs only the
jobs that were in flight, a campaign rerun over its disk cache serves
byte-identical payloads, and a campaign run under deterministic chaos
injection converges to the failure-free result.  These tests pin each of those
properties, plus the failure semantics themselves (quarantine, graceful
degradation).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Dict, Tuple

import pytest

from repro.cpu import PAPER_MODEL_TUPLE
from repro.engine import (
    ChaosPolicy,
    EngineSession,
    FuzzJob,
    JobSpec,
    ParallelExecutor,
    Quarantined,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    SupervisedTask,
    execute_supervised,
)
from repro.engine.resilience import (
    JOB_RETRIES_ENV,
    JOB_TIMEOUT_ENV,
    RETRY_BACKOFF_ENV,
)
from repro.errors import ChaosError, ConfigurationError, ReproError
from repro.observe import load_flight_dump
from repro.observe.flight import job_dump_name


@dataclass(frozen=True)
class ScriptedJob(JobSpec):
    """A job whose failures are scripted per attempt via a scratch dir.

    The job itself never learns its attempt number from the supervisor
    (real jobs don't); it counts its own executions with marker files
    under ``scratch``, which works across process boundaries.
    """

    kind: ClassVar[str] = "scripted"

    name: str
    scratch: str
    seed: int = 0
    fail_times: int = 0
    exit_times: int = 0
    sleep_first_s: float = 0.0
    value: int = 0
    #: A path a dying attempt waits for before it exits (the test writes
    #: it once a bystander has landed, so the bystander is never in
    #: flight when the pool breaks).
    exit_after: str = ""

    def seed_path(self) -> Tuple[str, ...]:
        return ("scripted", self.name)

    def _record_execution(self) -> int:
        root = Path(self.scratch)
        root.mkdir(parents=True, exist_ok=True)
        count = len(list(root.glob(f"{self.name}.run.*"))) + 1
        marker = root / f"{self.name}.run.{os.getpid()}.{os.urandom(4).hex()}"
        marker.touch()
        return count

    def run(self, telemetry) -> Dict[str, Any]:
        execution = self._record_execution()
        if execution == 1 and self.sleep_first_s:
            time.sleep(self.sleep_first_s)
        if execution <= self.exit_times:
            deadline = time.monotonic() + 30.0
            while self.exit_after and not os.path.exists(self.exit_after):
                if time.monotonic() > deadline:
                    break  # let the scenario fail rather than hang
                time.sleep(0.005)
            os._exit(1)
        if execution <= self.fail_times:
            raise RuntimeError(f"scripted failure #{execution}")
        telemetry.registry.counter("scripted.runs").inc()
        return {"name": self.name, "value": self.value}


def _canonical(payloads) -> str:
    """Canonical JSON for payload-list comparison (fuzz summaries are
    JSON-safe; whole-list pickles differ by memoized-string references)."""
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def scripted_batch(scratch, count=4, **first_job_kwargs):
    """``count`` healthy jobs, the first optionally scripted to misbehave."""
    jobs = [
        ScriptedJob(name=f"job{i}", scratch=str(scratch), value=i * 10)
        for i in range(count)
    ]
    if first_job_kwargs:
        jobs[0] = ScriptedJob(
            name="job0", scratch=str(scratch), value=0, **first_job_kwargs
        )
    return jobs


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_backoff_schedule(self):
        policy = RetryPolicy(backoff_s=0.05)
        assert [policy.backoff_for(n) for n in (1, 2, 3)] == [0.05, 0.1, 0.2]

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(JOB_RETRIES_ENV, "5")
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(RETRY_BACKOFF_ENV, "0.01")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.timeout_s == 2.5
        assert policy.backoff_s == 0.01

    def test_from_env_defaults(self, monkeypatch):
        for name in (JOB_RETRIES_ENV, JOB_TIMEOUT_ENV, RETRY_BACKOFF_ENV):
            monkeypatch.delenv(name, raising=False)
        assert RetryPolicy.from_env() == RetryPolicy()

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(JOB_RETRIES_ENV, "many")
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_env()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-0.01)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_pool_respawns=-1)


class TestRetiredKnobs:
    """Quarantine is the one terminal outcome on every path, and the
    backoff grows by a fixed factor: neither is a setting any more."""

    @pytest.mark.parametrize(
        "knob", [{"quarantine": False}, {"backoff_factor": 3.0}],
        ids=["quarantine", "backoff_factor"],
    )
    def test_retired_knob_raises(self, knob):
        with pytest.raises(TypeError):
            RetryPolicy(**knob)


class TestChaosPolicy:
    def test_decisions_are_deterministic(self):
        a = ChaosPolicy(seed=7, kill_rate=0.3, error_rate=0.3, stall_rate=0.3)
        b = ChaosPolicy(seed=7, kill_rate=0.3, error_rate=0.3, stall_rate=0.3)
        for fp in ("aa", "bb", "cc", "dd"):
            assert a.action_for(fp, 1) == b.action_for(fp, 1)
            assert a.should_tear_cache(fp) == b.should_tear_cache(fp)

    def test_all_actions_reachable(self):
        policy = ChaosPolicy(
            seed=3, kill_rate=0.3, error_rate=0.3, stall_rate=0.3
        )
        actions = {
            policy.action_for(f"fp{i}", 1) for i in range(200)
        }
        assert actions == {"kill", "error", "stall", None}

    def test_retried_attempts_always_run_clean(self):
        policy = ChaosPolicy(seed=3, kill_rate=1.0)
        assert policy.action_for("anything", 1) == "kill"
        assert policy.action_for("anything", 2) is None

    def test_error_injection_raises_chaos_error(self):
        policy = ChaosPolicy(seed=0, error_rate=1.0)
        with pytest.raises(ChaosError):
            policy.apply("fp", 1)
        policy.apply("fp", 2)  # clean retry: no raise

    def test_survives_pickling(self):
        policy = ChaosPolicy(seed=9, kill_rate=0.1, torn_write_rate=0.2)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy
        assert clone.action_for("fp", 1) == policy.action_for("fp", 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(kill_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(kill_rate=0.5, error_rate=0.4, stall_rate=0.2)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(stall_s=-1.0)


# ---------------------------------------------------------------------------
# Supervised execution: retries, quarantine, degradation
# ---------------------------------------------------------------------------


class TestSerialSupervision:
    def test_flaky_job_retries_to_success(self, tmp_path):
        executor = SerialExecutor(
            policy=RetryPolicy(max_attempts=3, backoff_s=0.0)
        )
        jobs = scripted_batch(tmp_path, fail_times=2)
        results = executor.run_jobs(jobs)
        assert results[0].payload == {"name": "job0", "value": 0}
        assert results[0].attempts == 3
        assert executor.stats.retries == 2

    def test_poison_job_quarantined_campaign_continues(self, tmp_path):
        executor = SerialExecutor(
            policy=RetryPolicy(max_attempts=2, backoff_s=0.0)
        )
        results = executor.run_jobs(scripted_batch(tmp_path, fail_times=99))
        poison = results[0].payload
        assert isinstance(poison, Quarantined)
        assert poison.attempts == 2
        assert poison.error_type == "RuntimeError"
        assert [r.payload["value"] for r in results[1:]] == [10, 20, 30]
        assert executor.stats.quarantined == 1

    def test_quarantine_writes_flight_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
        executor = SerialExecutor(
            policy=RetryPolicy(max_attempts=1, backoff_s=0.0)
        )
        (poison_job,) = scripted_batch(tmp_path / "scratch", count=1, fail_times=99)
        results = executor.run_jobs([poison_job])
        poison = results[0].payload
        assert poison.flight_dump == job_dump_name(poison_job, "quarantine")
        dump = load_flight_dump(tmp_path / "flight" / poison.flight_dump)
        assert dump.reason == "quarantined-job"
        assert dump.header["context"]["attempts"] == 1
        assert dump.header["context"]["job"]["kind"] == "scripted"

    def test_quarantine_record_ignores_the_dump_directory(self, tmp_path, monkeypatch):
        """The record names its dump by file name, so a quarantined job's
        outcome is the same whether and wherever dumps are written."""
        records = []
        for flight_dir in (None, "qa", "qb"):
            if flight_dir is None:
                monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
            else:
                monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / flight_dir))
            executor = SerialExecutor(
                policy=RetryPolicy(max_attempts=1, backoff_s=0.0)
            )
            # A fresh attempt count, under the same path (it is in the spec).
            shutil.rmtree(tmp_path / "scratch", ignore_errors=True)
            jobs = scripted_batch(tmp_path / "scratch", count=1, fail_times=99)
            records.append(executor.run_jobs(jobs)[0].payload.as_dict())
        assert records[0] == records[1] == records[2]
        assert records[0]["flight_dump"].startswith("quarantine-")
        assert (tmp_path / "qb" / records[0]["flight_dump"]).is_file()


class _PoisonFleetTransport:
    """A coordinator stub whose fleet fails every attempt of every job.

    It answers the two requests :class:`RemoteExecutor` makes with the
    history a real coordinator would report: each job quarantined after
    the submitted attempt budget, one ``RuntimeError`` per attempt.
    """

    def request(self, method, path, message=None, *, headers=None):
        if path == "/v1/jobs":
            self.max_attempts = message["max_attempts"]
            return {"cached": []}, {}
        failures = [
            {
                "attempt": attempt,
                "error_type": "RuntimeError",
                "error_message": f"scripted failure #{attempt}",
            }
            for attempt in range(1, self.max_attempts + 1)
        ]
        done = {
            fingerprint: {
                "status": "quarantined",
                "attempts": self.max_attempts,
                "failures": failures,
            }
            for fingerprint in message["fingerprints"]
        }
        return {"done": done}, {}


class TestRemoteSupervisionStats:
    def test_poison_job_books_like_serial(self, tmp_path):
        """A job failing both of its two attempts: one retry, one
        quarantine, two failed attempts — remote and serial alike."""
        from repro.serve import RemoteExecutor

        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        serial = SerialExecutor(policy=policy)
        (serial_result,) = serial.run_jobs(
            scripted_batch(tmp_path, count=1, fail_times=99)
        )
        remote = RemoteExecutor(
            "http://coordinator.invalid",
            policy=policy,
            poll_interval_s=0.0,
            transport=_PoisonFleetTransport(),
        )
        (remote_result,) = remote.run_jobs(
            scripted_batch(tmp_path, count=1, fail_times=99)
        )
        assert serial.stats.as_dict() == remote.stats.as_dict()
        assert serial.stats.retries == 1
        assert serial.stats.quarantined == 1
        assert serial_result.failures == remote_result.failures
        assert [f["attempt"] for f in serial_result.failures] == [1, 2]
        for result in (serial_result, remote_result):
            assert isinstance(result.payload, Quarantined)
            assert result.payload.attempts == 2
            assert result.payload.error_type == "RuntimeError"


class TestParallelSupervision:
    def _executor(self, **policy_kwargs):
        policy_kwargs.setdefault("backoff_s", 0.0)
        return ParallelExecutor(2, policy=RetryPolicy(**policy_kwargs))

    def test_worker_crash_recovers_and_keeps_results(self, tmp_path):
        """os._exit in a worker breaks the whole pool; the supervisor
        respawns it and the batch still completes in full."""
        with self._executor(max_attempts=3) as executor:
            results = executor.run_jobs(
                scripted_batch(tmp_path, count=6, exit_times=1)
            )
            assert [r.payload["value"] for r in results] == [
                0, 10, 20, 30, 40, 50
            ]
            assert executor.stats.respawns >= 1
            assert executor.stats.requeues >= 1

    def test_exception_retries_to_success(self, tmp_path):
        with self._executor(max_attempts=3) as executor:
            results = executor.run_jobs(scripted_batch(tmp_path, fail_times=2))
            assert results[0].payload == {"name": "job0", "value": 0}
            assert results[0].attempts == 3
            assert executor.stats.retries == 2

    def test_timeout_abandons_attempt_and_retries(self, tmp_path):
        with self._executor(max_attempts=2, timeout_s=0.25) as executor:
            results = executor.run_jobs(
                scripted_batch(tmp_path, count=2, sleep_first_s=2.0)
            )
            assert results[0].payload == {"name": "job0", "value": 0}
            assert results[0].attempts == 2
            assert executor.stats.timeouts >= 1

    def test_poison_job_quarantined_in_pool(self, tmp_path):
        with self._executor(max_attempts=2) as executor:
            results = executor.run_jobs(scripted_batch(tmp_path, fail_times=99))
            assert isinstance(results[0].payload, Quarantined)
            assert [r.payload["value"] for r in results[1:]] == [10, 20, 30]

    def test_degrades_to_inline_when_pool_unrecoverable(self, tmp_path):
        with ParallelExecutor(
            2,
            policy=RetryPolicy(
                max_attempts=3, backoff_s=0.0, max_pool_respawns=0
            ),
        ) as executor:
            results = executor.run_jobs(
                scripted_batch(tmp_path, count=4, exit_times=1)
            )
            assert [r.payload["value"] for r in results] == [0, 10, 20, 30]
            assert executor.stats.degraded >= 1

    def test_chaos_killed_attempt_never_refaults(self, tmp_path):
        """A requeued casualty keeps its consumed attempt number, so a
        kill-on-attempt-1 chaos draw cannot loop forever."""
        chaos = ChaosPolicy(seed=0, kill_rate=1.0)
        with ParallelExecutor(
            2,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.0,
                               max_pool_respawns=10),
            chaos=chaos,
        ) as executor:
            results = executor.run_jobs(
                scripted_batch(tmp_path, count=2)
            )
            assert [r.payload["value"] for r in results] == [0, 10]
            assert all(r.attempts >= 2 for r in results)


class _SerialFuture(Future):
    """A future that hashes to its submission serial.

    ``wait()`` hands its done futures back as a set; small-int hashes
    fix that set's iteration order to submission order.
    """

    def __init__(self, serial: int) -> None:
        super().__init__()
        self._serial = serial

    def __hash__(self) -> int:
        return self._serial


class _TogetherPool:
    """A stand-in process pool whose futures complete on submission.

    Every attempt submitted before the executor's next ``wait()`` is
    done by then, so one wait round returns them together.  The job
    named ``victim`` breaks the pool on its first attempt.
    """

    def __init__(self, victim: str, executions: list) -> None:
        self.victim = victim
        self.executions = executions
        self.submitted = 0

    def submit(self, fn, task):
        future = _SerialFuture(self.submitted)
        self.submitted += 1
        if task.job.name == self.victim and task.attempt == 1:
            future.set_exception(BrokenProcessPool("stand-in worker died"))
        else:
            self.executions.append(task.job.name)
            future.set_result(fn(task))
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class _TogetherPoolExecutor(ParallelExecutor):
    def __init__(self, victim: str, executions: list, **kwargs) -> None:
        super().__init__(**kwargs)
        self._make_pool = lambda: _TogetherPool(victim, executions)

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool


class TestPoolDeathRound:
    def test_results_landing_with_a_pool_death_are_kept(self, tmp_path):
        """A wait() round that returns one broken future beside finished
        ones lands every finished result; only the broken attempt's job
        is a casualty, so nothing re-executes."""
        executions: list = []
        jobs = scripted_batch(tmp_path, count=4)
        executor = _TogetherPoolExecutor(
            "job0",
            executions,
            workers=4,
            policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
        )
        results = executor.run_jobs(jobs)
        assert [r.payload["value"] for r in results] == [0, 10, 20, 30]
        assert sorted(executions) == ["job0", "job1", "job2", "job3"]
        assert [r.attempts for r in results] == [2, 1, 1, 1]
        assert executor.stats.requeues == 1
        assert executor.stats.respawns == 1


class TestExecuteSupervised:
    def test_applies_scheduled_error(self, tmp_path):
        job = ScriptedJob(name="x", scratch=str(tmp_path))
        task = SupervisedTask(
            job=job, attempt=1, chaos=ChaosPolicy(seed=0, error_rate=1.0)
        )
        with pytest.raises(ChaosError):
            execute_supervised(task)

    def test_clean_attempt_matches_execute_job(self, tmp_path):
        job = ScriptedJob(name="x", scratch=str(tmp_path), value=7)
        result = execute_supervised(SupervisedTask(job=job, attempt=3))
        assert result.payload == {"name": "x", "value": 7}
        assert result.attempts == 3


# ---------------------------------------------------------------------------
# Session integration: counters, quarantine list, manifests
# ---------------------------------------------------------------------------


class TestSessionSupervision:
    def test_retry_counters_reach_telemetry(self, tmp_path):
        session = EngineSession(
            executor=SerialExecutor(
                policy=RetryPolicy(max_attempts=3, backoff_s=0.0)
            ),
            cache=ResultCache(),
        )
        session.run_jobs(scripted_batch(tmp_path, fail_times=2))
        assert session.counters()["engine.retries"] == 2
        assert session.counters()["engine.quarantined"] == 0

    def test_quarantine_surfaces_in_session_and_manifest(self, tmp_path):
        session = EngineSession(
            executor=SerialExecutor(
                policy=RetryPolicy(max_attempts=2, backoff_s=0.0)
            ),
            cache=ResultCache(),
        )
        payloads = session.run_jobs(scripted_batch(tmp_path, fail_times=99))
        assert isinstance(payloads[0], Quarantined)
        assert len(session.quarantined) == 1
        assert session.quarantined[0]["error_type"] == "RuntimeError"
        manifest = session.run_manifest()
        assert manifest["jobs"]["quarantined"] == 1
        assert manifest["quarantined"][0]["kind"] == "scripted"
        sources = [j["source"] for j in manifest["batches"][0]["jobs"]]
        assert sources == ["quarantined", "executed", "executed", "executed"]

    def test_quarantined_payload_never_cached(self, tmp_path):
        session = EngineSession(
            executor=SerialExecutor(
                policy=RetryPolicy(max_attempts=1, backoff_s=0.0)
            ),
            cache=ResultCache(),
        )
        jobs = scripted_batch(tmp_path, count=1, fail_times=1)
        first = session.run_jobs(jobs)
        assert isinstance(first[0], Quarantined)
        # Attempt 2 (fresh batch) succeeds: the miss forced a re-run.
        second = session.run_jobs(jobs)
        assert second[0] == {"name": "job0", "value": 0}

    def test_characterize_refuses_partial_sweeps(self, monkeypatch):
        """One quarantined shard among healthy ones fails the sweep: a
        fold of the surviving rows would be silently wrong."""
        from repro.core.characterization import CharacterizationConfig
        from repro.engine import CharacterizationJob
        from repro.engine import jobs as jobs_module

        model = PAPER_MODEL_TUPLE[0]
        config = CharacterizationConfig()
        shards = CharacterizationJob(
            codename=model.codename, config=config, seed=0
        ).batch_jobs()
        assert len(shards) > 1
        first = shards[0].frequencies_ghz
        healthy_run = jobs_module.BatchCharacterizationJob.run

        def sabotaged(self, telemetry):
            if self.frequencies_ghz != first:
                raise RuntimeError("sabotaged shard")
            return healthy_run(self, telemetry)

        monkeypatch.setattr(jobs_module.BatchCharacterizationJob, "run", sabotaged)
        session = EngineSession(
            executor=SerialExecutor(
                policy=RetryPolicy(max_attempts=1, backoff_s=0.0)
            ),
            cache=ResultCache(),
        )
        with pytest.raises(ReproError, match=f"lost {len(shards) - 1} batch"):
            session.characterize(model, config=config, seed=0)
        assert session.counters()["engine.quarantined"] == len(shards) - 1
        assert len(session.cache) == 0


# ---------------------------------------------------------------------------
# Resume from the disk cache
# ---------------------------------------------------------------------------


def _fuzz_jobs(count=4, seed=3):
    return [
        FuzzJob(
            codename=PAPER_MODEL_TUPLE[0].codename,
            seed=seed,
            case_index=index,
            num_actions=6,
        )
        for index in range(count)
    ]


class TestResumeFromDiskCache:
    """The disk cache is a campaign's checkpoint: each result is written
    as it lands, so a rerun over the same directory resumes."""

    def test_record_and_resume_roundtrip(self, tmp_path):
        jobs = _fuzz_jobs()
        first = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(directory=tmp_path)
        )
        # The "interrupted" run only finishes half the campaign.
        first.run_jobs(jobs[:2])
        assert len(first.cache.disk) == 2

        resumed = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(directory=tmp_path)
        )
        resumed_payloads = resumed.run_jobs(jobs)
        clean = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        clean_payloads = clean.run_jobs(jobs)
        assert _canonical(resumed_payloads) == _canonical(clean_payloads)
        assert resumed.counters()["engine.cache_hits"] == 2
        assert resumed.counters()["engine.jobs_executed"] == 2
        manifest = resumed.run_manifest()
        assert manifest["jobs"]["cached"] == 2
        assert manifest["jobs"]["executed"] == 2

    def test_torn_entry_recomputes_identically(self, tmp_path):
        jobs = _fuzz_jobs(count=2)
        first = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(directory=tmp_path)
        )
        clean_payloads = first.run_jobs(jobs)
        # Tear one entry mid-file, as a kill during the write would.
        entry = sorted((tmp_path / "objects").glob("*/*"))[0]
        entry.write_bytes(entry.read_bytes()[:20])

        resumed = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(directory=tmp_path)
        )
        payloads = resumed.run_jobs(jobs)
        assert _canonical(payloads) == _canonical(clean_payloads)
        assert resumed.counters()["engine.cache_hits"] == 1
        assert resumed.cache.stats.corrupt == 1
        assert list((tmp_path / "objects").glob("*/*.corrupt"))
        assert len(resumed.cache.disk) == 2

    def test_sigkilled_batch_resumes_losslessly(self, tmp_path):
        """End-to-end: SIGKILL a campaign in the middle of one six-job
        batch, right after its third result lands; every landed result
        is on disk, and the rerun executes only the rest and converges
        to the uninterrupted run's exact payloads."""
        import signal
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, {src!r})
            from repro.engine import (
                EngineSession, FuzzJob, ResultCache, SerialExecutor,
            )

            class Announcing(SerialExecutor):
                def run_jobs(self, jobs, *, progress=None, span_context=None):
                    def landed(done, result):
                        progress(done, result)
                        print("landed", flush=True)
                        if done == 3:
                            sys.stdin.readline()  # hold here until killed

                    return super().run_jobs(
                        jobs, progress=landed, span_context=span_context
                    )

            jobs = [
                FuzzJob(codename={codename!r}, seed=3, case_index=i,
                        num_actions=6)
                for i in range(6)
            ]
            session = EngineSession(
                executor=Announcing(),
                cache=ResultCache(directory={cache_dir!r}),
                registry=None,
            )
            session.run_jobs(jobs)
            print("batch finished", flush=True)
        """
        ).format(
            src=str(Path(__file__).resolve().parent.parent / "src"),
            codename=PAPER_MODEL_TUPLE[0].codename,
            cache_dir=str(tmp_path / "cache"),
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            # Kill the campaign the instant the third job lands.
            for _ in range(3):
                assert process.stdout.readline().strip() == "landed"
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
            process.stdout.close()
            process.stdin.close()

        jobs = _fuzz_jobs(count=6)
        cache = ResultCache(directory=tmp_path / "cache")
        survived = len(cache.disk)
        assert survived >= 3
        assert all(job.fingerprint() in cache.disk for job in jobs[:3])

        resumed = EngineSession(executor=SerialExecutor(), cache=cache)
        payloads = resumed.run_jobs(jobs)
        clean = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        assert _canonical(payloads) == _canonical(clean.run_jobs(jobs))
        assert resumed.counters()["engine.jobs_executed"] == 6 - survived


# ---------------------------------------------------------------------------
# Chaos convergence: the double-run contract
# ---------------------------------------------------------------------------


class TestChaosConvergence:
    @pytest.mark.parametrize(
        "model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename
    )
    def test_chaos_campaign_matches_clean_run(self, model):
        jobs = [
            FuzzJob(codename=model.codename, seed=3, case_index=i,
                    num_actions=6)
            for i in range(4)
        ]
        clean = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        clean_payloads = clean.run_jobs(jobs)

        chaos = ChaosPolicy(seed=1, kill_rate=0.25, error_rate=0.25)
        executor = ParallelExecutor(
            2,
            policy=RetryPolicy(
                max_attempts=3, backoff_s=0.0, max_pool_respawns=10
            ),
            chaos=chaos,
        )
        with EngineSession(
            executor=executor, cache=ResultCache(), chaos=chaos
        ) as chaotic:
            chaos_payloads = chaotic.run_jobs(jobs)
        assert _canonical(chaos_payloads) == _canonical(clean_payloads)

    def test_torn_cache_writes_recompute_identically(self, tmp_path):
        jobs = _fuzz_jobs(count=3)
        chaos = ChaosPolicy(seed=1, torn_write_rate=1.0)
        session = EngineSession(
            executor=SerialExecutor(),
            cache=ResultCache(directory=tmp_path),
            chaos=chaos,
        )
        first = session.run_jobs(jobs)
        # Every disk entry was torn; the second pass must detect each
        # corruption, quarantine the file and recompute the payload.
        second = session.run_jobs(jobs)
        assert _canonical(first) == _canonical(second)
        assert session.cache.stats.corrupt == len(jobs)
        assert len(list(tmp_path.glob("objects/*/*.corrupt"))) == len(jobs)

    def test_double_chaos_runs_are_byte_identical(self, tmp_path):
        jobs = _fuzz_jobs(count=4)
        outputs = []
        for run in range(2):
            chaos = ChaosPolicy(
                seed=1, error_rate=0.5, torn_write_rate=0.5
            )
            executor = ParallelExecutor(
                2,
                policy=RetryPolicy(max_attempts=3, backoff_s=0.0),
                chaos=chaos,
            )
            with EngineSession(
                executor=executor,
                cache=ResultCache(directory=tmp_path / f"run{run}"),
                chaos=chaos,
            ) as session:
                payloads = session.run_jobs(jobs) + session.run_jobs(jobs)
            outputs.append(_canonical(payloads))
        assert outputs[0] == outputs[1]
