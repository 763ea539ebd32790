"""The multi-host campaign service (:mod:`repro.serve`).

Covers the full robustness story end to end:

* the chaos convergence proof — a 2-worker remote campaign under seeded
  worker kills, injected errors, and network faults (drops, torn bodies,
  stalls, duplicated deliveries) lands byte-identical payloads *and* the
  same registry run id as an undisturbed serial campaign, for all three
  paper CPU models;
* fleet-wide dedup — resubmitting the identical campaign is served from
  the coordinator's content-addressed result store;
* the lease state machine — expiry, attempt preservation, requeue at the
  front, quarantine at the attempt budget (driven by an injected clock);
* idempotent result PUTs (first-wins, duplicates are free);
* the span envelope riding on real HTTP headers (case-insensitive,
  unknown headers tolerated, newer schema rejected with a 400);
* graceful degradation to local execution when no coordinator answers;
* the coordinator's port handling and registry origin accounting.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.characterization import CharacterizationConfig
from repro.cpu.models import PAPER_MODEL_TUPLE
from repro.engine import (
    ChaosPolicy,
    CharacterizationRowJob,
    EngineSession,
    ResultCache,
    RetryPolicy,
    SerialExecutor,
    make_executor,
)
from repro.errors import (
    ConfigurationError,
    CoordinatorUnreachableError,
    ObserveError,
    ServeError,
    ServeProtocolError,
)
from repro.observe.spans import SpanContext, derive_trace_id
from repro.registry.registry import RunRegistry
from repro.registry.store import encode_object
from repro.serve import (
    ORIGIN_REMOTE,
    ORIGIN_REMOTE_CACHE,
    Coordinator,
    RemoteExecutor,
    Transport,
    WorkerAgent,
)
from repro.serve import protocol

#: Two frequency rows per paper model keeps the fleet campaign cheap.
FREQUENCIES = (0.8, 1.2)

#: Chaos seed chosen (by deterministic scan) so the fleet campaign draws
#: worker kills AND injected errors across the three models, plus
#: network faults on the client transport — see TestChaosConvergence.
CHAOS_SEED = 16


def _row_jobs(config: CharacterizationConfig):
    return [
        CharacterizationRowJob(
            codename=model.codename,
            frequency_ghz=frequency,
            config=config,
            seed=1,
        )
        for model in PAPER_MODEL_TUPLE
        for frequency in FREQUENCIES
    ]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _http_get(base_url: str, path: str):
    """``(status, body)`` of one plain GET against a running coordinator."""
    host, port = base_url.rsplit("/", 1)[-1].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _worker_thread(url: str, **kwargs) -> threading.Thread:
    """An in-process worker that dies quietly when the coordinator stops."""

    def _run() -> None:
        try:
            WorkerAgent(url, **kwargs).run()
        except (CoordinatorUnreachableError, ServeProtocolError):
            pass

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def coordinator(tmp_path):
    service = Coordinator(tmp_path / "store", lease_timeout_s=5.0).start()
    yield service
    service.stop()


# ---------------------------------------------------------------------------
# protocol units


class TestProtocol:
    def test_payload_round_trip(self):
        blob = pickle.dumps({"rows": [1, 2, 3]})
        assert protocol.decode_payload(protocol.encode_payload(blob)) == blob

    def test_malformed_payload_rejected(self):
        with pytest.raises(ServeProtocolError, match="base64"):
            protocol.decode_payload("not*base64*at*all")

    def test_torn_body_rejected(self):
        body = protocol.dumps_message({"jobs": [1, 2, 3]})
        with pytest.raises(ServeProtocolError, match="malformed protocol body"):
            protocol.loads_message(body[: len(body) // 2])

    def test_non_object_body_rejected(self):
        with pytest.raises(ServeProtocolError, match="JSON object"):
            protocol.loads_message(b"[1,2]")

    def test_newer_protocol_version_rejected(self):
        with pytest.raises(ServeProtocolError, match="newer than supported"):
            protocol.check_protocol({"Repro-Serve-Protocol": "99"})

    def test_envelope_absent_means_no_context(self):
        assert protocol.context_from_headers({"Content-Type": "x"}) is None


# ---------------------------------------------------------------------------
# span envelope over a real socket (satellite: header round trip)


class TestSpanEnvelopeOverHttp:
    def _submit_body(self) -> bytes:
        job = _row_jobs(
            CharacterizationConfig(
                offset_start_mv=-10, offset_stop_mv=-30, offset_step_mv=10
            )
        )[0]
        return protocol.dumps_message(
            {
                "jobs": [
                    {
                        "fingerprint": job.fingerprint(),
                        "kind": job.kind,
                        "spec": protocol.encode_payload(encode_object(job)),
                    }
                ]
            }
        )

    def test_mixed_case_headers_round_trip_through_lease(self, coordinator):
        """The envelope survives client → HTTP → coordinator → worker."""
        context = SpanContext(
            trace_id=derive_trace_id("serve-test"), parent_id="root/1"
        )
        connection = http.client.HTTPConnection("127.0.0.1", coordinator.port)
        try:
            body = self._submit_body()
            # Deliberately weird casing plus an unknown header: HTTP
            # semantics say both must be harmless.
            connection.request(
                "POST",
                "/v1/jobs",
                body=body,
                headers={
                    "Content-Type": protocol.CONTENT_TYPE,
                    "REPRO-TRACE-ID": context.trace_id,
                    "Repro-Parent-Id": context.parent_id,
                    "repro-span-schema": context.to_envelope()[
                        "repro-span-schema"
                    ],
                    "X-Repro-Unknown": "ignored",
                },
            )
            reply = connection.getresponse()
            assert reply.status == 200
            accepted = protocol.loads_message(reply.read())["accepted"]
            assert len(accepted) == 1
        finally:
            connection.close()

        # The worker's lease response carries the envelope back out as
        # real response headers; parsing them recovers the same context.
        transport = Transport(coordinator.url)
        reply, headers = transport.request(
            "POST", "/v1/lease", {"worker_id": "w-test", "capacity": 1}
        )
        assert len(reply["jobs"]) == 1
        recovered = protocol.context_from_headers(headers)
        assert recovered == context

    def test_newer_span_schema_is_rejected_with_400(self, coordinator):
        transport = Transport(coordinator.url, max_tries=1)
        with pytest.raises(ServeProtocolError, match="bad span envelope"):
            transport.request(
                "POST",
                "/v1/jobs",
                {"jobs": []},
                headers={
                    "repro-trace-id": "t",
                    "repro-parent-id": "p",
                    "repro-span-schema": "99",
                },
            )

    def test_from_envelope_rejects_newer_schema_directly(self):
        envelope = SpanContext(trace_id="t", parent_id="p").to_envelope()
        envelope["repro-span-schema"] = "99"
        with pytest.raises(ConfigurationError, match="newer"):
            SpanContext.from_envelope(envelope)


# ---------------------------------------------------------------------------
# lease state machine (injected clock; no sockets)


def _tiny_job():
    return _row_jobs(
        CharacterizationConfig(
            offset_start_mv=-10, offset_stop_mv=-30, offset_step_mv=10
        )
    )[0]


def _submit_message(job, max_attempts=3):
    return {
        "jobs": [
            {
                "fingerprint": job.fingerprint(),
                "kind": job.kind,
                "spec": protocol.encode_payload(encode_object(job)),
            }
        ],
        "max_attempts": max_attempts,
    }


def _clocked_coordinator(tmp_path, **kwargs):
    """An unstarted coordinator on a settable clock: ``(service, now)``."""
    now = [0.0]
    service = Coordinator(
        tmp_path / "store",
        lease_timeout_s=kwargs.pop("lease_timeout_s", 10.0),
        clock=lambda: now[0],
        **kwargs,
    )
    return service, now


def _deliver(service, job, *, status="ok"):
    """Lease ``job`` to one worker and put one result for it."""
    granted, _ = service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
    attempt = granted["jobs"][0]["attempt"]
    message = {"lease_id": granted["lease_id"], "attempt": attempt, "status": status}
    if status == "ok":
        message["payload"] = protocol.encode_payload(b"payload-bytes")
    else:
        message.update(error_type="FaultInjected", error_message="chaos")
    service.handle_result(job.fingerprint(), message, {})
    return message


class TestLeaseStateMachine:
    def _service(self, tmp_path, **kwargs):
        return _clocked_coordinator(tmp_path, **kwargs)

    def test_expired_lease_requeues_with_attempt_preserved(self, tmp_path):
        service, now = self._service(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        granted, _ = service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
        assert granted["jobs"][0]["attempt"] == 1
        lease_id = granted["lease_id"]

        # Nobody else can lease it while the lease is live.
        empty, _ = service.handle_lease({"worker_id": "w2", "capacity": 1}, {})
        assert empty["jobs"] == []

        # The worker dies (no heartbeat); past the deadline the job is
        # requeued with the consumed attempt preserved.
        now[0] = 11.0
        regranted, _ = service.handle_lease(
            {"worker_id": "w2", "capacity": 1}, {}
        )
        assert regranted["jobs"][0]["fingerprint"] == job.fingerprint()
        assert regranted["jobs"][0]["attempt"] == 2
        assert service.registry.counter("serve.leases.expired").value == 1
        assert service.registry.counter("serve.jobs.requeued").value == 1

        # The dead worker's late heartbeat learns it was reaped.
        pulse, _ = service.handle_heartbeat({"lease_id": lease_id}, {})
        assert pulse == {"ok": False, "reason": "unknown-lease"}

    def test_heartbeat_renews_the_deadline(self, tmp_path):
        service, now = self._service(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        granted, _ = service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
        lease_id = granted["lease_id"]
        for tick in (8.0, 16.0, 24.0):
            now[0] = tick
            pulse, _ = service.handle_heartbeat({"lease_id": lease_id}, {})
            assert pulse["ok"] is True
        # 24s of wall time later the renewed lease is still live.
        empty, _ = service.handle_lease({"worker_id": "w2", "capacity": 1}, {})
        assert empty["jobs"] == []
        assert service.registry.counter("serve.leases.expired").value == 0

    def test_attempt_budget_exhaustion_quarantines(self, tmp_path):
        service, now = self._service(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job, max_attempts=2), {})
        for round_number in (1, 2):
            granted, _ = service.handle_lease(
                {"worker_id": f"w{round_number}", "capacity": 1}, {}
            )
            assert granted["jobs"][0]["attempt"] == round_number
            now[0] += 11.0  # let the lease rot
        collected, _ = service.handle_collect(
            {"fingerprints": [job.fingerprint()]}, {}
        )
        entry = collected["done"][job.fingerprint()]
        assert entry["status"] == "quarantined"
        assert entry["attempts"] == 2
        assert [f["error_type"] for f in entry["failures"]] == [
            "LeaseExpired",
            "LeaseExpired",
        ]
        assert service.registry.counter("serve.jobs.quarantined").value == 1

    def test_result_put_is_first_wins_idempotent(self, tmp_path):
        service, now = self._service(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        granted, _ = service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
        message = {
            "lease_id": granted["lease_id"],
            "attempt": 1,
            "status": "ok",
            "payload": protocol.encode_payload(b"payload-bytes"),
        }
        first, _ = service.handle_result(job.fingerprint(), message, {})
        assert first == {"ok": True, "duplicate": False}
        # A chaos-duplicated (or late re-leased) delivery is free.
        second, _ = service.handle_result(job.fingerprint(), message, {})
        assert second == {"ok": True, "duplicate": True}
        assert service.registry.counter("serve.results.duplicate").value == 1
        assert len(service.store) == 1

    def test_damaged_stored_result_is_re_executed(self, tmp_path):
        """A stored blob that fails verification is not served as cached:
        the resubmitted job is leased, re-executed and collected."""
        service, now = self._service(tmp_path)
        job = _tiny_job()
        fingerprint = job.fingerprint()

        def complete(expected_attempt):
            granted, _ = service.handle_lease(
                {"worker_id": "w1", "capacity": 1}, {}
            )
            assert [j["fingerprint"] for j in granted["jobs"]] == [fingerprint]
            assert granted["jobs"][0]["attempt"] == expected_attempt
            service.handle_result(
                fingerprint,
                {
                    "lease_id": granted["lease_id"],
                    "attempt": expected_attempt,
                    "status": "ok",
                    "payload": protocol.encode_payload(b"payload-bytes"),
                },
                {},
            )

        service.handle_submit(_submit_message(job), {})
        complete(1)
        blob = service.store.blob_path(fingerprint)
        raw = bytearray(blob.read_bytes())
        raw[0] ^= 0xFF
        blob.write_bytes(bytes(raw))

        submitted, _ = service.handle_submit(_submit_message(job), {})
        assert submitted["cached"] == []
        assert submitted["accepted"] == [fingerprint]
        assert service.store.stats.corrupt == 1
        complete(1)
        collected, _ = service.handle_collect({"fingerprints": [fingerprint]}, {})
        entry = collected["done"][fingerprint]
        assert entry["status"] == "ok"
        assert protocol.decode_payload(entry["payload"]) == b"payload-bytes"
        assert collected["pending"] == []

    def test_error_results_requeue_then_quarantine(self, tmp_path):
        service, now = self._service(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job, max_attempts=2), {})
        for attempt in (1, 2):
            granted, _ = service.handle_lease(
                {"worker_id": "w1", "capacity": 1}, {}
            )
            assert granted["jobs"][0]["attempt"] == attempt
            service.handle_result(
                job.fingerprint(),
                {
                    "lease_id": granted["lease_id"],
                    "attempt": attempt,
                    "status": "error",
                    "error_type": "FaultInjected",
                    "error_message": "chaos",
                },
                {},
            )
        collected, _ = service.handle_collect(
            {"fingerprints": [job.fingerprint()]}, {}
        )
        entry = collected["done"][job.fingerprint()]
        assert entry["status"] == "quarantined"
        assert [f["error_type"] for f in entry["failures"]] == [
            "FaultInjected",
            "FaultInjected",
        ]


class TestStatusCounters:
    """``status_snapshot()["counters"]`` carries every ``serve.*`` counter."""

    def test_fresh_coordinator_reports_no_counters(self, tmp_path):
        service, _ = _clocked_coordinator(tmp_path)
        status = service.status_snapshot()
        assert status["counters"] == {}
        assert json.loads(json.dumps(status)) == status

    def test_resubmission_counts_once_then_dedupes(self, tmp_path):
        service, _ = _clocked_coordinator(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        # An in-flight duplicate shares the existing record.
        service.handle_submit(_submit_message(job), {})
        assert service.status_snapshot()["counters"] == {"serve.jobs.submitted": 1}
        _deliver(service, job)
        service.handle_submit(_submit_message(job), {})
        assert service.status_snapshot()["counters"] == {
            "serve.jobs.completed": 1,
            "serve.jobs.deduped": 1,
            "serve.jobs.submitted": 1,
            "serve.leases.granted": 1,
        }

    def test_expired_lease_shows_in_status(self, tmp_path):
        service, now = _clocked_coordinator(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
        now[0] = 11.0
        status = service.status_snapshot()  # reaps the overdue lease
        assert status["counters"]["serve.leases.expired"] == 1
        assert status["counters"]["serve.jobs.requeued"] == 1
        assert status["leases"] == 0
        assert status["queue_depth"] == 1
        assert status["jobs"] == {protocol.JOB_PENDING: 1}

    def test_heartbeats_count_renewals(self, tmp_path):
        service, now = _clocked_coordinator(tmp_path)
        service.handle_submit(_submit_message(_tiny_job()), {})
        granted, _ = service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
        for tick in (8.0, 16.0, 24.0):
            now[0] = tick
            service.handle_heartbeat({"lease_id": granted["lease_id"]}, {})
        counters = service.status_snapshot()["counters"]
        assert counters["serve.leases.renewed"] == 3
        assert "serve.leases.expired" not in counters

    def test_error_results_count_retries_then_quarantine(self, tmp_path):
        service, _ = _clocked_coordinator(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job, max_attempts=2), {})
        _deliver(service, job, status="error")
        _deliver(service, job, status="error")
        status = service.status_snapshot()
        assert status["counters"]["serve.jobs.retries"] == 1
        assert status["counters"]["serve.jobs.requeued"] == 1
        assert status["counters"]["serve.jobs.quarantined"] == 1
        assert status["jobs"] == {protocol.JOB_QUARANTINED: 1}

    def test_duplicate_delivery_is_counted_once_completed(self, tmp_path):
        service, _ = _clocked_coordinator(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        message = _deliver(service, job)
        service.handle_result(job.fingerprint(), message, {})
        counters = service.status_snapshot()["counters"]
        assert counters["serve.jobs.completed"] == 1
        assert counters["serve.results.duplicate"] == 1

    def test_counters_mirror_the_registry_in_name_order(self, tmp_path):
        service, now = _clocked_coordinator(tmp_path)
        job = _tiny_job()
        service.handle_submit(_submit_message(job), {})
        service.handle_lease({"worker_id": "w1", "capacity": 1}, {})
        now[0] = 11.0
        _deliver(service, job)
        counters = service.status_snapshot()["counters"]
        assert counters == service.registry.counter_values()
        assert list(counters) == sorted(counters)
        assert all(name.startswith("serve.") for name in counters)


# ---------------------------------------------------------------------------
# remote executor end to end (clean network, in-process worker)


class TestRemoteExecutorEndToEnd:
    def test_remote_matches_serial_and_dedups(self, coordinator, coarse_config):
        jobs = _row_jobs(coarse_config)[:2]
        serial = SerialExecutor()
        reference = serial.run_jobs(jobs)
        _worker_thread(coordinator.url, max_idle_s=30.0, poll_interval_s=0.05)

        remote = RemoteExecutor(coordinator.url, poll_interval_s=0.02)
        context = SpanContext(
            trace_id=derive_trace_id("e2e"), parent_id="batch/1"
        )
        results = remote.run_jobs(jobs, span_context=context)

        assert [r.fingerprint for r in results] == [
            j.fingerprint() for j in jobs
        ]
        for landed, expected in zip(results, reference):
            assert landed.origin == ORIGIN_REMOTE
            assert encode_object(landed.payload) == encode_object(
                expected.payload
            )
            # The remote hop is visible: the job span's wall sidecar
            # carries the queue wait measured from this client's submit.
            waits = [
                entry
                for entry in landed.span_wall.values()
                if "queue_wait_s" in entry
            ]
            assert waits and all(w["queue_wait_s"] >= 0.0 for w in waits)

        # A second client submitting the same campaign is served from
        # the fleet store without queueing anything.
        replay = RemoteExecutor(coordinator.url, poll_interval_s=0.02)
        replayed = replay.run_jobs(jobs, span_context=context)
        for landed, expected in zip(replayed, reference):
            assert landed.origin == ORIGIN_REMOTE_CACHE
            assert encode_object(landed.payload) == encode_object(
                expected.payload
            )
        assert coordinator.registry.counter("serve.jobs.deduped").value == 2
        assert coordinator.store.stats.hits >= 2

    def test_status_snapshot_counts_the_fleet(self, coordinator, coarse_config):
        jobs = _row_jobs(coarse_config)[:1]
        _worker_thread(
            coordinator.url,
            worker_id="w-status",
            max_idle_s=30.0,
            poll_interval_s=0.05,
        )
        RemoteExecutor(coordinator.url, poll_interval_s=0.02).run_jobs(jobs)
        snapshot = Transport(coordinator.url).request("POST", "/v1/collect", {
            "fingerprints": [],
        })
        status = protocol.loads_message(
            protocol.dumps_message(coordinator.status_snapshot())
        )
        assert status["jobs"] == {"done": 1}
        assert "w-status" in status["workers"]
        assert status["store"]["results"] == 1
        assert status["counters"]["serve.jobs.completed"] == 1


# ---------------------------------------------------------------------------
# graceful degradation


class TestGracefulDegradation:
    def _dead_url(self) -> str:
        return f"http://127.0.0.1:{_free_port()}"

    def test_unreachable_coordinator_degrades_to_inline(self, coarse_config):
        jobs = _row_jobs(coarse_config)[:2]
        reference = SerialExecutor().run_jobs(jobs)
        url = self._dead_url()
        executor = RemoteExecutor(
            url,
            transport=Transport(
                url, max_tries=2, backoff_s=0.0, sleep=lambda _s: None
            ),
        )
        results = executor.run_jobs(jobs)
        assert executor.stats.degraded == 2
        for landed, expected in zip(results, reference):
            assert getattr(landed, "origin", None) is None
            assert encode_object(landed.payload) == encode_object(
                expected.payload
            )

    def test_transport_backoff_is_deterministic_and_capped(self):
        transport = Transport(
            "http://127.0.0.1:1",
            backoff_s=0.05,
            backoff_factor=2.0,
            backoff_cap_s=0.15,
        )
        assert [transport.backoff_for(n) for n in (1, 2, 3, 4)] == [
            0.05,
            0.1,
            0.15,
            0.15,
        ]

    def test_retry_budget_raises_coordinator_unreachable(self):
        url = self._dead_url()
        slept = []
        transport = Transport(
            url, max_tries=3, backoff_s=0.01, sleep=slept.append
        )
        with pytest.raises(CoordinatorUnreachableError, match="3 attempt"):
            transport.request("POST", "/v1/lease", {"worker_id": "w"})
        assert slept == [0.01, 0.02]  # deterministic schedule, no jitter

    def test_make_executor_remote_requires_url(self):
        with pytest.raises(ConfigurationError, match="coordinator"):
            make_executor("remote")
        executor = make_executor("remote", url="http://127.0.0.1:1")
        assert isinstance(executor, RemoteExecutor)


# ---------------------------------------------------------------------------
# THE acceptance proof: chaos-ridden fleet converges byte-identically


class TestChaosConvergence:
    """2 subprocess workers, seeded kills/errors/network faults, 3 models."""

    def _spawn_worker(self, url: str, serial: int) -> subprocess.Popen:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "work",
                "--coordinator",
                url,
                "--capacity",
                "2",
                "--worker-id",
                f"chaos-w{serial}",
                "--max-idle",
                "60",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_chaotic_fleet_campaign_matches_serial(
        self, tmp_path, coarse_config, monkeypatch
    ):
        # The chaos draws are keyed by job fingerprints, which include
        # the result-affecting environment: pin it to the defaults.
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        jobs = _row_jobs(coarse_config)

        # -- the undisturbed serial reference ------------------------------
        serial_session = EngineSession(
            executor=SerialExecutor(),
            cache=ResultCache(),
            registry=RunRegistry(tmp_path / "registry-serial"),
        )
        serial_payloads = serial_session.run_jobs(jobs)
        serial_run_id = serial_session.record_run()
        assert serial_run_id is not None

        # -- the chaos-ridden fleet campaign -------------------------------
        chaos = ChaosPolicy(
            seed=CHAOS_SEED,
            kill_rate=0.3,
            error_rate=0.2,
            drop_rate=0.15,
            torn_body_rate=0.15,
            net_stall_rate=0.05,
            duplicate_rate=0.1,
            net_stall_s=0.02,
        )
        # Worker faults only fire on first attempts (max_faulted_attempts
        # defaults to 1) and this seed draws three kills, so any job can
        # lose at most its own faulted attempt plus a LeaseExpired per
        # kill it shares a lease with; 6 attempts cannot be exhausted.
        policy = RetryPolicy(max_attempts=6, backoff_s=0.01)

        coordinator = Coordinator(
            tmp_path / "store", lease_timeout_s=1.5
        ).start()
        workers: dict = {}
        respawned = [0]
        stop_watchdog = threading.Event()

        def watchdog() -> None:
            # A chaos kill takes the whole agent down with os._exit
            # mid-lease; the fleet operator (this thread) respawns it.
            while not stop_watchdog.wait(0.1):
                for slot, process in list(workers.items()):
                    if process.poll() is not None:
                        respawned[0] += 1
                        workers[slot] = self._spawn_worker(
                            coordinator.url, 10 * slot + respawned[0]
                        )

        try:
            for slot in (1, 2):
                workers[slot] = self._spawn_worker(coordinator.url, slot)
            watchdog_thread = threading.Thread(target=watchdog, daemon=True)
            watchdog_thread.start()

            remote_session = EngineSession(
                executor=RemoteExecutor(
                    coordinator.url,
                    policy=policy,
                    chaos=chaos,
                    poll_interval_s=0.05,
                    max_wait_s=120.0,
                ),
                cache=ResultCache(),
                registry=RunRegistry(tmp_path / "registry-remote"),
            )
            remote_payloads = remote_session.run_jobs(jobs)
            remote_run_id = remote_session.record_run()

            # Byte-identical payloads for every (model, frequency) cell.
            assert remote_session.quarantined == []
            for remote_payload, serial_payload in zip(
                remote_payloads, serial_payloads
            ):
                assert encode_object(remote_payload) == encode_object(
                    serial_payload
                )
            # ... and the identical content-addressed run id.
            assert remote_run_id == serial_run_id

            # Every cell was executed by the fleet, none degraded inline.
            manifest = remote_session.run_manifest()
            assert manifest["jobs"]["remote"] == len(jobs)
            assert manifest["jobs"]["quarantined"] == 0

            # The chaos actually bit: at least one worker was killed
            # mid-lease (so a lease expired and was re-leased) or an
            # injected error forced a retry.
            expired = coordinator.registry.counter(
                "serve.leases.expired"
            ).value
            retries = coordinator.registry.counter(
                "serve.jobs.retries"
            ).value
            assert expired >= 1  # seed 16 kills three first attempts
            assert expired + retries >= 2
            assert respawned[0] >= 1

            session_registry = remote_session.telemetry.registry
            assert (
                session_registry.counter("engine.requeues").value
                + session_registry.counter("engine.retries").value
                >= 1
            )

            # -- resubmission: the fleet store serves the whole campaign --
            replay_session = EngineSession(
                executor=RemoteExecutor(
                    coordinator.url, poll_interval_s=0.02
                ),
                cache=ResultCache(),
                registry=RunRegistry(tmp_path / "registry-replay"),
            )
            replay_payloads = replay_session.run_jobs(jobs)
            for replay_payload, serial_payload in zip(
                replay_payloads, serial_payloads
            ):
                assert encode_object(replay_payload) == encode_object(
                    serial_payload
                )
            replay_manifest = replay_session.run_manifest()
            dedup_fraction = replay_manifest["jobs"]["remote_cached"] / len(
                jobs
            )
            assert dedup_fraction >= 0.9
            assert replay_session.record_run() == serial_run_id
        finally:
            stop_watchdog.set()
            for process in workers.values():
                process.kill()
            for process in workers.values():
                process.wait(timeout=10)
            coordinator.stop()


# ---------------------------------------------------------------------------
# ports and registry accounting


class TestCoordinatorPorts:
    def test_coordinator_port_in_use_raises_clear_error(self, tmp_path):
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            service = Coordinator(tmp_path / "store", port=port)
            with pytest.raises(ObserveError, match="--port 0"):
                service.start()

    def test_port_zero_binds_ephemeral(self, tmp_path):
        service = Coordinator(tmp_path / "store", port=0).start()
        try:
            assert service.port != 0
            assert _http_get(service.url, "/healthz") == (200, b"ok\n")
        finally:
            service.stop()
        service.stop()  # idempotent

    def test_double_start_rejected(self, coordinator):
        with pytest.raises(ServeError, match="already started"):
            coordinator.start()

    def test_unknown_path_404(self, coordinator):
        status, body = _http_get(coordinator.url, "/nope")
        assert status == 404
        assert "no such path" in json.loads(body)["error"]

    def test_metrics_route_is_retired(self, coordinator):
        # /v1/status is the coordinator's one read surface.
        status, _ = _http_get(coordinator.url, "/metrics")
        assert status == 404

    def test_v1_status_serves_the_counters(self, coordinator):
        coordinator.handle_submit(_submit_message(_tiny_job()), {})
        status, body = _http_get(coordinator.url, "/v1/status")
        assert status == 200
        snapshot = json.loads(body)
        assert snapshot["counters"] == {"serve.jobs.submitted": 1}
        assert snapshot["queue_depth"] == 1


class TestRegistryOriginAccounting:
    def test_describe_reports_remote_origins(self, tmp_path, coordinator,
                                             coarse_config):
        jobs = _row_jobs(coarse_config)[:2]
        _worker_thread(coordinator.url, max_idle_s=30.0, poll_interval_s=0.05)
        registry_dir = tmp_path / "registry"
        session = EngineSession(
            executor=RemoteExecutor(coordinator.url, poll_interval_s=0.02),
            cache=ResultCache(),
            registry=RunRegistry(registry_dir),
        )
        session.run_jobs(jobs)
        session.record_run()
        first = RunRegistry(registry_dir).describe()
        assert first["by_origin"] == {"remote": 2}
        assert first["dedup_hits"] == {"local": 0, "remote": 0}

        replay = EngineSession(
            executor=RemoteExecutor(coordinator.url, poll_interval_s=0.02),
            cache=ResultCache(),
            registry=RunRegistry(registry_dir),
        )
        replay.run_jobs(jobs)
        # Same jobs → same run id: the idempotent re-record replaces the
        # run's rows, whose origins now say the fleet store served them.
        replay.record_run()
        info = RunRegistry(registry_dir).describe()
        assert info["by_origin"] == {"remote-cache": 2}
        assert info["dedup_hits"] == {"local": 0, "remote": 2}

    def test_runs_show_job_line_matches_registry_row(
        self, tmp_path, coordinator, coarse_config, capsys
    ):
        from repro.cli import main

        jobs = _row_jobs(coarse_config)[:3]
        _worker_thread(coordinator.url, max_idle_s=30.0, poll_interval_s=0.05)
        # A first session leaves two of the three results in the fleet
        # store, so the recorded run mixes remote and remote-cache jobs.
        warm = EngineSession(
            executor=RemoteExecutor(coordinator.url, poll_interval_s=0.02),
            cache=ResultCache(),
            registry=None,
        )
        warm.run_jobs(jobs[:2])
        registry_dir = tmp_path / "registry"
        session = EngineSession(
            executor=RemoteExecutor(coordinator.url, poll_interval_s=0.02),
            cache=ResultCache(),
            registry=RunRegistry(registry_dir),
        )
        session.run_jobs(jobs)
        run_id = session.record_run()
        row = RunRegistry(registry_dir).get_run(run_id)
        assert (row["jobs_executed"], row["jobs_cached"]) == (1, 2)
        assert main(
            ["runs", "show", run_id[:12], "--registry", str(registry_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "3 total, 1 executed, 2 served from cache" in out

    def test_status_registry_cli_shows_dedup_by_origin(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
        assert main(["status", "--registry"]) == 0
        out = capsys.readouterr().out
        assert "dedup by origin" in out
        assert "local" in out and "remote" in out
        assert "0 cached, 0 quarantined" in out and "resumed" not in out
