"""Distributed span tracing: determinism, propagation, merge, surfaces.

The span model's contract mirrors the profiler's (PR 4): everything in a
span *record* is derived from sim time and job identity, so the merged
fleet timeline — and its Chrome-trace export — must be byte-identical
between ``SerialExecutor`` and ``ParallelExecutor`` for the same
campaign.  Wall-clock observations (queue wait, execute time, pids) ride
in a labelled sidecar and never touch the records.  These tests pin that
split, the trace-context envelope (the future HTTP wire format), the
attempt spans retries leave behind, the cross-process telemetry
marshalling that rides in the same ``JobResult``, and the CLI/registry
surfaces built on top.
"""

from __future__ import annotations

import json
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
    RetryPolicy,
    SerialExecutor,
)
from repro.engine.jobs import CharacterizationRowJob, execute_job
from repro.errors import ConfigurationError
from repro.observe import FleetTimeline
from repro.observe.spans import (
    CAMPAIGN_SPAN_ID,
    SPAN_SCHEMA_VERSION,
    SpanContext,
    SpanRecorder,
    derive_trace_id,
    job_span_id,
)
from repro.telemetry.registry import Registry

#: Keys a deterministic span record may carry — and nothing else.
RECORD_KEYS = {
    "span_id",
    "parent_id",
    "trace_id",
    "name",
    "kind",
    "sim_start_s",
    "sim_end_s",
    "status",
    "attrs",
}


def _row_jobs(model, config, frequencies=2):
    table = model.frequency_table
    picks = list(table.frequencies_ghz())[:: max(1, len(list(table.frequencies_ghz())) // frequencies)][:frequencies]
    return [
        CharacterizationRowJob(
            codename=model.codename,
            frequency_ghz=frequency,
            config=config,
            seed=5,
        )
        for frequency in picks
    ]


def _run(executor, jobs, tmp_path, tag):
    with EngineSession(executor=executor) as session:
        session.run_jobs(jobs, cache=False)
        trace = tmp_path / f"{tag}.trace.json"
        session.export_spans(trace)
        return (
            session.timeline.deterministic_dict(),
            trace.read_bytes(),
            {
                h.name: h.marshal()
                for h in session.telemetry.registry.histograms()
            },
            session.timeline,
        )


@pytest.mark.parametrize(
    "model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename
)
def test_serial_vs_process_span_byte_identity(model, coarse_config, tmp_path):
    """Sim-time span fields are byte-identical across executors."""
    jobs = _row_jobs(model, coarse_config)
    serial_dict, serial_bytes, serial_hists, _ = _run(
        SerialExecutor(), jobs, tmp_path, "serial"
    )
    process_dict, process_bytes, process_hists, timeline = _run(
        ParallelExecutor(2), jobs, tmp_path, "process"
    )
    assert serial_dict == process_dict
    assert serial_bytes == process_bytes
    assert len(timeline) > 0
    assert serial_hists == process_hists


def test_wall_clock_segregated_to_sidecar(coarse_config, tmp_path):
    """Records carry only sim/identity fields; wall data sits apart."""
    jobs = _row_jobs(PAPER_MODEL_TUPLE[0], coarse_config)
    with EngineSession(executor=ParallelExecutor(2)) as session:
        session.run_jobs(jobs, cache=False)
        timeline = session.timeline
    for record in timeline.spans:
        assert set(record) == RECORD_KEYS
        assert record["trace_id"] == timeline.trace_id
    # The sidecar is keyed by span id and is where the wall clocks live:
    # worker pids, start stamps, durations, queue waits.
    job_ids = [r["span_id"] for r in timeline.spans if r["kind"] == "job"]
    assert job_ids
    for span_id in job_ids:
        wall = timeline.wall[span_id]
        assert wall["pid"] > 0
        assert wall["duration_s"] >= 0.0
        assert wall["queue_wait_s"] >= 0.0
    # Both export surfaces stay split the same way.
    document = timeline.to_dict()
    assert set(document["spans"][0]) == RECORD_KEYS
    assert document["wall"]


@dataclass(frozen=True)
class FlakyJob(JobSpec):
    """Fails its first ``fail_times`` executions, then succeeds.

    Counts executions with marker files under ``scratch`` so the script
    survives the process boundary, like the resilience suite's jobs.
    """

    kind: ClassVar[str] = "flaky-span"

    name: str
    scratch: str
    seed: int = 0
    fail_times: int = 0

    def seed_path(self) -> Tuple[str, ...]:
        return ("flaky-span", self.name)

    def run(self, telemetry) -> Dict[str, Any]:
        root = Path(self.scratch)
        root.mkdir(parents=True, exist_ok=True)
        count = len(list(root.glob(f"{self.name}.run.*"))) + 1
        (root / f"{self.name}.run.{count}").touch()
        if count <= self.fail_times:
            raise RuntimeError(f"scripted failure {count}")
        with telemetry.spans.phase("work"):
            pass
        return {"name": self.name, "value": 7}


def test_retry_leaves_attempt_span_with_same_fingerprint(tmp_path):
    """A retried job yields an error attempt span plus the real job span."""
    job = FlakyJob(name="once", scratch=str(tmp_path / "scratch"), fail_times=1)
    policy = RetryPolicy(max_attempts=3, backoff_s=0.01)
    with EngineSession(executor=ParallelExecutor(2, policy=policy)) as session:
        (payload,) = session.run_jobs([job], cache=False)
        timeline = session.timeline
    fingerprint = job.fingerprint()
    attempts = [r for r in timeline.spans if r["kind"] == "attempt"]
    assert len(attempts) == 1
    assert attempts[0]["span_id"] == job_span_id(fingerprint, 1)
    assert attempts[0]["status"] == "error"
    assert attempts[0]["attrs"]["error_type"] == "RuntimeError"
    assert attempts[0]["attrs"]["fingerprint"] == fingerprint
    (job_span,) = [r for r in timeline.spans if r["kind"] == "job"]
    assert job_span["span_id"] == job_span_id(fingerprint, 2)
    assert job_span["attrs"]["fingerprint"] == fingerprint
    assert job_span["status"] == "ok"
    # The payload is the scripted success — retries change supervision
    # history, never results.
    assert payload == {"name": "once", "value": 7}
    # The attempt shows up in the summary the report renders.
    assert timeline.attempts_by_kind()["flaky-span"]["retried"] == 1


def test_chaos_run_leaves_consistent_span_tree(tmp_path):
    """Under chaos every span still hangs off one campaign root."""
    jobs = [
        FuzzJob(codename=model.codename, seed=5, case_index=case, num_actions=4)
        for model in PAPER_MODEL_TUPLE
        for case in range(2)
    ]
    chaos = ChaosPolicy(seed=11, error_rate=0.3)
    policy = RetryPolicy(max_attempts=4, backoff_s=0.01)
    executor = ParallelExecutor(2, policy=policy, chaos=chaos)
    with EngineSession(executor=executor, chaos=chaos) as session:
        session.run_jobs(jobs, cache=False)
        timeline = session.timeline
    ids = {record["span_id"] for record in timeline.spans}
    roots = [r for r in timeline.spans if r["kind"] == "campaign"]
    assert [r["span_id"] for r in roots] == [CAMPAIGN_SPAN_ID]
    for record in timeline.spans:
        if record["kind"] == "campaign":
            assert record["parent_id"] == ""
        else:
            assert record["parent_id"] in ids
        assert record["sim_end_s"] >= record["sim_start_s"]
    # One job span per job regardless of how many attempts chaos burned.
    job_spans = [r for r in timeline.spans if r["kind"] == "job"]
    assert len(job_spans) == len(jobs)
    # The round-trip through the storable document is lossless.
    replayed = FleetTimeline.from_dict(
        json.loads(json.dumps(timeline.to_dict()))
    )
    assert replayed.deterministic_dict() == timeline.deterministic_dict()


def test_span_context_envelope_round_trip():
    trace_id = derive_trace_id("abc", "def")
    context = SpanContext(trace_id=trace_id, parent_id="batch-0")
    envelope = context.to_envelope()
    # Envelope values are strings: the envelope is the HTTP header wire
    # format ROADMAP item 3 will reuse verbatim.
    assert envelope["repro-span-schema"] == str(SPAN_SCHEMA_VERSION)
    assert SpanContext.from_envelope(envelope) == context
    # Header keys are case-insensitive, as on the wire.
    upper = {key.upper(): value for key, value in envelope.items()}
    assert SpanContext.from_envelope(upper) == context
    with pytest.raises(ConfigurationError):
        SpanContext.from_envelope({"repro-trace-id": trace_id})
    newer = dict(envelope, **{"repro-span-schema": SPAN_SCHEMA_VERSION + 1})
    with pytest.raises(ConfigurationError):
        SpanContext.from_envelope(newer)


def test_recorder_export_is_deterministic():
    """Two recorders fed the same sim activity export identical records."""

    def record():
        recorder = SpanRecorder()
        recorder.begin_job(
            fingerprint="f" * 40,
            kind="demo",
            attempt=1,
            context=SpanContext(trace_id="t" * 16, parent_id="batch-0"),
        )
        with recorder.phase("alpha", sim_start_s=0.0) as phase:
            phase.end_sim = 1.5
        with recorder.phase("beta", sim_start_s=1.5) as phase:
            phase.end_sim = 2.0
        recorder.finish_job()
        return recorder.export()

    spans_a, wall_a = record()
    spans_b, wall_b = record()
    assert spans_a == spans_b
    assert spans_a[0]["span_id"] == job_span_id("f" * 40, 1)
    assert spans_a[0]["sim_end_s"] == 2.0  # sum of phase durations
    assert [r["name"] for r in spans_a[1:]] == ["alpha", "beta"]
    # Wall sidecars exist for the same span ids but are not compared:
    # they are the non-deterministic half by construction.
    assert set(wall_a) == set(wall_b) == {r["span_id"] for r in spans_a}


def test_repro_spans_variable_no_longer_disables_recording(monkeypatch, tmp_path):
    # Span recording has no off switch: a leftover REPRO_SPANS=0 in the
    # environment changes nothing.
    job = FuzzJob(codename="Comet Lake", seed=5, case_index=0, num_actions=3)
    expected = execute_job(job).spans
    monkeypatch.setenv("REPRO_SPANS", "0")
    result = execute_job(job)
    assert result.spans == expected
    assert [record["kind"] for record in result.spans][0] == "job"
    assert set(result.span_wall) == {record["span_id"] for record in result.spans}
    with EngineSession(executor=SerialExecutor()) as session:
        session.run_jobs([job], cache=False)
        assert len(session.timeline) > 0
        assert "spans" in session.run_manifest()
        trace = session.export_spans(tmp_path / "spans.json")
    assert json.loads(trace.read_text())["traceEvents"]


@dataclass(frozen=True)
class InstrumentedJob(JobSpec):
    """Observes a worker-side histogram with deterministic values."""

    kind: ClassVar[str] = "instrumented-span"

    name: str
    seed: int = 0

    def seed_path(self) -> Tuple[str, ...]:
        return ("instrumented-span", self.name)

    def run(self, telemetry) -> Dict[str, Any]:
        histogram = telemetry.registry.histogram("test.latency")
        stream = self.stream().child("values")
        for _ in range(5):
            histogram.observe(stream.rng().random())
        return {"name": self.name}


def test_worker_histograms_survive_the_process_boundary():
    """Percentile columns are no longer serial-only."""
    jobs = [InstrumentedJob(name=name) for name in ("a", "bb", "ccc")]

    def histograms(executor):
        with EngineSession(executor=executor) as session:
            session.run_jobs(jobs, cache=False)
            registry = session.telemetry.registry
            return {h.name: h.marshal() for h in registry.histograms()}

    serial_hists = histograms(SerialExecutor())
    process_hists = histograms(ParallelExecutor(2))
    assert serial_hists["test.latency"]["count"] == 15
    assert serial_hists == process_hists


def test_histogram_marshal_merge_matches_direct_observation():
    direct = Registry().histogram("h")
    left = Registry().histogram("h")
    right = Registry().histogram("h")
    for value in (1.0, 5.0, 2.5):
        direct.observe(value)
        left.observe(value)
    for value in (9.0, 0.5):
        direct.observe(value)
        right.observe(value)
    merged = Registry().histogram("h")
    merged.merge(left.marshal())
    merged.merge(right.marshal())
    assert merged.count == direct.count
    assert merged.mean == direct.mean
    assert merged.stddev() == direct.stddev()
    assert (merged.min, merged.max) == (direct.min, direct.max)
    for q in (50.0, 95.0):
        assert merged.percentile(q) == direct.percentile(q)
    # Merging an empty snapshot is a no-op.
    merged.merge(Registry().histogram("h").marshal())
    assert merged.count == direct.count


def test_wall_registry_holds_only_per_kind_latency_histograms():
    jobs = [FuzzJob(codename="Sky Lake", seed=5, case_index=0, num_actions=3)]
    with EngineSession(executor=SerialExecutor()) as session:
        session.run_jobs(jobs, cache=False)
        wall = session.wall_registry
    assert list(wall.counters()) == []
    assert [h.name for h in wall.histograms()] == [
        "engine.wall.exec.fuzz",
        "engine.wall.queue_wait.fuzz",
    ]
    assert all(h.count == 1 for h in wall.histograms())


def test_registry_records_and_serves_span_timelines(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path / "registry"))
    jobs = [FuzzJob(codename="Sky Lake", seed=5, case_index=0, num_actions=3)]
    with EngineSession(executor=SerialExecutor()) as session:
        session.run_jobs(jobs, cache=False)
        run_id = session.record_run()
        timeline = session.timeline
    assert run_id is not None
    from repro.registry import RunRegistry

    registry = RunRegistry.from_env()
    document = registry.spans_for(run_id)
    assert document is not None
    stored = FleetTimeline.from_dict(document)
    assert stored.deterministic_dict() == timeline.deterministic_dict()
    # Runs recorded without spans simply have none.
    assert registry.spans_for(run_id) != {}

    from repro.cli import main

    capsys.readouterr()
    # Bare `repro spans RUN` prints the stored document itself as JSON.
    assert main(["spans", run_id[:12]]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == document
    assert (
        FleetTimeline.from_dict(printed).deterministic_dict()
        == timeline.deterministic_dict()
    )
    export = tmp_path / "stored.trace.json"
    assert main(["spans", run_id[:12], "--export", str(export)]) == 0
    events = json.loads(export.read_text())
    assert events["traceEvents"]
    # The manifest feeds the report's latency-attribution section.
    from repro.observe import render_markdown

    with EngineSession(executor=SerialExecutor()) as session:
        session.run_jobs(jobs, cache=False)
        report = render_markdown(session.run_manifest())
    assert "Latency attribution (spans)" in report
    assert timeline.trace_id in report
