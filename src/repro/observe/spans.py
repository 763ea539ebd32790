"""Distributed span tracing across the campaign fleet.

A campaign is a tree of work — campaign → batch → job attempt → named
phases — and once jobs cross the process-pool boundary the session can
no longer see where their time went.  This module restores that
visibility with explicit trace-context propagation:

* :class:`SpanContext` — the (trace id, parent span id) pair the session
  hands each shipped attempt.  Its :meth:`~SpanContext.to_envelope`
  serialization is a flat ``str -> str`` mapping, deliberately shaped
  like HTTP headers: the multi-host campaign service (ROADMAP item 3)
  will put exactly these keys on the wire.
* :class:`SpanRecorder` — the worker-side buffer.  ``execute_job`` opens
  a job span per attempt, job code marks named phases through
  ``telemetry.spans``, and the finished buffer rides home inside the
  :class:`~repro.engine.jobs.JobResult`.
* :class:`FleetTimeline` — the session-side merge.  Batches graft their
  workers' buffers in *input order* (never completion order), so the
  merged tree is identical whichever executor ran the jobs.
* :data:`repro.telemetry.NULL_SPANS` — the shared no-op recorder of
  every telemetry handle outside a job attempt.

Determinism contract (the PR-4 profiler contract, extended): every field
in a span *record* is simulation-time or identity-derived —
byte-identical between :class:`~repro.engine.executors.SerialExecutor`
and :class:`~repro.engine.executors.ParallelExecutor` for the same
campaign.  Wall-clock measurements (start timestamps, durations, queue
wait, worker pids) live exclusively in a separate *wall sidecar* keyed
by span id, and every surface that renders them labels them
non-deterministic.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.events import PHASE_COMPLETE, TraceEvent

#: Bumped whenever the span record layout or envelope keys change.
SPAN_SCHEMA_VERSION = 1

#: The span-context envelope keys — the future HTTP header names of the
#: multi-host campaign protocol (ROADMAP item 3).
ENVELOPE_TRACE_KEY = "repro-trace-id"
ENVELOPE_PARENT_KEY = "repro-parent-id"
ENVELOPE_SCHEMA_KEY = "repro-span-schema"

#: Span kinds, root to leaf.  ``attempt`` marks a failed try that was
#: retried/quarantined; the succeeding try is the ``job`` span.
SPAN_KINDS = ("campaign", "batch", "job", "phase", "attempt")

#: Span id of the (single) campaign root span.
CAMPAIGN_SPAN_ID = "campaign"

#: Separator keeping ("a","bc") and ("ab","c") on distinct trace ids.
_DERIVE_SEPARATOR = "\x1f"


def derive_trace_id(*parts: str) -> str:
    """A deterministic trace id from identity material (fingerprints).

    Pure content hash — two runs of the same campaign share a trace id,
    which is exactly what lets their exported timelines be diffed byte
    for byte.
    """
    blob = _DERIVE_SEPARATOR.join(("repro-trace",) + parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class SpanContext:
    """The propagated trace position: which trace, which parent span."""

    trace_id: str
    parent_id: str

    def to_envelope(self) -> Dict[str, str]:
        """Serialize as a flat string mapping (the wire format)."""
        return {
            ENVELOPE_TRACE_KEY: self.trace_id,
            ENVELOPE_PARENT_KEY: self.parent_id,
            ENVELOPE_SCHEMA_KEY: str(SPAN_SCHEMA_VERSION),
        }

    @classmethod
    def from_envelope(cls, envelope: Mapping[str, str]) -> "SpanContext":
        """Parse an envelope produced by :meth:`to_envelope`.

        Key lookup is case-insensitive (HTTP header semantics); a newer
        schema number is rejected rather than misread.
        """
        lowered = {str(k).lower(): str(v) for k, v in envelope.items()}
        schema = int(lowered.get(ENVELOPE_SCHEMA_KEY, SPAN_SCHEMA_VERSION))
        if schema > SPAN_SCHEMA_VERSION:
            raise ConfigurationError(
                f"span envelope schema {schema} is newer than supported "
                f"{SPAN_SCHEMA_VERSION}"
            )
        try:
            return cls(
                trace_id=lowered[ENVELOPE_TRACE_KEY],
                parent_id=lowered[ENVELOPE_PARENT_KEY],
            )
        except KeyError as error:
            raise ConfigurationError(
                f"span envelope is missing {error.args[0]!r}"
            ) from error


def job_span_id(fingerprint: str, attempt: int) -> str:
    """The deterministic span id of one job attempt."""
    return f"{fingerprint[:12]}/a{attempt}"


def _record(
    span_id: str,
    parent_id: str,
    trace_id: str,
    name: str,
    kind: str,
    *,
    sim_start_s: float = 0.0,
    sim_end_s: float = 0.0,
    status: str = "ok",
    attrs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One deterministic span record (no wall-clock fields, ever)."""
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id,
        "name": name,
        "kind": kind,
        "sim_start_s": float(sim_start_s),
        "sim_end_s": float(sim_end_s),
        "status": status,
        "attrs": dict(attrs or {}),
    }


def _sim_duration(record: Mapping[str, Any]) -> float:
    return max(0.0, record["sim_end_s"] - record["sim_start_s"])


class _PhaseHandle:
    """Context manager for one named phase inside a job span.

    ``sim_start_s``/``end_sim`` are simulation-clock seconds the
    instrumented code sets (``handle.end_sim = machine.now``); wall
    timing is captured automatically into the recorder's sidecar.
    """

    __slots__ = ("name", "sim_start_s", "end_sim", "_recorder", "_wall_start")

    def __init__(self, recorder: "SpanRecorder", name: str, sim_start_s: float) -> None:
        self.name = name
        self.sim_start_s = float(sim_start_s)
        #: Simulation time at phase end; ``None`` means "no sim clock
        #: advanced" and the phase records zero sim duration.
        self.end_sim: Optional[float] = None
        self._recorder = recorder
        self._wall_start = 0.0

    def __enter__(self) -> "_PhaseHandle":
        self._wall_start = time.monotonic()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self._recorder._finish_phase(self, failed=exc_type is not None)
        return False


class SpanRecorder:
    """Worker-side span buffer for one job attempt.

    ``execute_job`` opens the job span (:meth:`begin_job`), job code
    marks phases via ``telemetry.spans.phase(...)``, and the closed
    buffer (:meth:`export`) travels home in the
    :class:`~repro.engine.jobs.JobResult`.  Records are purely
    sim-time/identity data; wall clocks land in the sidecar only.
    """

    def __init__(self) -> None:
        self._trace_id = ""
        self._parent_id = ""
        self._root_id = ""
        self._name = ""
        self._attempt = 1
        self._fingerprint = ""
        self._status = "ok"
        self._phases: List[Dict[str, Any]] = []
        self._wall: Dict[str, Dict[str, Any]] = {}

    def begin_job(
        self,
        *,
        fingerprint: str,
        kind: str,
        attempt: int = 1,
        context: Optional[SpanContext] = None,
    ) -> str:
        """Open the job span; returns its deterministic span id.

        Without a propagated ``context`` (a job executed outside a
        session batch) the trace id derives from the fingerprint alone
        and the span is a root.
        """
        self._fingerprint = fingerprint
        self._name = kind
        self._attempt = int(attempt)
        if context is not None:
            self._trace_id = context.trace_id
            self._parent_id = context.parent_id
        else:
            self._trace_id = derive_trace_id(fingerprint)
            self._parent_id = ""
        self._root_id = job_span_id(fingerprint, self._attempt)
        self._wall[self._root_id] = {
            "start_monotonic_s": time.monotonic(),
            "start_unix_s": time.time(),
            "pid": os.getpid(),
        }
        return self._root_id

    def phase(self, name: str, *, sim_start_s: float = 0.0) -> _PhaseHandle:
        """A context manager marking one named phase of the job.

        The caller sets ``handle.end_sim`` to the simulation clock at
        phase end (``machine.now``); leaving it unset records a
        zero-sim-duration phase (pure-arithmetic work with no machine).
        """
        return _PhaseHandle(self, name, sim_start_s)

    def _finish_phase(self, handle: _PhaseHandle, *, failed: bool) -> None:
        ordinal = len(self._phases)
        parent = self._root_id or ""
        span_id = f"{parent}/p{ordinal}" if parent else f"p{ordinal}"
        end_sim = handle.end_sim if handle.end_sim is not None else handle.sim_start_s
        self._phases.append(
            _record(
                span_id,
                parent,
                self._trace_id,
                handle.name,
                "phase",
                sim_start_s=handle.sim_start_s,
                sim_end_s=end_sim,
                status="error" if failed else "ok",
            )
        )
        now = time.monotonic()
        self._wall[span_id] = {
            "start_monotonic_s": handle._wall_start,
            "duration_s": max(0.0, now - handle._wall_start),
            "pid": os.getpid(),
        }

    def finish_job(self, status: str = "ok") -> None:
        """Close the job span (sim duration = sum of phase durations)."""
        self._status = status
        entry = self._wall.get(self._root_id)
        if entry is not None and "duration_s" not in entry:
            entry["duration_s"] = max(
                0.0, time.monotonic() - entry["start_monotonic_s"]
            )

    def export(self) -> Tuple[List[Dict[str, Any]], Dict[str, Dict[str, Any]]]:
        """The (records, wall sidecar) pair shipped in the job result.

        The job span comes first, then its phases in the order they
        closed — a deterministic order for a deterministic job.
        """
        records: List[Dict[str, Any]] = []
        if self._root_id:
            sim_end = sum(_sim_duration(p) for p in self._phases)
            records.append(
                _record(
                    self._root_id,
                    self._parent_id,
                    self._trace_id,
                    self._name,
                    "job",
                    sim_end_s=sim_end,
                    status=self._status,
                    attrs={
                        "attempt": self._attempt,
                        "fingerprint": self._fingerprint,
                    },
                )
            )
        records.extend(self._phases)
        return records, dict(self._wall)


def note_queue_wait(
    spans: Sequence[Dict[str, Any]],
    wall: Dict[str, Dict[str, Any]],
    submitted_monotonic_s: float,
) -> None:
    """Record queue wait into a landed result's wall sidecar.

    The executor timestamps submission in the parent; the worker
    timestamped the job span's start.  ``CLOCK_MONOTONIC`` is
    system-wide on the platforms the pool runs on, so the difference is
    the time the attempt spent queued before a worker picked it up.
    Wall-clock only — never touches the deterministic records.
    """
    for record in spans:
        if record.get("kind") != "job":
            continue
        entry = wall.get(record["span_id"])
        if entry is not None and "start_monotonic_s" in entry:
            entry["queue_wait_s"] = max(
                0.0, entry["start_monotonic_s"] - submitted_monotonic_s
            )
        return


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


class FleetTimeline:
    """The session-side merge of every worker's span buffers.

    One timeline per :class:`~repro.engine.session.EngineSession`:
    ``begin_batch`` opens a batch span and returns the
    :class:`SpanContext` shipped with every attempt; ``end_batch``
    grafts the returned buffers *in input order* plus a deterministic
    record per failed attempt.  The result: a span tree whose records
    are byte-identical whichever executor ran the campaign, with every
    wall-clock measurement segregated in :attr:`wall`.
    """

    def __init__(self) -> None:
        self.trace_id: Optional[str] = None
        self._spans: List[Dict[str, Any]] = []
        #: span id → wall-clock sidecar entry (labelled non-deterministic).
        self.wall: Dict[str, Dict[str, Any]] = {}
        self._by_id: Dict[str, Dict[str, Any]] = {}
        self._batches = 0

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def spans(self) -> Tuple[Dict[str, Any], ...]:
        """The deterministic span records, tree order (campaign first)."""
        return tuple(self._spans)

    @property
    def batches(self) -> int:
        return self._batches

    def _append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        self._spans.append(record)
        self._by_id.setdefault(record["span_id"], record)
        return record

    # -- recording ---------------------------------------------------------------

    def begin_batch(self, fingerprints: Sequence[str]) -> SpanContext:
        """Open a batch span; returns the context shipped to workers.

        The trace id derives from the first batch's ordered job
        fingerprints — pure identity, so reruns share it.
        """
        if self.trace_id is None:
            self.trace_id = derive_trace_id(*fingerprints)
            self._append(
                _record(
                    CAMPAIGN_SPAN_ID, "", self.trace_id, "campaign", "campaign"
                )
            )
            self.wall[CAMPAIGN_SPAN_ID] = {
                "start_monotonic_s": time.monotonic(),
                "start_unix_s": time.time(),
                "pid": os.getpid(),
            }
        batch_id = f"batch-{self._batches}"
        self._batches += 1
        self._append(
            _record(
                batch_id,
                CAMPAIGN_SPAN_ID,
                self.trace_id,
                batch_id,
                "batch",
                attrs={"jobs": len(fingerprints)},
            )
        )
        self.wall[batch_id] = {
            "start_monotonic_s": time.monotonic(),
            "pid": os.getpid(),
        }
        return SpanContext(trace_id=self.trace_id, parent_id=batch_id)

    def end_batch(
        self,
        context: SpanContext,
        results: Sequence[Any],
        *,
        failures: Iterable[Dict[str, Any]] = (),
        wall_s: Optional[float] = None,
    ) -> None:
        """Graft one finished batch: worker buffers + failed attempts.

        ``results`` are :class:`~repro.engine.jobs.JobResult`-shaped (in
        input order); ``failures`` are the executor's failed-attempt
        records, sorted here by (fingerprint, attempt) so their order
        never depends on parallel completion interleaving.
        """
        batch_id = context.parent_id
        sim_total = 0.0
        for result in results:
            for record in getattr(result, "spans", ()) or ():
                grafted = self._append(dict(record))
                if grafted["kind"] == "job":
                    sim_total += _sim_duration(grafted)
            self.wall.update(getattr(result, "span_wall", None) or {})
        for failure in sorted(
            failures, key=lambda f: (f.get("fingerprint", ""), f.get("attempt", 0))
        ):
            fingerprint = failure.get("fingerprint", "")
            attempt = int(failure.get("attempt", 1))
            self._append(
                _record(
                    job_span_id(fingerprint, attempt),
                    batch_id,
                    self.trace_id or "",
                    failure.get("kind", "job"),
                    "attempt",
                    status="error",
                    attrs={
                        "attempt": attempt,
                        "error_type": failure.get("error_type", ""),
                        "fingerprint": fingerprint,
                    },
                )
            )
        batch = self._by_id.get(batch_id)
        if batch is not None:
            batch["sim_end_s"] = batch["sim_start_s"] + sim_total
        campaign = self._by_id.get(CAMPAIGN_SPAN_ID)
        if campaign is not None:
            campaign["sim_end_s"] += sim_total
        entry = self.wall.get(batch_id)
        if entry is not None:
            entry["duration_s"] = (
                float(wall_s)
                if wall_s is not None
                else max(0.0, time.monotonic() - entry["start_monotonic_s"])
            )
        root_entry = self.wall.get(CAMPAIGN_SPAN_ID)
        if root_entry is not None:
            root_entry["duration_s"] = max(
                0.0, time.monotonic() - root_entry["start_monotonic_s"]
            )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump: deterministic records + the ``wall`` sidecar.

        Everything outside the ``wall`` key is byte-identical across
        executors; ``wall`` is the labelled non-deterministic sidecar.
        """
        payload = self.deterministic_dict()
        payload["wall"] = {k: dict(v) for k, v in self.wall.items()}
        return payload

    def deterministic_dict(self) -> Dict[str, Any]:
        """The dump without the wall sidecar — the byte-identity surface."""
        return {
            "kind": "span-timeline",
            "schema": SPAN_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "batches": self._batches,
            "spans": [dict(record) for record in self._spans],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FleetTimeline":
        """Rebuild a timeline recorded by :meth:`to_dict`."""
        if payload.get("kind") != "span-timeline":
            raise ConfigurationError(
                f"not a span timeline: kind={payload.get('kind')!r}"
            )
        schema = int(payload.get("schema", 0))
        if schema > SPAN_SCHEMA_VERSION:
            raise ConfigurationError(
                f"span timeline schema {schema} is newer than supported "
                f"{SPAN_SCHEMA_VERSION}"
            )
        timeline = cls()
        timeline.trace_id = payload.get("trace_id")
        timeline._batches = int(payload.get("batches", 0))
        for record in payload.get("spans", []):
            timeline._append(dict(record))
        timeline.wall = {
            str(k): dict(v) for k, v in (payload.get("wall") or {}).items()
        }
        return timeline

    # -- exports -----------------------------------------------------------------

    def _children(self) -> Dict[str, List[Dict[str, Any]]]:
        children: Dict[str, List[Dict[str, Any]]] = {}
        for record in self._spans:
            children.setdefault(record["parent_id"], []).append(record)
        return children

    def to_events(self) -> List[TraceEvent]:
        """The merged timeline as Chrome-trace events (sim time only).

        Jobs are laid out *serialized*: consecutive sim intervals in
        input order, so the fleet's total sim work reads as one
        contiguous track and the export is byte-identical across
        executors (a wall-clock lane layout lives in
        :meth:`wall_events` instead).
        """
        children = self._children()
        layout: Dict[str, Tuple[float, float]] = {}
        cursor = 0.0
        for batch in children.get(CAMPAIGN_SPAN_ID, []):
            batch_start = cursor
            for child in children.get(batch["span_id"], []):
                if child["kind"] == "attempt":
                    layout[child["span_id"]] = (cursor, 0.0)
                    continue
                job_start = cursor
                phase_cursor = job_start
                for phase in children.get(child["span_id"], []):
                    duration = _sim_duration(phase)
                    layout[phase["span_id"]] = (phase_cursor, duration)
                    phase_cursor += duration
                duration = _sim_duration(child)
                layout[child["span_id"]] = (job_start, duration)
                cursor = job_start + duration
            layout[batch["span_id"]] = (batch_start, cursor - batch_start)
        layout[CAMPAIGN_SPAN_ID] = (0.0, cursor)
        events: List[TraceEvent] = []
        for record in self._spans:
            start, duration = layout.get(record["span_id"], (0.0, 0.0))
            args = dict(record["attrs"])
            args["span_id"] = record["span_id"]
            args["status"] = record["status"]
            events.append(
                TraceEvent(
                    name=record["name"],
                    category=record["kind"],
                    phase=PHASE_COMPLETE,
                    time_s=start,
                    duration_s=duration,
                    track="fleet-sim",
                    args=tuple(sorted(args.items())),
                )
            )
        return events

    def wall_events(self) -> List[TraceEvent]:
        """The wall-clock lane layout: one track per worker pid.

        Non-deterministic by nature (real scheduling); exported
        separately from :meth:`to_events` so the deterministic trace
        stays byte-comparable.
        """
        starts = [
            entry["start_monotonic_s"]
            for entry in self.wall.values()
            if "start_monotonic_s" in entry
        ]
        if not starts:
            return []
        origin = min(starts)
        events: List[TraceEvent] = []
        for record in self._spans:
            entry = self.wall.get(record["span_id"])
            if entry is None or "start_monotonic_s" not in entry:
                continue
            args = {
                "span_id": record["span_id"],
                "kind": record["kind"],
                "status": record["status"],
            }
            if "queue_wait_s" in entry:
                args["queue_wait_s"] = entry["queue_wait_s"]
            events.append(
                TraceEvent(
                    name=record["name"],
                    category="wall",
                    phase=PHASE_COMPLETE,
                    time_s=max(0.0, entry["start_monotonic_s"] - origin),
                    duration_s=float(entry.get("duration_s", 0.0)),
                    track=f"pid-{entry.get('pid', '?')}",
                    args=tuple(sorted(args.items())),
                )
            )
        return events

    # -- analysis ----------------------------------------------------------------

    def latency(self) -> Dict[str, Dict[str, Any]]:
        """Per-job-kind wall latency attribution (non-deterministic).

        For each kind: job count, queue-wait and execute-time p50/p95/max
        from the wall sidecar.  Queue wait only exists where an executor
        timestamped the submission (the serial path reports ~0).
        """
        queue: Dict[str, List[float]] = {}
        execute: Dict[str, List[float]] = {}
        for record in self._spans:
            if record["kind"] != "job":
                continue
            entry = self.wall.get(record["span_id"])
            if entry is None:
                continue
            kind = record["name"]
            if "duration_s" in entry:
                execute.setdefault(kind, []).append(float(entry["duration_s"]))
            if "queue_wait_s" in entry:
                queue.setdefault(kind, []).append(float(entry["queue_wait_s"]))
        summary: Dict[str, Dict[str, Any]] = {}
        for kind in sorted(set(queue) | set(execute)):
            waits = queue.get(kind, [])
            execs = execute.get(kind, [])
            summary[kind] = {
                "jobs": len(execs) or len(waits),
                "queue_wait_s": {
                    "p50": _percentile(waits, 50),
                    "p95": _percentile(waits, 95),
                    "max": max(waits) if waits else 0.0,
                },
                "exec_s": {
                    "p50": _percentile(execs, 50),
                    "p95": _percentile(execs, 95),
                    "max": max(execs) if execs else 0.0,
                },
            }
        return summary

    def attempts_by_kind(self) -> Dict[str, Dict[str, int]]:
        """Failed-attempt accounting per job kind (deterministic).

        ``retried`` counts every failed attempt span; ``abandoned`` the
        subset whose error was a timeout (the attempt could not be
        preempted and its late result was discarded).
        """
        table: Dict[str, Dict[str, int]] = {}
        for record in self._spans:
            if record["kind"] != "attempt":
                continue
            bucket = table.setdefault(
                record["name"], {"retried": 0, "abandoned": 0}
            )
            bucket["retried"] += 1
            if record["attrs"].get("error_type") == "TimeoutError":
                bucket["abandoned"] += 1
        return table

    def summary(self) -> Dict[str, Any]:
        """Manifest-ready digest: deterministic tree stats + wall latency.

        Everything except the ``wall`` key is deterministic; ``wall``
        carries the latency attribution and is labelled accordingly
        wherever it renders (run reports, ``repro status``).
        """
        by_kind: Dict[str, Dict[str, float]] = {}
        for record in self._spans:
            bucket = by_kind.setdefault(record["kind"], {"spans": 0, "sim_s": 0.0})
            bucket["spans"] += 1
            bucket["sim_s"] += _sim_duration(record)
        return {
            "schema": SPAN_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "batches": self._batches,
            "spans": len(self._spans),
            "by_kind": {k: dict(v) for k, v in sorted(by_kind.items())},
            "attempts": self.attempts_by_kind(),
            "wall": self.latency(),
        }

    def render(self) -> str:
        """Human-readable digest for ``repro spans``."""
        lines = [
            f"trace {self.trace_id or '(empty)'}  "
            f"spans={len(self._spans)} batches={self._batches}"
        ]
        summary = self.summary()
        for kind, bucket in summary["by_kind"].items():
            lines.append(
                f"  {kind:10s} spans={int(bucket['spans']):5d} "
                f"sim={bucket['sim_s']:.6g}s"
            )
        latency = summary["wall"]
        if latency:
            lines.append("  wall latency (non-deterministic):")
            for kind, stats in latency.items():
                queue_wait = stats["queue_wait_s"]
                exec_s = stats["exec_s"]
                lines.append(
                    f"    {kind:22s} jobs={stats['jobs']:4d} "
                    f"queue p50={queue_wait['p50']:.4f}s "
                    f"p95={queue_wait['p95']:.4f}s "
                    f"exec p50={exec_s['p50']:.4f}s "
                    f"p95={exec_s['p95']:.4f}s"
                )
        attempts = summary["attempts"]
        if attempts:
            lines.append("  failed attempts:")
            for kind, bucket in sorted(attempts.items()):
                lines.append(
                    f"    {kind:22s} retried={bucket['retried']} "
                    f"abandoned={bucket['abandoned']}"
                )
        return "\n".join(lines)
