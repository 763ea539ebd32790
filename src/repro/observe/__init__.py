"""repro.observe — profiling, post-mortems, spans, run reports.

The observability layer that rides on :mod:`repro.telemetry` without
perturbing the simulation:

* :class:`SimProfiler` — attributes the discrete-event dispatch loop's
  work (events, sim-time, wall-time) per component/site and exports
  deterministic collapsed-stack and speedscope flamegraphs;
* :class:`FlightRecorder` — freezes the last N trace events into a
  replayable JSONL dump when an invariant trips, a machine check fires,
  or an exception escapes a campaign job;
* :func:`render_markdown` — the ``repro runs show`` view of a recorded
  run manifest;
* :mod:`repro.observe.spans` — the fleet-wide span model: deterministic
  sim-time spans propagated through worker processes and merged into a
  :class:`FleetTimeline`, with wall clocks segregated to a sidecar.
"""

from repro.observe.flight import (
    FLIGHT_DIR_ENV,
    FLIGHT_SCHEMA_VERSION,
    FlightDump,
    FlightRecorder,
    dump_job_failure,
    dump_quarantine,
    flight_dir_from_env,
    is_flight_dump,
    load_flight_dump,
)
from repro.observe.profiler import (
    PROFILE_SCHEMA_VERSION,
    ProfileBucket,
    SimProfiler,
    resolve_site,
)
from repro.observe.report import (
    REPORT_SCHEMA_VERSION,
    load_manifest,
    render_markdown,
)
from repro.observe.spans import (
    SPAN_SCHEMA_VERSION,
    FleetTimeline,
    SpanContext,
    SpanRecorder,
    derive_trace_id,
    job_span_id,
    note_queue_wait,
)
from repro.telemetry import NULL_SPANS

__all__ = [
    "FLIGHT_DIR_ENV",
    "FLIGHT_SCHEMA_VERSION",
    "FleetTimeline",
    "FlightDump",
    "FlightRecorder",
    "NULL_SPANS",
    "PROFILE_SCHEMA_VERSION",
    "ProfileBucket",
    "REPORT_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION",
    "SimProfiler",
    "SpanContext",
    "SpanRecorder",
    "derive_trace_id",
    "dump_job_failure",
    "dump_quarantine",
    "flight_dir_from_env",
    "is_flight_dump",
    "job_span_id",
    "load_flight_dump",
    "load_manifest",
    "note_queue_wait",
    "render_markdown",
    "resolve_site",
]
