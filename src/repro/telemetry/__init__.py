"""Observability layer: sim-time metrics and structured event tracing.

The subsystem has three parts:

* :mod:`repro.telemetry.registry` — counters and sim-time histograms;
* :mod:`repro.telemetry.events` — a typed event tracer (spans, instants,
  counter samples) stamped with :meth:`Simulator.now`;
* :mod:`repro.telemetry.export` — deterministic JSONL and Chrome
  ``trace_event`` serializers, so a whole prevention run opens in
  Perfetto or ``chrome://tracing``.

:class:`Telemetry` bundles a registry and an optional tracer.  Every
machine counts into its own registry; pass
``Machine.build(..., telemetry=Telemetry())`` to trace a run as well.
See ``docs/observability.md`` for the event taxonomy.
"""

from repro.telemetry.events import (
    PHASE_COMPLETE,
    PHASE_COUNTER,
    PHASE_INSTANT,
    TraceEvent,
    Tracer,
)
from repro.telemetry.export import (
    EXPORT_FORMATS,
    event_from_dict,
    event_to_dict,
    events_from_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)
from repro.telemetry.hub import NULL_SPANS, Telemetry
from repro.telemetry.registry import Counter, Histogram, Registry

__all__ = [
    "Telemetry",
    "Registry",
    "Counter",
    "Histogram",
    "NULL_SPANS",
    "Tracer",
    "TraceEvent",
    "PHASE_COMPLETE",
    "PHASE_INSTANT",
    "PHASE_COUNTER",
    "EXPORT_FORMATS",
    "event_to_dict",
    "event_from_dict",
    "to_jsonl",
    "events_from_jsonl",
    "to_chrome_trace",
    "write_trace",
]
