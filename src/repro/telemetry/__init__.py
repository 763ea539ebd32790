"""Observability layer: sim-time metrics and structured event tracing.

The subsystem has three parts:

* :mod:`repro.telemetry.registry` — counters and sim-time histograms
  with a no-op fast path when disabled;
* :mod:`repro.telemetry.events` — a typed event tracer (spans, instants,
  counter samples) stamped with :meth:`Simulator.now`;
* :mod:`repro.telemetry.export` — deterministic JSONL and Chrome
  ``trace_event`` serializers, so a whole prevention run opens in
  Perfetto or ``chrome://tracing``.

:class:`Telemetry` bundles a registry and a tracer; pass one to
``Machine.build(..., telemetry=Telemetry())`` to instrument a run.  See
``docs/observability.md`` for the event taxonomy.
"""

from repro.telemetry.events import (
    NULL_TRACER,
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
from repro.telemetry.hub import NULL_SPANS, NULL_TELEMETRY, Telemetry
from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Histogram,
    Registry,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Registry",
    "Counter",
    "Histogram",
    "NULL_REGISTRY",
    "NULL_COUNTER",
    "NULL_HISTOGRAM",
    "NULL_SPANS",
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
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
