"""The :class:`Telemetry` facade: one handle for metrics + tracing.

A :class:`~repro.testbench.Machine` owns exactly one ``Telemetry``; every
instrumented component (the event simulator, the MSR driver, the
processor's OCM/P-state hooks, the per-core voltage regulators, the
fault injector, the polling module, the bench runner) receives it at
construction and binds its instruments once.  Every ``Telemetry`` holds
a real :class:`~repro.telemetry.Registry`; its tracer is a
:class:`~repro.telemetry.Tracer`, or ``None`` for ``max_events=0``.  A
component built without one makes a fresh ``Telemetry(max_events=0)``
of its own: exact counters, no events — the shape an engine job runs
under when no flight directory is set.

Timestamps always come from the simulation clock, so tracing never
perturbs the simulated timeline: two runs of the same seeded scenario,
one traced and one not, see identical physics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.telemetry.events import Tracer
from repro.telemetry.export import write_trace
from repro.telemetry.registry import Registry


class _NullPhase:
    """Shared no-op phase handle (accepts ``end_sim`` writes, keeps nothing)."""

    __slots__ = ("end_sim",)

    def __init__(self) -> None:
        self.end_sim: Optional[float] = None

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


class _NullSpanRecorder:
    """Span recorder that marks nothing: phases are no-op context managers."""

    def phase(self, name: str, *, sim_start_s: float = 0.0) -> _NullPhase:
        """A no-op phase handle."""
        return _NULL_PHASE


_NULL_PHASE = _NullPhase()

#: The shared span recorder of every handle outside a job attempt;
#: ``execute_job`` installs a :class:`repro.observe.spans.SpanRecorder`
#: on the attempt's own handle.
NULL_SPANS = _NullSpanRecorder()


class Telemetry:
    """Bundled metric registry and event tracer for one machine/run.

    ``max_events`` sizes the tracer: ``None`` keeps every event, ``N``
    keeps a ring of the last ``N``, and ``0`` means no tracer at all
    (``tracer is None``), so components skip building events.
    """

    def __init__(self, *, max_events: Optional[int] = None) -> None:
        self.registry = Registry()
        self.tracer: Optional[Tracer] = (
            Tracer(max_events=max_events) if max_events != 0 else None
        )
        #: The span recorder job code marks phases on: the shared no-op
        #: one until ``execute_job`` installs the attempt's recorder.
        self.spans = NULL_SPANS

    def export(self, path: Union[str, Path], *, fmt: str = "chrome") -> Path:
        """Write the recorded trace to ``path`` (``chrome`` or ``jsonl``)."""
        events = self.tracer.events if self.tracer is not None else ()
        return write_trace(path, events, fmt=fmt)

    def render_metrics(self) -> str:
        """Human-readable dump of every counter/histogram."""
        return self.registry.render()

    def __repr__(self) -> str:
        events = len(self.tracer) if self.tracer is not None else None
        return f"Telemetry(events={events})"
