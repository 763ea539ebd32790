"""Structured event tracing on the simulated timeline.

The tracer records typed events whose timestamps come from
:meth:`repro.kernel.sim.Simulator.now` — never wall-clock — so two
identical runs produce identical traces.  The phase vocabulary mirrors
the Chrome ``trace_event`` format the exporter targets:

* ``X`` — *complete* event: a span with a start time and a duration
  (an MSR ioctl, a regulator ramp, a poll iteration, a benchmark
  interval);
* ``i`` — *instant* event: a point occurrence (a fault injection, an
  unsafe-state detection, a P-state transition);
* ``C`` — *counter sample*: a named value at a time (the sampled applied
  voltage), rendered as a track chart by Perfetto.

Every event carries a ``track`` — the logical thread it belongs to
(``core0``, ``sim``, ``faults``...) — which the Chrome exporter maps to
a ``tid`` so related events stack on one swimlane.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Phase constants (Chrome trace_event vocabulary).
PHASE_COMPLETE = "X"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes
    ----------
    name:
        Event type, dotted by subsystem (``msr.read``, ``regulator.ramp``,
        ``countermeasure.detection``...).
    category:
        Coarse grouping used for filtering in trace viewers (``msr``,
        ``ocm``, ``regulator``, ``pstate``, ``fault``, ``countermeasure``,
        ``sim``, ``bench``, ``voltage``).
    phase:
        One of :data:`PHASE_COMPLETE`, :data:`PHASE_INSTANT`,
        :data:`PHASE_COUNTER`.
    time_s:
        Simulation time of the event start, seconds.
    duration_s:
        Span length for complete events, seconds (0 otherwise).
    track:
        Logical thread the event belongs to (exported as ``tid``).
    args:
        JSON-safe payload (offsets in mV, addresses, counts...).
    """

    name: str
    category: str
    phase: str
    time_s: float
    duration_s: float = 0.0
    track: str = "main"
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def args_dict(self) -> Dict[str, Any]:
        """The payload as a plain dict."""
        return dict(self.args)


def _freeze_args(args: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Sort payload keys so event equality and export are deterministic."""
    return tuple(sorted(args.items()))


class Tracer:
    """Appending recorder of :class:`TraceEvent` objects.

    Instrumented components bind the tracer once at construction; an
    untraced :class:`~repro.telemetry.Telemetry` holds ``None`` instead,
    and each emitter tests ``tracer is not None`` before building an
    event, so an untraced run costs one identity test per potential event.

    ``max_events`` bounds the recorder to a ring of the most recent
    events (the flight-recorder mode of :mod:`repro.observe`): recording
    stays O(1) and memory stays constant however long the run, at the
    price of forgetting the oldest events.  The default ``None`` keeps
    everything, which is what trace exports want.
    """

    def __init__(self, *, max_events: Optional[int] = None) -> None:
        self.max_events = max_events
        self._events: Any = [] if max_events is None else deque(maxlen=max_events)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """All recorded events, in emission order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def instant(
        self, name: str, category: str, time_s: float, *, track: str = "main", **args: Any
    ) -> None:
        """Record a point event at ``time_s``."""
        self._events.append(
            TraceEvent(
                name=name,
                category=category,
                phase=PHASE_INSTANT,
                time_s=time_s,
                track=track,
                args=_freeze_args(args),
            )
        )

    def complete(
        self,
        name: str,
        category: str,
        time_s: float,
        duration_s: float,
        *,
        track: str = "main",
        **args: Any,
    ) -> None:
        """Record a span starting at ``time_s`` lasting ``duration_s``."""
        self._events.append(
            TraceEvent(
                name=name,
                category=category,
                phase=PHASE_COMPLETE,
                time_s=time_s,
                duration_s=duration_s,
                track=track,
                args=_freeze_args(args),
            )
        )

    def counter_sample(
        self, name: str, category: str, time_s: float, value: float, *, track: str = "main"
    ) -> None:
        """Record a counter-track sample (rendered as a chart by Perfetto)."""
        self._events.append(
            TraceEvent(
                name=name,
                category=category,
                phase=PHASE_COUNTER,
                time_s=time_s,
                track=track,
                args=(("value", value),),
            )
        )

    def events_by_category(self, category: str) -> Tuple[TraceEvent, ...]:
        """All events in one category, in emission order."""
        return tuple(e for e in self._events if e.category == category)

    def events_by_name(self, name: str) -> Tuple[TraceEvent, ...]:
        """All events with one name, in emission order."""
        return tuple(e for e in self._events if e.name == name)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
