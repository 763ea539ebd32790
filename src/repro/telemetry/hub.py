"""The :class:`Telemetry` facade: one handle for metrics + tracing.

A :class:`~repro.testbench.Machine` owns exactly one ``Telemetry``; every
instrumented component (the event simulator, the MSR driver, the
processor's OCM/P-state hooks, the per-core voltage regulators, the
fault injector, the polling module, the bench runner) receives it at
construction and binds its instruments once.  The default is the shared
:data:`NULL_TELEMETRY`, whose registry hands out no-op instruments and
whose tracer drops events — the disabled fast path the sub-percent
overhead budget of Table 2 requires.

Timestamps always come from the simulation clock, so enabling telemetry
never perturbs the simulated timeline: two runs of the same seeded
scenario, one instrumented and one not, see identical physics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.telemetry.events import NULL_TRACER, Tracer
from repro.telemetry.export import write_trace
from repro.telemetry.registry import NULL_REGISTRY, Registry


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
    """Bundled metric registry and event tracer for one machine/run."""

    def __init__(self, *, enabled: bool = True, max_events: Optional[int] = None) -> None:
        self.enabled = enabled
        self.registry: Registry = Registry() if enabled else NULL_REGISTRY
        # A ring of zero events records nothing, so it gets the null
        # tracer: components then skip building events altogether.
        traced = enabled and max_events != 0
        self.tracer: Tracer = Tracer(max_events=max_events) if traced else NULL_TRACER
        #: The span recorder job code marks phases on: the shared no-op
        #: one until ``execute_job`` installs the attempt's recorder.
        self.spans = NULL_SPANS

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared disabled instance (no-op instruments, no state)."""
        return NULL_TELEMETRY

    def export(self, path: Union[str, Path], *, fmt: str = "chrome") -> Path:
        """Write the recorded trace to ``path`` (``chrome`` or ``jsonl``)."""
        return write_trace(path, self.tracer.events, fmt=fmt)

    def render_metrics(self) -> str:
        """Human-readable dump of every counter/histogram."""
        return self.registry.render()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, events={len(self.tracer.events)})"


#: The process-wide disabled telemetry.  Its instruments never mutate, so
#: sharing it across machines cannot leak state between runs.
NULL_TELEMETRY = Telemetry(enabled=False)
