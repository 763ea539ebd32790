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


class Telemetry:
    """Bundled metric registry and event tracer for one machine/run."""

    def __init__(self, *, enabled: bool = True, max_events: Optional[int] = None) -> None:
        self.enabled = enabled
        self.registry: Registry = Registry() if enabled else NULL_REGISTRY
        # A ring of zero events records nothing, so it gets the null
        # tracer: components then skip building events altogether.
        traced = enabled and max_events != 0
        self.tracer: Tracer = Tracer(max_events=max_events) if traced else NULL_TRACER
        # Span recorder, bound lazily: repro.observe imports this module,
        # so the recorder class cannot be imported at module level.
        # ``execute_job`` installs the per-attempt recorder directly; an
        # ad-hoc handle gets one (or the shared null) on first access.
        self._spans = None

    @property
    def spans(self):
        """The span recorder job code marks phases on (never ``None``).

        Disabled telemetry — or ``REPRO_SPANS=0`` — hands out the shared
        no-op recorder, keeping the hot path branch-free.
        """
        if self._spans is None:
            from repro.observe.spans import NULL_SPANS, SpanRecorder, spans_enabled

            self._spans = (
                SpanRecorder() if (self.enabled and spans_enabled()) else NULL_SPANS
            )
        return self._spans

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared disabled instance (no-op instruments, no state)."""
        return NULL_TELEMETRY

    def export(self, path: Union[str, Path], *, fmt: str = "chrome") -> Path:
        """Write the recorded trace to ``path`` (``chrome`` or ``jsonl``)."""
        return write_trace(path, self.tracer.events, fmt=fmt)

    def render_metrics(self) -> str:
        """Human-readable dump of every counter/gauge/histogram."""
        return self.registry.render()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, events={len(self.tracer.events)})"


#: The process-wide disabled telemetry.  Its instruments never mutate, so
#: sharing it across machines cannot leak state between runs.
NULL_TELEMETRY = Telemetry(enabled=False)
