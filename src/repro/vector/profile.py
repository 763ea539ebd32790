"""Kernel-profiler hook for the vectorized fast path.

The PR-4 :class:`~repro.observe.profiler.SimProfiler` attributes cost per
(component, site) by hooking the event dispatch loop — but the direct-mode
characterization sweep (and its vectorized replacement) never schedules a
simulator event, so there is nothing for ``after_event`` to see.  This
module provides the out-of-band attachment point instead, the
:func:`profiled_kernels` ``with`` block: code on the batch fast path (and
the scalar oracle, for before/after comparisons) checks
:func:`kernel_profiler` and, when one is attached, charges its work to a
named site via ``SimProfiler.record_site``.

The hook is deliberately dependency-free (no repro imports) so that both
``repro.core.characterization`` and ``repro.vector`` can consult it
without creating an import cycle.  Detached, the cost is one module-global
read per row — the same zero-cost-when-disabled contract the simulator
profiler and the verify observers follow.

Site labels used by the batch path (see ``repro.vector.characterization``):

* ``vector.delay`` — V/f curve evaluation and the per-row critical-voltage
  bisection (the alpha-power-law physics);
* ``vector.safety`` — the vectorized violated-fraction / fault-probability
  / crash predicates over the whole offset row;
* ``vector.fault_draw`` — the sequential seeded fault draws for the cells
  whose fault probability is non-zero.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

_kernel_profiler: Optional[Any] = None


def kernel_profiler() -> Optional[Any]:
    """The currently attached profiler, or ``None``."""
    return _kernel_profiler


def record_kernel_site(
    site: str, *, events: int = 1, wall_s: float = 0.0
) -> None:
    """Charge ``events`` units of work to a ``vector`` profiler site.

    Does nothing when no profiler is attached.  Event counts are
    deterministic (they mirror the number of grid cells evaluated);
    wall-clock stays segregated in the profiler's wall sidecar exactly as
    for dispatch-loop events.
    """
    profiler = _kernel_profiler
    if profiler is not None:
        profiler.record_site("vector", site, events=events, wall_s=wall_s)


@contextmanager
def profiled_kernels(profiler: Any) -> Iterator[Any]:
    """Attach ``profiler`` for the duration of a ``with`` block.

    The only way to attach a kernel profiler; blocks nest, and the
    enclosing block's profiler (or none) is restored on exit.
    """
    global _kernel_profiler
    previous = _kernel_profiler
    _kernel_profiler = profiler
    try:
        yield profiler
    finally:
        _kernel_profiler = previous
