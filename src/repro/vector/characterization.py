"""The vectorized Algo 2 row: numpy fast path, byte-identical cells.

:func:`run_row_batch` reproduces
:meth:`repro.core.characterization.CharacterizationFramework.run_row`
exactly — same :class:`~repro.core.unsafe_states.CellResult` list, same
telemetry counter totals, same trace events, same random stream
consumption — while evaluating the physics for the whole offset row in
three vectorized phases instead of ~300 scalar object pipelines:

1. ``vector.delay`` — the factory V/f curve over the offset array plus
   the one critical-voltage bisection the row needs (cached per
   frequency by the fault model, exactly as in the scalar path);
2. ``vector.safety`` — violated fraction, per-op fault probability and
   crash verdict for every offset at once (:func:`repro.vector.kernels.fault_grid`);
3. ``vector.fault_draw`` — the sequential seeded draws.

Phase 3 is the reason byte-identity is cheap: the scalar fault injector
consumes random state *only* for windows with a non-zero fault
probability (a crash raises before any draw, and safe cells skip the
binomial entirely), so the generator stream the scalar path threads
through a row touches only the narrow fault band — typically a few dozen
cells out of three hundred.  Replaying exactly that consumption — one
``binomial(ops, p)`` per faultable window, then per faulting window the
state advance of ``choice(ops, size=k, replace=False)`` followed by
``k = min(count, 16)`` bit picks ``integers(0, 64)`` — on the row's
named seed stream reproduces the scalar cells bit for bit without
materialising any ``WindowOutcome``/``ImulRunReport``/``FaultEvent``
objects.

The positions and bits themselves are never stored in a cell, so the
faulting window's draws collapse into one bounded-integer call
(:func:`_window_draw_bounds`).  numpy's ``Generator`` draws every one of
those numbers with the same per-element Lemire bounded draw: Floyd's
algorithm inside ``choice`` draws from ``[0, j]`` for
``j = ops-k … ops-1``, its shuffle from ``[0, i]`` for ``i = k-1 … 1``,
and the bit picks from ``[0, 63]`` — so ``integers(0, bounds)`` over
those exclusive upper bounds consumes the bit generator identically,
including PCG64's buffered 32-bit half-word.
``tests/test_vector_identity.py::TestGeneratorEquivalencePins`` pins that
equivalence against the real ``choice`` + ``integers`` pair.

The draw structure above mirrors ``FaultInjector.run_window`` +
``ImulLoop.run``; the scalar-vs-vector fuzz suite
(``tests/test_vector_identity.py``) is the executable proof that it stays
in lockstep.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.unsafe_states import CellResult
from repro.faults.margin import FaultModel
from repro.telemetry import Telemetry
from repro.vector.kernels import effective_voltage_grid, fault_grid
from repro.vector.profile import record_kernel_site

#: Mirrors the ``max_recorded_events`` default of
#: :class:`repro.faults.injector.FaultInjector` — the cap on concrete
#: bit-flip events (and hence per-window ``integers(0, 64)`` draws) the
#: scalar path materialises.  Guarded by the identity suite.
MAX_RECORDED_EVENTS = 16

_DRAW_BOUNDS: Dict[Tuple[int, int], np.ndarray] = {}


def _window_draw_bounds(iterations: int, recorded: int) -> np.ndarray:
    """Exclusive upper bounds of one faulting window's bounded draws.

    ``rng.integers(0, bounds)`` advances the generator exactly as
    ``rng.choice(iterations, size=recorded, replace=False)`` followed by
    ``rng.integers(0, 64, size=recorded)``: Floyd's draws from
    ``[0, j]`` for ``j = iterations-recorded … iterations-1``, the
    shuffle's draws from ``[0, i]`` for ``i = recorded-1 … 1``, then the
    ``recorded`` bit picks from ``[0, 63]``.  (``choice`` only switches
    to its tail-shuffle branch for ``recorded > iterations // 50`` at
    ``iterations > 10000``, which ``recorded <= 16`` never reaches.)
    Cached read-only per ``(iterations, recorded)``.
    """
    key = (iterations, recorded)
    bounds = _DRAW_BOUNDS.get(key)
    if bounds is None:
        bounds = np.concatenate(
            (
                np.arange(iterations - recorded + 1, iterations + 1, dtype=np.int64),
                np.arange(recorded, 1, -1, dtype=np.int64),
                np.full(recorded, 64, dtype=np.int64),
            )
        )
        bounds.flags.writeable = False
        _DRAW_BOUNDS[key] = bounds
    return bounds


def run_row_batch(
    framework, frequency_ghz: float, *, telemetry: Optional[Telemetry] = None
) -> List[CellResult]:
    """Probe one frequency row on the vectorized fast path.

    ``framework`` is a
    :class:`~repro.core.characterization.CharacterizationFramework`;
    the returned cells, the telemetry counters and the consumed random
    stream are byte-identical to ``framework.run_row(frequency_ghz)``.
    """
    config = framework.config
    # One FaultModel per framework, shared across its rows: the model is
    # pure (its V/f-curve and critical-voltage caches memoise bisection
    # results, never randomness), so reuse cannot change results — it
    # only avoids re-deriving the factory curve for every row.  The
    # scalar path deliberately keeps its per-row construction: it is the
    # oracle and stays exactly as it always ran.
    fault_model = getattr(framework, "_vector_fault_model", None)
    if fault_model is None:
        fault_model = FaultModel(framework.model)
        framework._vector_fault_model = fault_model
    if telemetry is None:
        telemetry = Telemetry(max_events=0)
    tracer = telemetry.tracer
    windows_counter = telemetry.registry.counter("faults.windows")
    injected_counter = telemetry.registry.counter("faults.injected")
    crashes_counter = telemetry.registry.counter("faults.crashes")

    offsets = config.offsets_mv()

    started = perf_counter()
    voltages = effective_voltage_grid(
        fault_model.vf_curve, frequency_ghz, offsets
    )
    # One scalar bisection per row (the fault model caches it per
    # frequency/temperature) — the only non-elementwise physics a row needs.
    fault_model.critical_voltage(frequency_ghz)
    record_kernel_site(
        "vector.delay", events=len(offsets), wall_s=perf_counter() - started
    )

    started = perf_counter()
    grid = fault_grid(fault_model, frequency_ghz, voltages, instruction="imul")
    record_kernel_site(
        "vector.safety", events=len(offsets), wall_s=perf_counter() - started
    )

    started = perf_counter()
    rng = framework.row_stream(frequency_ghz).rng()
    iterations = config.iterations
    # The safe prefix of a row — every offset before the first cell with a
    # non-zero fault probability or a crash verdict — consumes no random
    # state at all in the scalar path (run_window only counts the window),
    # so its cells can be built in one comprehension.  The draw loop below
    # then starts at the fault band.
    active = (grid.fault_probability > 0.0) | grid.crash
    first = int(np.argmax(active)) if bool(active.any()) else len(offsets)
    # Python lists beat per-cell numpy scalar extraction in the fold loop,
    # and .tolist() yields the exact float/bool values the arrays hold.
    crash = grid.crash.tolist()
    probability = grid.fault_probability.tolist()
    cells: List[CellResult] = [
        CellResult(frequency_ghz, offset, fault_count=0, crashed=False)
        for offset in offsets[:first]
    ]
    windows = first * config.repetitions
    injected = 0
    crashes = 0
    for index in range(first, len(offsets)):
        offset = offsets[index]
        if crash[index]:
            # The scalar injector counts the window, traces the crash and
            # raises MachineCheckError *before* any random draw; the
            # framework records a crash cell and (by default) ends the row.
            windows += 1
            crashes += 1
            if tracer is not None:
                tracer.instant(
                    "fault.crash", "fault", 0.0, track="faults",
                    frequency_ghz=frequency_ghz,
                    offset_mv=offset,
                )
            cells.append(
                CellResult(frequency_ghz, offset, fault_count=0, crashed=True)
            )
            if config.stop_after_crash:
                break
            continue
        p = probability[index]
        fault_count = 0
        for _ in range(config.repetitions):
            windows += 1
            count = 0
            if p > 0.0:  # iterations > 0 is a config invariant
                count = int(rng.binomial(iterations, p))
            if count:
                injected += count
                if tracer is not None:
                    tracer.instant(
                        "fault.injection", "fault", 0.0, track="faults",
                        ops=iterations,
                        fault_count=count,
                        instruction="imul",
                        frequency_ghz=frequency_ghz,
                        offset_mv=offset,
                    )
                # Advances the stream exactly as the scalar path's
                # choice(iterations, size=k, replace=False) plus k bit
                # picks; the values are never stored in a CellResult.
                rng.integers(
                    0,
                    _window_draw_bounds(
                        iterations, min(count, MAX_RECORDED_EVENTS)
                    ),
                )
            fault_count += count
        cells.append(CellResult(frequency_ghz, offset, fault_count, crashed=False))
    windows_counter.inc(windows)
    if injected:
        injected_counter.inc(injected)
    if crashes:
        crashes_counter.inc(crashes)
    record_kernel_site(
        "vector.fault_draw", events=windows, wall_s=perf_counter() - started
    )
    return cells
