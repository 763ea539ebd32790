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

The positions and bits themselves are never stored in a cell, so a
faulting window only has to advance the generator exactly as the scalar
draws do.  numpy's ``Generator`` draws every one of those numbers with
the same per-element Lemire bounded draw: Floyd's algorithm inside
``choice`` draws from ``[0, j]`` for ``j = ops-k … ops-1``, its shuffle
from ``[0, i]`` for ``i = k-1 … 1``, and the bit picks from ``[0, 63]`` —
so ``integers(0, bounds)`` over those exclusive upper bounds
(:func:`_window_draw`) consumes the bit generator identically,
including PCG64's buffered 32-bit half-word.

That call is still mostly numpy argument handling, so a row normally
takes the *deferred pass* instead.  For a bound ``B < 2**32`` the Lemire
draw takes one 32-bit half-word ``x`` of a PCG64 output (low half first,
the high half carried to the next 32-bit draw) and takes one more only
when ``(x * B) mod 2**32 < (2**32 - B) mod B`` (a rejection);
``binomial`` consumes whole 64-bit words and never touches the carried
half.  So each faulting window draws the raw words its ``n`` half-words
need (one ``random_raw`` call, less the half-word carried in), the row
tracks the carry as an int, and after the row one vectorized test over
the positions whose threshold is non-zero (:class:`_RawWindowDraws`)
asks whether ``integers`` would have rejected anywhere.  Usually it
would not, and the cells stand.  If it would (about one row in ten of a
``repetitions=3`` sweep at one million ops), the *exact pass* redraws
the whole row from a fresh row stream with one ``integers(0, bounds)``
call per window; the exact pass is also the only one when a tracer is
attached (its events are emitted once), on a big-endian host (the
half-word view assumes little-endian words) and for ``ops > 2**32``
(whose bounds leave the 32-bit draw).
``tests/test_vector_identity.py::TestGeneratorEquivalencePins`` pins
the merged call against the real ``choice`` + ``integers`` pair and the
raw words against ``integers``.

The draw structure above mirrors ``FaultInjector.run_window`` +
``ImulLoop.run``; the scalar-vs-vector fuzz suite
(``tests/test_vector_identity.py``) is the executable proof that it stays
in lockstep.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

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

#: The deferred pass reads raw PCG64 words as numpy's 32-bit draws,
#: low half first — the order of a ``uint32`` view on a little-endian host.
_HALFWORD_VIEW = sys.byteorder == "little"

_LOW32 = np.uint64(0xFFFFFFFF)


class _WindowDraw(NamedTuple):
    """One faulting window's bounded draws, for both passes."""

    #: Exclusive upper bounds, in draw order: the exact pass's
    #: ``integers(0, bounds)``.
    bounds: np.ndarray
    #: 32-bit half-words the window takes when no draw rejects: one per
    #: bound above 1 (numpy returns 0 for ``[0, 0]`` without drawing).
    halfwords: int
    #: uint64 rows ``(offset, bound, threshold)`` of the draws that can
    #: reject: offsets among the window's half-words, their bounds ``B``
    #: and Lemire thresholds ``(2**32 - B) % B``.  Power-of-two bounds
    #: (every bit pick) have threshold 0 and never reject.
    rejectable: np.ndarray


_WINDOW_DRAWS: Dict[Tuple[int, int], _WindowDraw] = {}


def _window_draw(iterations: int, recorded: int) -> _WindowDraw:
    """One faulting window's bounded draws, cached per ``(iterations, recorded)``.

    ``rng.integers(0, bounds)`` advances the generator exactly as
    ``rng.choice(iterations, size=recorded, replace=False)`` followed by
    ``rng.integers(0, 64, size=recorded)``: Floyd's draws from
    ``[0, j]`` for ``j = iterations-recorded … iterations-1``, the
    shuffle's draws from ``[0, i]`` for ``i = recorded-1 … 1``, then the
    ``recorded`` bit picks from ``[0, 63]``.  (``choice`` only switches
    to its tail-shuffle branch for ``recorded > iterations // 50`` at
    ``iterations > 10000``, which ``recorded <= 16`` never reaches.)
    """
    key = (iterations, recorded)
    draw = _WINDOW_DRAWS.get(key)
    if draw is None:
        bounds = np.concatenate(
            (
                np.arange(iterations - recorded + 1, iterations + 1, dtype=np.int64),
                np.arange(recorded, 1, -1, dtype=np.int64),
                np.full(recorded, 64, dtype=np.int64),
            )
        )
        bounds.flags.writeable = False
        drawn = [int(bound) for bound in bounds if bound > 1]
        # Only meaningful for 32-bit bounds; wider rows take the exact pass.
        thresholds = [(2**32 - bound) % bound for bound in drawn]
        rejectable = np.array(
            [
                (at, drawn[at], threshold)
                for at, threshold in enumerate(thresholds)
                if threshold
            ],
            dtype=np.uint64,
        ).reshape(-1, 3).T.copy()
        rejectable.flags.writeable = False
        draw = _WindowDraw(bounds, len(drawn), rejectable)
        _WINDOW_DRAWS[key] = draw
    return draw


class _RawWindowDraws:
    """A row's faulting windows drawn as raw PCG64 words (deferred pass).

    :meth:`draw` advances the bit generator exactly as
    ``integers(0, window.bounds)`` does when none of its draws rejects;
    :meth:`rejected` then tells, once for the whole row, whether one
    would have.  ``carry`` is 1 while the high half of the last word is
    still pending — where a real ``integers`` call leaves PCG64's
    ``has_uint32`` buffer.  ``random_raw`` does not touch that buffer,
    so the row's generator itself never carries a half-word.
    """

    __slots__ = (
        "_random_raw", "_words", "_starts", "_rejectable", "carry", "halfwords"
    )

    def __init__(self, bit_generator) -> None:
        self._random_raw = bit_generator.random_raw
        self._words: List[np.ndarray] = []
        #: Per window: its first half-word and its ``rejectable`` rows.
        self._starts: List[int] = []
        self._rejectable: List[np.ndarray] = []
        self.carry = 0
        #: Half-words consumed so far: the next window's first draw.
        self.halfwords = 0

    def draw(self, window: _WindowDraw) -> None:
        need = window.halfwords
        words = (need - self.carry + 1) // 2
        if words:
            self._words.append(self._random_raw(words))
        self._starts.append(self.halfwords)
        self._rejectable.append(window.rejectable)
        self.halfwords += need
        self.carry += 2 * words - need

    def halves(self) -> np.ndarray:
        """Every drawn half-word, in the order ``next_uint32`` hands them out."""
        return np.concatenate(self._words).view(np.uint32)

    def rejected(self) -> bool:
        """Whether ``integers`` would have rejected any of the row's draws.

        Exact up to the first rejection, which is all the answer needs:
        after it, every later draw is shifted and the row is redrawn.
        """
        if not self._starts:
            return False
        at, bounds, thresholds = np.concatenate(self._rejectable, axis=1)
        at += np.repeat(
            np.array(self._starts, dtype=np.uint64),
            [rows.shape[1] for rows in self._rejectable],
        )
        leftover = (self.halves()[at] * bounds) & _LOW32
        return bool((leftover < thresholds).any())


class _FaultBand(NamedTuple):
    """A row's physics verdicts, as the draw loop reads them."""

    offsets: List[int]
    #: Index of the first cell that draws or crashes: the safe prefix
    #: before it consumes no random state.
    first: int
    crash: List[bool]
    probability: List[float]


def _row_physics(fault_model: FaultModel, frequency_ghz: float, offsets) -> _FaultBand:
    """Phases 1 and 2 of a row: ``vector.delay`` and ``vector.safety``."""
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
    # The safe prefix of a row — every offset before the first cell with a
    # non-zero fault probability or a crash verdict — consumes no random
    # state at all in the scalar path (run_window only counts the window).
    active = (grid.fault_probability > 0.0) | grid.crash
    first = int(np.argmax(active)) if bool(active.any()) else len(offsets)
    # Python lists beat per-cell numpy scalar extraction in the fold loop,
    # and .tolist() yields the exact float/bool values the arrays hold.
    return _FaultBand(
        offsets, first, grid.crash.tolist(), grid.fault_probability.tolist()
    )


class _Drawn(NamedTuple):
    """The fault band's cells and the window totals behind them."""

    cells: List[CellResult]
    windows: int
    injected: int
    crashes: int


def _draw_band(
    rng, config, frequency_ghz: float, band: _FaultBand, tracer, *, exact: bool
) -> Optional[_Drawn]:
    """The sequential seeded draws over the fault band.

    ``exact`` draws each faulting window with ``integers(0, bounds)``;
    otherwise the windows take raw words, and ``None`` means a draw
    would have rejected, so the row must be redrawn exactly.
    """
    iterations = config.iterations
    raw = None if exact else _RawWindowDraws(rng.bit_generator)
    offsets, crash, probability = band.offsets, band.crash, band.probability
    cells: List[CellResult] = []
    windows = injected = crashes = 0
    for index in range(band.first, len(offsets)):
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
                window = _window_draw(iterations, min(count, MAX_RECORDED_EVENTS))
                if raw is None:
                    rng.integers(0, window.bounds)
                else:
                    raw.draw(window)
            fault_count += count
        cells.append(CellResult(frequency_ghz, offset, fault_count, crashed=False))
    if raw is not None and raw.rejected():
        return None
    return _Drawn(cells, windows, injected, crashes)


def _fault_draw(framework, frequency_ghz: float, band: _FaultBand, tracer) -> _Drawn:
    """Phase 3 of a row: the deferred pass, redrawn exactly on a rejection."""
    config = framework.config
    if tracer is None and _HALFWORD_VIEW and config.iterations <= 2**32:
        drawn = _draw_band(
            framework.row_stream(frequency_ghz).rng(), config, frequency_ghz,
            band, None, exact=False,
        )
        if drawn is not None:
            return drawn
    return _draw_band(
        framework.row_stream(frequency_ghz).rng(), config, frequency_ghz,
        band, tracer, exact=True,
    )


def _framework_fault_model(framework) -> FaultModel:
    """One FaultModel per framework, shared across its rows.

    The model is pure (its V/f-curve and critical-voltage caches memoise
    bisection results, never randomness), so reuse cannot change results
    — it only avoids re-deriving the factory curve for every row.  The
    scalar path deliberately keeps its per-row construction: it is the
    oracle and stays exactly as it always ran.
    """
    fault_model = getattr(framework, "_vector_fault_model", None)
    if fault_model is None:
        fault_model = FaultModel(framework.model)
        framework._vector_fault_model = fault_model
    return fault_model


def run_row_batch(
    framework, frequency_ghz: float, *, telemetry: Optional[Telemetry] = None
) -> List[CellResult]:
    """Probe one frequency row on the vectorized fast path.

    ``framework`` is a
    :class:`~repro.core.characterization.CharacterizationFramework`;
    the returned cells, the telemetry counters and the consumed random
    stream are byte-identical to ``framework.run_row(frequency_ghz)``.
    """
    if telemetry is None:
        telemetry = Telemetry(max_events=0)
    windows_counter = telemetry.registry.counter("faults.windows")
    injected_counter = telemetry.registry.counter("faults.injected")
    crashes_counter = telemetry.registry.counter("faults.crashes")
    band = _row_physics(
        _framework_fault_model(framework), frequency_ghz,
        framework.config.offsets_mv(),
    )

    started = perf_counter()
    drawn = _fault_draw(framework, frequency_ghz, band, telemetry.tracer)
    cells: List[CellResult] = [
        CellResult(frequency_ghz, offset, fault_count=0, crashed=False)
        for offset in band.offsets[:band.first]
    ]
    cells.extend(drawn.cells)
    windows = band.first * framework.config.repetitions + drawn.windows
    windows_counter.inc(windows)
    if drawn.injected:
        injected_counter.inc(drawn.injected)
    if drawn.crashes:
        crashes_counter.inc(drawn.crashes)
    record_kernel_site(
        "vector.fault_draw", events=windows, wall_s=perf_counter() - started
    )
    return cells
