"""Sampling concrete faults from the probabilistic model.

:class:`FaultInjector` turns the per-instruction fault probability of
:class:`~repro.faults.margin.FaultModel` into concrete corrupted values
for a window of executed instructions.  Corruption is modelled as single
random bit flips in the 64-bit result — the behaviour Plundervolt observed
for faulted ``imul`` (typically one flipped bit in the high half of the
product).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MachineCheckError
from repro.faults.margin import FaultModel, OperatingConditions
from repro.telemetry import Telemetry

if TYPE_CHECKING:
    from repro.kernel.sim import SimObserver, Simulator

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class FaultEvent:
    """One concrete injected fault."""

    op_index: int
    correct_value: int
    faulty_value: int
    flipped_bit: int


@dataclass(frozen=True)
class WindowOutcome:
    """Result of executing a window of instructions at fixed conditions."""

    ops: int
    fault_count: int
    crashed: bool
    conditions: OperatingConditions
    events: tuple  # tuple[FaultEvent, ...]

    @property
    def faulted(self) -> bool:
        """Whether at least one fault landed in the window."""
        return self.fault_count > 0


class FaultInjector:
    """Samples fault events for instruction windows.

    :meth:`run_window` executes one window; :meth:`run_clean_windows`
    runs a sequence of windows at one operating point in bulk — one
    binomial array draw — up to the first that faults or crashes, for
    callers (``FaultableALU.modexp``) whose conditions cannot move
    between windows.  Both consume the seeded stream, counters and
    ``on_fault_window`` observer calls identically.

    Parameters
    ----------
    fault_model:
        The CPU model's probabilistic fault behaviour.
    rng:
        Seeded generator owned by the enclosing scenario; all randomness
        flows through it so experiments are reproducible.
    max_recorded_events:
        Cap on the number of concrete :class:`FaultEvent` records kept per
        window (the *count* is always exact).
    telemetry:
        Observability hook (default: a fresh untraced one); fault
        windows, injections and crashes are counted, and emitted as
        ``fault`` trace events when it has a tracer.
    simulator:
        The event simulator whose clock stamps fault events and whose
        attached observers see every window and single-instruction
        probe (the test bench passes its own); without one, events are
        stamped at time 0.
    """

    def __init__(
        self,
        fault_model: FaultModel,
        rng: np.random.Generator,
        *,
        max_recorded_events: int = 16,
        telemetry: Optional[Telemetry] = None,
        simulator: Optional["Simulator"] = None,
    ) -> None:
        if max_recorded_events < 0:
            raise ConfigurationError("max_recorded_events must be non-negative")
        self._fault_model = fault_model
        self._rng = rng
        self._max_recorded_events = max_recorded_events
        if telemetry is None:
            telemetry = Telemetry(max_events=0)
        self._tracer = telemetry.tracer
        self._clock = simulator.clock() if simulator is not None else (lambda: 0.0)
        self._simulator = simulator
        self._windows_counter = telemetry.registry.counter("faults.windows")
        self._injected_counter = telemetry.registry.counter("faults.injected")
        self._crashes_counter = telemetry.registry.counter("faults.crashes")

    @property
    def fault_model(self) -> FaultModel:
        """The underlying probabilistic fault model."""
        return self._fault_model

    @property
    def rng(self) -> np.random.Generator:
        """The scenario-owned random generator all sampling flows through."""
        return self._rng

    def _observers(self) -> Tuple["SimObserver", ...]:
        return self._simulator.observers if self._simulator is not None else ()

    def _record_crash(self, conditions: OperatingConditions) -> None:
        """Count a crash and emit its ``fault.crash`` trace instant.

        The single crash-recording path for both window and
        single-instruction execution, so crashes on the RSA-CRT /
        explorer path show up in traces and flight-recorder dumps
        exactly like characterization-window crashes do.
        """
        self._crashes_counter.inc()
        if self._tracer is not None:
            self._tracer.instant(
                "fault.crash", "fault", self._clock(), track="faults",
                frequency_ghz=conditions.frequency_ghz,
                offset_mv=conditions.offset_mv,
            )

    def flip_random_bit(self, value: int) -> FaultEvent:
        """Corrupt a 64-bit value by flipping one random bit."""
        bit = int(self._rng.integers(0, 64))
        faulty = (value ^ (1 << bit)) & _MASK64
        return FaultEvent(op_index=-1, correct_value=value & _MASK64,
                          faulty_value=faulty, flipped_bit=bit)

    def run_window(
        self,
        conditions: OperatingConditions,
        ops: int,
        *,
        instruction: str = "imul",
        correct_value: int = 0,
        raise_on_crash: bool = True,
    ) -> WindowOutcome:
        """Execute ``ops`` instructions at fixed operating conditions.

        Samples the number of faults from a binomial distribution and
        materialises up to ``max_recorded_events`` concrete bit flips.

        Raises
        ------
        MachineCheckError
            If the conditions lie beyond the crash boundary and
            ``raise_on_crash`` is true (default).  Characterization code
            catches this to record a crash cell and reboot.
        """
        if ops < 0:
            raise ConfigurationError("ops must be non-negative")
        self._windows_counter.inc()
        crashed = self._fault_model.is_crash(
            conditions.frequency_ghz, conditions.voltage_volts
        )
        if crashed:
            self._record_crash(conditions)
        if crashed and raise_on_crash:
            for observer in self._observers():
                observer.on_fault_window(conditions, 0, True, instruction)
            raise MachineCheckError(
                f"machine check at {conditions.frequency_ghz:.1f} GHz / "
                f"{conditions.voltage_volts * 1e3:.1f} mV "
                f"(offset {conditions.offset_mv:+.0f} mV)",
                frequency_ghz=conditions.frequency_ghz,
                offset_mv=int(round(conditions.offset_mv)),
            )
        probability = self._fault_model.fault_probability(
            conditions.frequency_ghz, conditions.voltage_volts, instruction=instruction
        )
        fault_count = 0
        if ops > 0 and probability > 0.0:
            fault_count = int(self._rng.binomial(ops, probability))
        if fault_count:
            self._injected_counter.inc(fault_count)
            if self._tracer is not None:
                self._tracer.instant(
                    "fault.injection", "fault", self._clock(), track="faults",
                    ops=ops,
                    fault_count=fault_count,
                    instruction=instruction,
                    frequency_ghz=conditions.frequency_ghz,
                    offset_mv=conditions.offset_mv,
                )
        events: List[FaultEvent] = []
        if fault_count:
            recorded = min(fault_count, self._max_recorded_events)
            indices = self._rng.choice(ops, size=recorded, replace=False)
            for op_index in sorted(int(i) for i in indices):
                flip = self.flip_random_bit(correct_value)
                events.append(
                    FaultEvent(
                        op_index=op_index,
                        correct_value=flip.correct_value,
                        faulty_value=flip.faulty_value,
                        flipped_bit=flip.flipped_bit,
                    )
                )
        for observer in self._observers():
            observer.on_fault_window(conditions, fault_count, crashed, instruction)
        return WindowOutcome(
            ops=ops,
            fault_count=fault_count,
            crashed=crashed,
            conditions=conditions,
            events=tuple(events),
        )

    def run_clean_windows(
        self,
        conditions: OperatingConditions,
        ops: Sequence[int],
        *,
        instruction: str = "imul",
    ) -> int:
        """Execute consecutive windows in bulk, up to the first eventful one.

        ``ops[i]`` is the instruction count of window ``i``; all windows
        run at the same ``conditions``.  Every window's binomial is drawn
        in one array call — numpy's ``Generator.binomial`` over an int64
        array yields the same values and leaves the bit generator in the
        same state as the scalar calls :meth:`run_window` would make one
        by one.  Windows before the first one that faults (or crashes)
        are counted and observed exactly as :meth:`run_window` would;
        that first window itself is *not* executed: the returned index
        ``k`` tells the caller to run ``ops[k]`` through
        :meth:`run_window`, with the generator positioned just before its
        draw.  ``k == len(ops)`` means every window ran clean.
        """
        if self._fault_model.is_crash(conditions.frequency_ghz, conditions.voltage_volts):
            return 0
        probability = self._fault_model.fault_probability(
            conditions.frequency_ghz, conditions.voltage_volts, instruction=instruction
        )
        clean = len(ops)
        if probability > 0.0:
            trials = np.asarray(ops, dtype=np.int64)
            saved = self._rng.bit_generator.state
            hits = np.flatnonzero(self._rng.binomial(trials, probability))
            if hits.size:
                # Rewind and redraw only the clean prefix, leaving the
                # generator where the op-by-op path would stand.
                clean = int(hits[0])
                self._rng.bit_generator.state = saved
                if clean:
                    self._rng.binomial(trials[:clean], probability)
        self._windows_counter.inc(clean)
        observers = self._observers()
        if observers:
            for _ in range(clean):
                for observer in observers:
                    observer.on_fault_window(conditions, 0, False, instruction)
        return clean

    def maybe_fault_value(
        self,
        conditions: OperatingConditions,
        value: int,
        *,
        instruction: str = "imul",
    ) -> Optional[FaultEvent]:
        """Single-instruction variant: returns a fault event or ``None``.

        Used by the RSA-CRT and single-stepping attack paths, where each
        individual arithmetic operation matters.  A probe counts as a
        one-instruction window, and a crash goes through the same
        recording path as :meth:`run_window` — so single-instruction
        crashes are visible in traces and counters too.
        """
        self._windows_counter.inc()
        if self._fault_model.is_crash(conditions.frequency_ghz, conditions.voltage_volts):
            self._record_crash(conditions)
            for observer in self._observers():
                observer.on_fault_window(conditions, 0, True, instruction)
            raise MachineCheckError(
                "machine check during single-instruction execution",
                frequency_ghz=conditions.frequency_ghz,
                offset_mv=int(round(conditions.offset_mv)),
            )
        probability = self._fault_model.fault_probability(
            conditions.frequency_ghz, conditions.voltage_volts, instruction=instruction
        )
        if probability <= 0.0 or self._rng.random() >= probability:
            for observer in self._observers():
                observer.on_fault_window(conditions, 0, False, instruction)
            return None
        flip = self.flip_random_bit(value)
        self._injected_counter.inc()
        for observer in self._observers():
            observer.on_fault_window(conditions, 1, False, instruction)
        if self._tracer is not None:
            self._tracer.instant(
                "fault.injection", "fault", self._clock(), track="faults",
                ops=1,
                fault_count=1,
                instruction=instruction,
                frequency_ghz=conditions.frequency_ghz,
                offset_mv=conditions.offset_mv,
                flipped_bit=flip.flipped_bit,
            )
        return flip
