"""Algorithm 2: empirical characterization of unsafe system states.

The framework runs two threads (Sec. 4.2):

* the **DVFS thread** enumerates the Cartesian product of the frequency
  table (0.1 GHz resolution) and negative voltage offsets
  ``{-1, ..., -300}`` mV, programming each pair through ``cpupower`` and
  MSR 0x150;
* the **EXECUTE thread** runs one million ``imul`` iterations per cell and
  reports incorrect products.

A faulting cell joins the unsafe set; probing continues deeper "until we
observe a system crash", which bounds the unsafe region's width at that
frequency and triggers a reboot.

Two execution modes are provided:

* ``run()`` — *direct* mode: each cell is evaluated at settled conditions
  without the event timeline.  This is the fast path used to regenerate
  the full Figs. 2-4 grids (thousands of cells).
* ``run_on_machine()`` — *event* mode: the DVFS thread drives a live
  :class:`~repro.testbench.Machine` through cpupower and MSR writes with
  real regulator settle latency, exactly as Algo 2 is written.  Used by
  integration tests and the turnaround-time experiments.

Both modes discover the same boundary because the direct mode is simply
the settled fixed point of the event mode.

Direct mode is organised as independent per-frequency *rows*: each row
draws its randomness from a named seed stream keyed by (seed, system,
row), so the sweep can be sharded across the campaign engine's worker
processes and still reproduce the serial result byte for byte.  ``run()``
folds every row from the vectorized ``run_row_batch``; the scalar
``run_row`` is the identity oracle, reached only from tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MachineCheckError
from repro.core.unsafe_states import CellResult, UnsafeStateSet
from repro.cpu.models import CPUModel
from repro.faults.imul import DEFAULT_ITERATIONS, ImulLoop
from repro.faults.injector import FaultInjector
from repro.faults.margin import FaultModel
from repro.testbench import Machine
from repro.vector.profile import kernel_profiler

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CharacterizationConfig:
    """Sweep parameters for Algo 2.

    Defaults mirror the paper: the full frequency table at 0.1 GHz
    resolution and undervolt offsets from -1 mV to -300 mV.
    """

    offset_start_mv: int = -1
    offset_stop_mv: int = -300
    offset_step_mv: int = 1
    iterations: int = DEFAULT_ITERATIONS
    #: EXECUTE-thread repetitions per cell.  The default single window
    #: matches Algo 2; higher values tighten the empirical boundary (a
    #: near-onset cell has ~e^-1 odds of sampling zero faults per
    #: window, which shrinks exponentially with repeats).
    repetitions: int = 1
    frequencies_ghz: Optional[Sequence[float]] = None
    #: Stop probing deeper offsets at a frequency once the machine crashes
    #: (the paper characterises the unsafe-region width "until we observe
    #: a system crash").
    stop_after_crash: bool = True

    def __post_init__(self) -> None:
        if self.offset_start_mv >= 0 or self.offset_stop_mv >= 0:
            raise ConfigurationError("offsets must be negative (undervolting only)")
        if self.offset_start_mv <= self.offset_stop_mv:
            raise ConfigurationError(
                "offset_start_mv must be shallower (greater) than offset_stop_mv, "
                f"got start={self.offset_start_mv}, stop={self.offset_stop_mv}"
            )
        if self.offset_step_mv <= 0:
            raise ConfigurationError("offset_step_mv must be positive")
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.repetitions <= 0:
            raise ConfigurationError("repetitions must be positive")

    def offsets_mv(self) -> List[int]:
        """The V set of Algo 2, shallow to deep."""
        return list(range(self.offset_start_mv, self.offset_stop_mv - 1, -self.offset_step_mv))

    def frequency_list(self, model: CPUModel) -> List[float]:
        """The F set of Algo 2 for a model."""
        if self.frequencies_ghz is not None:
            return [model.frequency_table.validate(f) for f in self.frequencies_ghz]
        return list(model.frequency_table.frequencies_ghz())


@dataclass
class CharacterizationResult:
    """Everything Algo 2 produced for one system."""

    model: CPUModel
    config: CharacterizationConfig
    cells: List[CellResult] = field(default_factory=list)
    unsafe_states: UnsafeStateSet = field(default_factory=UnsafeStateSet)
    crashes: int = 0

    def safe_cells(self) -> List[CellResult]:
        """Cells with no observed faults."""
        return [c for c in self.cells if not c.is_unsafe]

    def unsafe_cells(self) -> List[CellResult]:
        """Cells with faults (including crashes)."""
        return [c for c in self.cells if c.is_unsafe]

    def boundary_profile(self) -> List[Tuple[float, float]]:
        """(frequency, shallowest faulting offset) pairs — the Fig. 2-4 curve."""
        return self.unsafe_states.boundary_profile()

    def maximal_safe_offset_mv(self, *, margin_mv: float = 15.0) -> float:
        """Sec. 5's maximal safe state derived from this characterization."""
        return self.unsafe_states.maximal_safe_offset_mv(margin_mv=margin_mv)


class CharacterizationFramework:
    """Runs Algo 2 against a CPU model or a live machine."""

    def __init__(
        self,
        model: CPUModel,
        *,
        config: Optional[CharacterizationConfig] = None,
        seed: int = 2024,
    ) -> None:
        self.model = model
        self.config = config or CharacterizationConfig()
        self.seed = seed

    # -- direct mode ------------------------------------------------------------

    def empty_result(self) -> CharacterizationResult:
        """A result shell rows are folded into (used by the engine too)."""
        return CharacterizationResult(
            model=self.model,
            config=self.config,
            unsafe_states=UnsafeStateSet(system=self.model.codename),
        )

    def row_stream(self, frequency_ghz: float):
        """The named seed stream one row's fault sampling draws from.

        Keyed by (seed, system, row frequency) only — independent of row
        execution order and of which process runs the row, which is what
        makes serial and process-pool sweeps byte-identical.
        """
        from repro.engine.seeds import seed_stream

        return seed_stream(
            self.seed,
            "characterization",
            self.model.codename,
            f"row@{int(round(frequency_ghz * 10))}",
        )

    def run_row(self, frequency_ghz: float, *, telemetry=None) -> List[CellResult]:
        """Probe every offset of one frequency row (Algo 2's inner loop)."""
        profiler = kernel_profiler()
        started = perf_counter() if profiler is not None else 0.0
        fault_model = FaultModel(self.model)
        injector = FaultInjector(
            fault_model, self.row_stream(frequency_ghz).rng(), telemetry=telemetry
        )
        loop = ImulLoop(self.config.iterations)
        cells: List[CellResult] = []
        for offset in self.config.offsets_mv():
            conditions = fault_model.conditions_for_offset(frequency_ghz, offset)
            fault_count = 0
            crashed = False
            for _ in range(self.config.repetitions):
                try:
                    report = loop.run(injector, conditions)
                except MachineCheckError:
                    crashed = True
                    break
                fault_count += report.fault_count
            if crashed:
                cells.append(CellResult(frequency_ghz, offset, fault_count=0, crashed=True))
                logger.debug("crash at %.1f GHz / %d mV", frequency_ghz, offset)
                if self.config.stop_after_crash:
                    break
                continue
            cells.append(CellResult(frequency_ghz, offset, fault_count, crashed=False))
        if profiler is not None:
            # The scalar oracle shows up as one opaque bucket — there is no
            # finer-grained attribution to give, which is precisely what the
            # before/after profile comparison against the batch path's
            # vector.delay / vector.safety / vector.fault_draw sites shows.
            profiler.record_site(
                "core.characterization",
                "run_row.scalar",
                events=len(cells),
                wall_s=perf_counter() - started,
            )
        return cells

    def run_row_batch(self, frequency_ghz: float, *, telemetry=None) -> List[CellResult]:
        """Probe one frequency row on the vectorized fast path.

        Byte-identical to :meth:`run_row` — same cells, same telemetry
        counter totals, same trace events, same random-stream consumption
        — with the physics evaluated by :mod:`repro.vector` over the whole
        offset array per call.  The fuzz suite in
        ``tests/test_vector_identity.py`` holds the two paths in lockstep.
        """
        from repro.vector.characterization import run_row_batch

        return run_row_batch(self, frequency_ghz, telemetry=telemetry)

    def fold_row(self, result: CharacterizationResult, cells: Iterable[CellResult]) -> None:
        """Fold one row's cells into ``result`` (order-preserving)."""
        for cell in cells:
            result.cells.append(cell)
            if cell.crashed:
                result.unsafe_states.add_crash(cell.frequency_ghz, cell.offset_mv)
                result.crashes += 1
            elif cell.is_unsafe:
                result.unsafe_states.add_unsafe(cell.frequency_ghz, cell.offset_mv)

    def run(self) -> CharacterizationResult:
        """Sweep the full grid at settled conditions (fast path).

        Folds :meth:`run_row_batch` rows in frequency order — identical to
        the engine's batch shards, and to the scalar :meth:`run_row` oracle.
        """
        result = self.empty_result()
        for frequency in self.config.frequency_list(self.model):
            self.fold_row(result, self.run_row_batch(frequency))
        return result

    # -- event mode --------------------------------------------------------------

    def run_on_machine(
        self,
        machine: Machine,
        *,
        core_index: int = 0,
        frequencies_ghz: Optional[Iterable[float]] = None,
        offsets_mv: Optional[Iterable[int]] = None,
    ) -> CharacterizationResult:
        """Algo 2 as written: drive a live machine through its interfaces.

        Per cell: ``CPU_POWER(test_frequency)`` (line 9), write the Algo 1
        value to 0x150 (lines 10-11), let the regulator settle, run the
        EXECUTE thread, then restore frequency and offset (lines 13-14).
        On a machine check the cell is recorded as a crash, the machine
        reboots, and the sweep moves to the next frequency.
        """
        result = CharacterizationResult(
            model=self.model,
            config=self.config,
            unsafe_states=UnsafeStateSet(system=self.model.codename),
        )
        frequencies = (
            list(frequencies_ghz)
            if frequencies_ghz is not None
            else self.config.frequency_list(self.model)
        )
        offsets = list(offsets_mv) if offsets_mv is not None else self.config.offsets_mv()
        settle = self.model.regulator_latency_s * 1.05

        original_frequency = machine.processor.core(core_index).frequency_ghz  # line 6
        original_offset = machine.processor.core(core_index).target_offset_mv()  # line 7

        for frequency in frequencies:
            for offset in offsets:
                machine.cpupower.frequency_set(frequency, core_index=core_index)  # line 9
                machine.write_voltage_offset(offset, core_index)  # lines 10-11
                machine.advance(settle)
                try:
                    report = machine.run_imul_window(
                        core_index, iterations=self.config.iterations
                    )
                except MachineCheckError:
                    cell = CellResult(frequency, offset, fault_count=0, crashed=True)
                    result.cells.append(cell)
                    result.unsafe_states.add_crash(frequency, offset)
                    result.crashes += 1
                    machine.reboot(settle_s=settle)
                    if self.config.stop_after_crash:
                        break
                    continue
                cell = CellResult(frequency, offset, report.fault_count, crashed=False)
                result.cells.append(cell)
                if cell.is_unsafe:  # lines 15-16
                    result.unsafe_states.add_unsafe(frequency, offset)
            # lines 13-14: restore normal frequency and voltage
            machine.cpupower.frequency_set(original_frequency, core_index=core_index)
            machine.write_voltage_offset(original_offset, core_index)
            machine.advance(settle)
        return result
