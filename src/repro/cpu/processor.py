"""The simulated multi-core processor.

Wires cores, the MSR file and the overclocking-mailbox protocol together:

* ``wrmsr 0x150`` runs the OCM protocol (:mod:`repro.cpu.ocm`) and lands
  in the per-core voltage regulator with settle latency;
* ``rdmsr 0x150`` returns the mailbox response (current target offset);
* ``rdmsr 0x198`` synthesises IA32_PERF_STATUS from live core state —
  current ratio and *electrically effective* voltage;
* ``wrmsr 0x199`` switches the P-state (the path the cpufreq driver uses);
* microcode hooks can be installed around ``wrmsr`` to realise the
  Sec. 5.1 deployment, and the Sec. 5.2 clamp MSR is pre-defined.

The processor is deliberately ignorant of the fault model: faults are a
property of *executing instructions* under given conditions and live in
:mod:`repro.faults`, combined with the processor by the test bench.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.errors import CoreIndexError
from repro.cpu import ocm
from repro.cpu import perf_status
from repro.cpu.core import Core
from repro.cpu.models import CPUModel
from repro.cpu.msr import (
    IA32_PERF_CTL,
    IA32_PERF_STATUS,
    MSR_DRAM_POWER_INFO,
    MSR_DRAM_POWER_LIMIT,
    MSR_OC_MAILBOX,
    MSR_PLATFORM_INFO,
    MSR_VOLTAGE_OFFSET_LIMIT,
    MSRFile,
)
from repro.telemetry import Telemetry
from repro.units import ratio_to_ghz

if TYPE_CHECKING:
    from repro.kernel.sim import Simulator


class SimulatedProcessor:
    """A multi-core processor instance for one :class:`CPUModel`.

    Parameters
    ----------
    model:
        Static CPU description (frequency table, latencies, physics).
    clock:
        Zero-argument callable returning the current time in seconds;
        supplied by the test bench (manual clock or event simulator).
    simulator:
        The event simulator whose attached observers see every 0x150
        transaction and the regulator request it makes; a processor on
        a manual clock has none.
    """

    def __init__(
        self,
        model: CPUModel,
        clock: Callable[[], float],
        *,
        shared_voltage_plane: bool = False,
        telemetry: Optional[Telemetry] = None,
        simulator: Optional["Simulator"] = None,
    ) -> None:
        self.model = model
        self._clock = clock
        self._simulator = simulator
        if telemetry is None:
            telemetry = Telemetry(max_events=0)
        self.telemetry = telemetry
        self._tracer = telemetry.tracer
        self._pstate_counter = telemetry.registry.counter("pstate.transitions")
        self._ocm_counter = telemetry.registry.counter("ocm.transactions")
        #: Real client parts expose one package-wide core-voltage plane:
        #: a 0x150 write from ANY core moves EVERY core's voltage.  The
        #: default per-core mode is strictly more general (see
        #: repro.cpu.core); the shared mode enables the cross-core attack
        #: scenarios (attacker thread on one core, victim on another).
        self.shared_voltage_plane = shared_voltage_plane
        self.vf_curve = model.vf_curve()
        #: Currently loaded microcode revision (updates bump it at reset).
        self.microcode_revision = model.microcode
        self.cores: List[Core] = [
            Core(index=i, model=model, vf_curve=self.vf_curve, telemetry=telemetry)
            for i in range(model.core_count)
        ]
        self.msr = MSRFile()
        #: Per core, the last ``Core.conditions`` snapshot that 0x198 was
        #: encoded from and the encoded value: a poll of an unchanged core
        #: reuses it instead of re-encoding.
        self._perf_status_memo: List[Optional[tuple]] = [None] * len(self.cores)
        self.reboot_count = 0
        self._define_msrs()

    # -- construction ---------------------------------------------------------

    def _define_msrs(self) -> None:
        table = self.model.frequency_table
        platform_info = (table.base_ratio & 0xFF) << 8
        self.msr.define(MSR_PLATFORM_INFO, writable=False, reset_value=platform_info)
        self.msr.define(MSR_OC_MAILBOX)
        self.msr.define(IA32_PERF_STATUS, writable=False)
        self.msr.define(IA32_PERF_CTL)
        self.msr.define(MSR_DRAM_POWER_LIMIT)
        self.msr.define(MSR_DRAM_POWER_INFO)
        self.msr.define(MSR_VOLTAGE_OFFSET_LIMIT)
        self.msr.add_write_hook(MSR_OC_MAILBOX, self._ocm_write_hook)
        self.msr.add_read_hook(IA32_PERF_STATUS, self._perf_status_read_hook)
        self.msr.add_write_hook(IA32_PERF_CTL, self._perf_ctl_write_hook)

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time seen by the processor."""
        return self._clock()

    # -- core access -----------------------------------------------------------

    def core(self, index: int) -> Core:
        """Fetch a core by index."""
        try:
            return self.cores[index]
        except IndexError:
            raise CoreIndexError(
                f"core {index} out of range (have {len(self.cores)})"
            ) from None

    # -- MSR access (the rdmsr/wrmsr instructions) ------------------------------

    def rdmsr(self, core_index: int, address: int) -> int:
        """Architectural ``rdmsr`` on a core."""
        self.core(core_index)
        return self.msr.read(core_index, address)

    def wrmsr(self, core_index: int, address: int, value: int) -> bool:
        """Architectural ``wrmsr``; returns False if microcode ignored it."""
        self.core(core_index)
        return self.msr.write(core_index, address, value)

    # -- hook implementations ----------------------------------------------------

    def _ocm_write_hook(self, core_index: int, value: int) -> Optional[int]:
        """Run the overclocking-mailbox protocol for a 0x150 write."""
        command = ocm.decode_command(value)
        core = self.core(core_index)
        self._ocm_counter.inc()
        observers = self._simulator.observers if self._simulator is not None else ()
        for observer in observers:
            # The command phase is observed BEFORE the mailbox acts so a
            # broken decode is attributed to the protocol, not to whatever
            # error the bogus offset triggers downstream.
            observer.on_ocm("command", core_index, value, command, None)
        if self._tracer is not None:
            name = "ocm.write" if command.is_write else "ocm.read_request"
            self._tracer.instant(
                name, "ocm", self.now, track=f"core{core_index}",
                **ocm.describe_command(command),
            )
        if command.is_write:
            targets = self.cores if self.shared_voltage_plane else [core]
            now = self.now
            for target in targets:
                target.request_offset(command.plane, command.offset_mv, now)
                for observer in observers:
                    observer.on_regulator_request(
                        target.regulator,
                        command.plane,
                        target.regulator.transition(command.plane),
                        now,
                    )
            responded_units = command.offset_units
        else:
            responded_units = ocm.mv_to_units(core.target_offset_mv(command.plane))
        # The stored value is the mailbox response: busy bit cleared,
        # offset/plane fields reflecting the plane's target offset.
        response = ocm.encode_response(responded_units, command.plane)
        for observer in observers:
            observer.on_ocm("response", core_index, value, command, response)
        return response

    def _perf_status_read_hook(self, core_index: int, _stored: int) -> int:
        """Synthesise IA32_PERF_STATUS from live core state.

        The voltage is the core's ``conditions`` snapshot's, which is
        bit-identical to ``effective_voltage(now)``.  The snapshot object
        only changes when the frequency or the applied offset moves, so
        while it is the one last encoded the encoded value is reused.
        """
        try:
            core = self.cores[core_index]
        except IndexError:
            core = self.core(core_index)  # raises CoreIndexError
        conditions = core.conditions(self._clock())
        memo = self._perf_status_memo[core_index]
        if memo is not None and memo[0] is conditions:
            return memo[1]
        value = perf_status.encode(core.ratio, conditions.voltage_volts)
        self._perf_status_memo[core_index] = (conditions, value)
        return value

    def _perf_ctl_write_hook(self, core_index: int, value: int) -> Optional[int]:
        """Apply a requested P-state ratio from IA32_PERF_CTL bits [15:8]."""
        ratio = (value >> 8) & 0xFF
        frequency = self.model.frequency_table.clamp(ratio_to_ghz(ratio))
        core = self.core(core_index)
        previous = core.frequency_ghz
        core.set_frequency(frequency, self.now)
        self._pstate_counter.inc()
        if self._tracer is not None:
            self._tracer.instant(
                "pstate.transition", "pstate", self.now, track=f"core{core_index}",
                from_ghz=previous, to_ghz=frequency,
            )
        return value

    # -- convenience views used by workloads and analysis ------------------------

    def conditions(self, core_index: int):
        """Operating conditions of one core right now."""
        return self.core(core_index).conditions(self.now)

    def reboot(self) -> None:
        """Crash recovery: reset cores and MSR state, count the event.

        The characterization framework (Sec. 4.2) keeps probing deeper
        undervolts "until we observe a system crash"; each crash lands
        here.
        """
        for core in self.cores:
            core.reset()
        self.msr.reset()
        self.reboot_count += 1
