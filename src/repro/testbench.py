"""The assembled victim machine.

:class:`Machine` wires every substrate together the way the paper's
experimental setup does: a simulated processor on a discrete-event
timeline, the probabilistic fault model grounded in the timing physics,
the kernel MSR driver and cpufreq stack, a module registry, and a seeded
random generator that owns all stochastic behaviour.

Typical use::

    from repro.testbench import Machine
    from repro.cpu import COMET_LAKE

    machine = Machine.build(COMET_LAKE, seed=7)
    report = machine.run_imul_window(core_index=0, iterations=1_000_000)
    assert not report.faulted          # nominal conditions never fault
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cpu.models import CPUModel
from repro.cpu.processor import SimulatedProcessor
from repro.faults.imul import ImulLoop, ImulRunReport
from repro.faults.injector import FaultInjector, WindowOutcome
from repro.faults.margin import FaultModel, OperatingConditions
from repro.faults.workloads import InstructionWorkload
from repro.kernel.cpufreq import CPUFreqDriver, CPUPower
from repro.kernel.module import ModuleRegistry
from repro.kernel.msr_driver import MSRDriver
from repro.kernel.sim import Simulator
from repro.telemetry import Telemetry


@dataclass
class Machine:
    """A complete simulated victim system."""

    model: CPUModel
    simulator: Simulator
    processor: SimulatedProcessor
    fault_model: FaultModel
    injector: FaultInjector
    msr_driver: MSRDriver
    cpufreq: CPUFreqDriver
    cpupower: CPUPower
    modules: ModuleRegistry
    rng: np.random.Generator
    telemetry: Telemetry = field(default_factory=lambda: Telemetry(max_events=0))
    crash_count: int = field(default=0)
    #: The runtime invariant checker installed on this machine, if any
    #: (see :meth:`install_invariants` and the ``REPRO_VERIFY`` knob).
    verifier: Optional[object] = field(default=None, repr=False)
    #: The seed :meth:`build` assembled this machine from — kept so
    #: post-mortem artifacts can fingerprint an equivalent rebuild.
    build_seed: int = field(default=2024)

    @classmethod
    def build(
        cls,
        model: CPUModel,
        *,
        seed: int = 2024,
        shared_voltage_plane: bool = False,
        telemetry: Optional[Telemetry] = None,
        verify: Optional[bool] = None,
    ) -> "Machine":
        """Assemble a machine for a CPU model with a deterministic seed.

        ``shared_voltage_plane`` switches the processor to the real
        client-part topology where one 0x150 write moves every core's
        voltage (enabling cross-core attack scenarios).

        ``telemetry`` is the single observability hook: every layer
        (simulator, MSR driver, OCM/P-state hooks, regulators, fault
        injector, the polling module once loaded) counts into its
        registry and, when it has a tracer, records trace events on the
        simulated timeline.  Defaults to a fresh untraced
        ``Telemetry(max_events=0)``: the machine's own counters, no
        events.

        ``verify`` installs a :class:`repro.verify.InvariantChecker` on
        the assembled machine; the default ``None`` consults the
        ``REPRO_VERIFY`` environment knob (off unless set), so existing
        callers pay nothing.
        """
        if telemetry is None:
            telemetry = Telemetry(max_events=0)
        simulator = Simulator(telemetry=telemetry)
        processor = SimulatedProcessor(
            model,
            clock=simulator.clock(),
            shared_voltage_plane=shared_voltage_plane,
            telemetry=telemetry,
            simulator=simulator,
        )
        fault_model = FaultModel(model)
        rng = np.random.default_rng(seed)
        injector = FaultInjector(fault_model, rng, telemetry=telemetry, simulator=simulator)
        msr_driver = MSRDriver(processor, simulator=simulator, telemetry=telemetry)
        cpufreq = CPUFreqDriver(processor)
        machine = cls(
            model=model,
            simulator=simulator,
            processor=processor,
            fault_model=fault_model,
            injector=injector,
            msr_driver=msr_driver,
            cpufreq=cpufreq,
            cpupower=CPUPower(cpufreq),
            modules=ModuleRegistry(),
            rng=rng,
            telemetry=telemetry,
            build_seed=int(seed),
        )
        if verify is None:
            from repro.verify import verify_enabled_from_env

            verify = verify_enabled_from_env()
        if verify:
            machine.install_invariants()
        return machine

    def install_invariants(self, checker: Optional[object] = None) -> object:
        """Attach a runtime invariant checker to the machine's simulator.

        Returns the installed :class:`repro.verify.InvariantChecker`
        (also kept on :attr:`verifier`): ``checker``, or a fresh one when
        none is passed.  When a checker is already installed (e.g. by
        ``verify=True``) that checker is returned and nothing changes.
        """
        if self.verifier is None:
            from repro.verify import InvariantChecker

            checker = checker if checker is not None else InvariantChecker()
            self.verifier = checker.install(self)
        return self.verifier

    def spec_fingerprint(self) -> dict:
        """JSON-safe identity of this machine's build specification.

        Everything a post-mortem needs to rebuild an equivalent machine:
        model codename, build seed, voltage-plane topology, whether an
        invariant checker is installed — plus a content hash over those
        fields so flight dumps from different specs can never be
        conflated.
        """
        import hashlib
        import json

        spec = {
            "codename": self.model.codename,
            "seed": self.build_seed,
            "shared_voltage_plane": bool(
                getattr(self.processor, "shared_voltage_plane", False)
            ),
            "verify": self.verifier is not None,
        }
        blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        spec["sha256"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return spec

    # -- timeline helpers -------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, seconds."""
        return self.simulator.now

    def advance(self, delta_s: float) -> None:
        """Run the event queue ``delta_s`` seconds forward."""
        self.simulator.run_until(self.simulator.now + delta_s)

    # -- execution helpers --------------------------------------------------------

    def conditions(self, core_index: int = 0) -> OperatingConditions:
        """Electrical operating point of a core right now."""
        return self.processor.conditions(core_index)

    def run_imul_window(
        self,
        core_index: int = 0,
        iterations: int = 1_000_000,
        *,
        advance_time: bool = True,
    ) -> ImulRunReport:
        """Run the EXECUTE-thread ``imul`` loop on a core right now.

        Conditions are sampled at loop start; with ``advance_time`` the
        simulated clock moves by the loop's wall time afterwards (the
        default, so back-to-back windows see regulator ramps progress).

        Raises
        ------
        MachineCheckError
            If the core sits beyond the crash boundary.
        """
        loop = ImulLoop(iterations)
        conditions = self.conditions(core_index)
        report = loop.run(self.injector, conditions)
        if advance_time:
            self.advance(loop.duration_s(conditions.frequency_ghz))
        return report

    def run_workload_window(
        self,
        workload: InstructionWorkload,
        ops: int,
        core_index: int = 0,
        *,
        advance_time: bool = True,
    ) -> WindowOutcome:
        """Run an arbitrary instruction workload window on a core."""
        conditions = self.conditions(core_index)
        outcome = workload.execute(self.injector, conditions, ops)
        if advance_time:
            self.advance(workload.duration_s(ops, conditions.frequency_ghz))
        return outcome

    # -- crash handling --------------------------------------------------------------

    def reboot(self, settle_s: float = 0.0) -> None:
        """Recover from a machine check: reset hardware state.

        Kernel modules stay registered (they reload from initramfs on a
        real machine); the MSR and regulator state is wiped.
        """
        self.processor.reboot()
        self.crash_count += 1
        if settle_s > 0:
            self.advance(settle_s)

    # -- convenience DVFS actions (the attacker/benign-user surface) -----------------

    def set_frequency(self, frequency_ghz: float, *, core_index: Optional[int] = None) -> None:
        """Pin core(s) to a frequency through the cpupower utility."""
        self.cpupower.frequency_set(frequency_ghz, core_index=core_index)

    def write_voltage_offset(self, offset_mv: float, core_index: int = 0) -> bool:
        """Write a core-plane voltage offset through MSR 0x150 (Algo 1).

        Returns ``False`` when a microcode/MSR-level guard dropped or
        clamped away the write.
        """
        from repro.core.encoding import offset_voltage

        value = offset_voltage(offset_mv, plane=0)
        return self.msr_driver.write(core_index, 0x150, value)
