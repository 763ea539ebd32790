"""Runtime invariant checker for the simulated machine.

:class:`InvariantChecker` is a :class:`~repro.kernel.sim.SimObserver`:
attached to a machine's simulator it sees the event loop, every 0x150
transaction and the regulator request it makes, and every fault window,
and asserts, *while a run is in progress*, the properties the
reproduction's claims rest on:

``sim-monotonic``
    The event queue never hands the clock a time in the past.
``heap-hygiene``
    After every :meth:`~repro.kernel.sim.Simulator.run_until` window the
    event heap holds no cancelled entries and no entry behind the clock.
``ocm-roundtrip``
    Every MSR 0x150 transaction survives encode/decode round trips: the
    decoded offset re-encodes to the exact field bits, and the mailbox's
    millivolt view converts back to the same unit count (Algo 1 / Table 1
    are bit-exact inverses of each other).
``ocm-busy-bit``
    Commands carry bit 63 set; responses carry it cleared — the protocol
    ordering Sec. 2.3 describes.
``regulator-causality``
    A requested offset is not electrically effective before its settle
    latency elapses, the latency matches the direction-asymmetric
    :meth:`~repro.cpu.voltage_regulator.VoltageRegulator.latency_for`,
    and the transition lands exactly at ``request + latency``.
``fault-safe-state``
    No fault fires in a state the timing physics calls fault-free: the
    checker independently recomputes the violated-path fraction from
    :class:`~repro.timing.safety.SafetyAnalyzer` critical voltage and
    the model's sigma, and requires ``fraction >= ONSET_FRACTION``
    whenever the injector reports a fault (and the crash predicate
    whenever it reports a crash).  Note the analyzer's single critical
    voltage is *not* the fault onset — the Gaussian path population puts
    the onset ~2 sigma above it — so the recompute mirrors the margin
    model rather than ``is_safe`` alone.
``counter-conservation``
    Worker-reported telemetry counter increments merge into the engine
    session registry without loss or double counting, regardless of the
    executor (serial or process pool).

The checker rides the simulator's observer tuple alongside any profiler,
in any install order.  With no observer attached
each notification site iterates an empty tuple, so tier-1 timing results
stay byte-identical with verification off.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, Iterable, List, Optional

from repro.cpu import ocm
from repro.cpu.msr import MSR_OC_MAILBOX
from repro.errors import InvariantViolation, ReproError
from repro.faults.margin import ONSET_FRACTION
from repro.kernel.sim import SimObserver

#: Environment knob: a non-empty value other than ``0``/``false``/``no``
#: makes :meth:`Machine.build` install a checker on every machine it
#: assembles.  Result-affecting, therefore part of the engine job
#: fingerprint (see ``repro.engine.jobs.RESULT_AFFECTING_ENV``).
VERIFY_ENV = "REPRO_VERIFY"

#: Absolute slack for floating-point fraction comparisons; covers the
#: margin model's frequency-key rounding in its Vcrit cache.
_FRACTION_EPS = 1e-9

_SQRT2 = math.sqrt(2.0)


def verify_enabled_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """Interpret the ``REPRO_VERIFY`` knob (unset/0/false/no = off)."""
    env = os.environ if environ is None else environ
    return env.get(VERIFY_ENV, "").strip().lower() not in ("", "0", "false", "no")


class InvariantChecker(SimObserver):
    """Asserts runtime invariants on one machine (and one engine session).

    Use :meth:`install` to attach to a built
    :class:`~repro.testbench.Machine`; every violation is recorded on
    :attr:`violations` and raised as
    :class:`~repro.errors.InvariantViolation` at the point of detection.
    The same instance may also serve as an
    :class:`~repro.engine.session.EngineSession` ``verifier`` for the
    counter-conservation invariant (no machine required for that role).
    """

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        self.checks = 0
        self._machine: Optional[Any] = None
        self._last_time = 0.0

    # -- lifecycle ---------------------------------------------------------------

    def install(self, machine: Any) -> "InvariantChecker":
        """Attach to ``machine``'s simulator."""
        if self._machine is machine:
            return self
        if self._machine is not None:
            raise ReproError("InvariantChecker is already installed on a machine")
        self._machine = machine
        self._last_time = machine.simulator.now
        machine.simulator.attach(self)
        return self

    def uninstall(self) -> None:
        """Detach from the machine's simulator (no-op when not installed)."""
        machine = self._machine
        if machine is None:
            return
        machine.simulator.detach(self)
        self._machine = None

    # -- violation plumbing ------------------------------------------------------

    def _fail(self, invariant: str, message: str, **details) -> None:
        time_s = self._machine.simulator.now if self._machine is not None else 0.0
        violation = InvariantViolation(invariant, message, time_s=time_s, **details)
        self.violations.append(violation)
        raise violation

    # -- simulator observer (sim-monotonic, heap-hygiene) ------------------------

    def after_step(self, simulator: Any, event_time: float) -> None:
        self.checks += 1
        if event_time < self._last_time:
            self._fail(
                "sim-monotonic",
                "event loop moved the clock backwards",
                event_time=event_time,
                previous_time=self._last_time,
            )
        self._last_time = event_time

    def after_run_until(self, simulator: Any) -> None:
        self.checks += 1
        now = simulator.now
        if now < self._last_time:
            self._fail(
                "sim-monotonic",
                "run_until left the clock behind a processed event",
                now=now,
                previous_time=self._last_time,
            )
        self._last_time = now
        for entry_time, cancelled in simulator.pending_entries():
            if cancelled:
                self._fail(
                    "heap-hygiene",
                    "cancelled entry survived the run_until purge",
                    entry_time=entry_time,
                )
            if entry_time < now:
                self._fail(
                    "heap-hygiene",
                    "event heap holds an entry behind the clock",
                    entry_time=entry_time,
                    now=now,
                )

    # -- OCM observer (ocm-roundtrip, ocm-busy-bit) ------------------------------

    def on_ocm(
        self,
        phase: str,
        core_index: int,
        value: int,
        command: Any,
        response: Optional[int],
    ) -> None:
        self.checks += 1
        if phase == "command":
            self._check_ocm_command(core_index, value, command)
        else:
            self._check_ocm_response(core_index, value, command, response)

    def _check_ocm_command(self, core_index: int, value: int, command: Any) -> None:
        if not value & ocm.BUSY_BIT:
            self._fail(
                "ocm-busy-bit",
                "mailbox accepted a command without bit 63 set",
                core=core_index,
                value=value,
            )
        command_byte = (value >> ocm.COMMAND_SHIFT) & ocm.COMMAND_MASK
        if command_byte != command.command:
            self._fail(
                "ocm-roundtrip",
                "decoded command byte disagrees with the written bits",
                core=core_index,
                written=command_byte,
                decoded=command.command,
            )
        plane_bits = (value >> ocm.PLANE_SHIFT) & ocm.PLANE_MASK
        if plane_bits != int(command.plane):
            self._fail(
                "ocm-roundtrip",
                "decoded plane disagrees with the written bits",
                core=core_index,
                written=plane_bits,
                decoded=int(command.plane),
            )
        try:
            reencoded = ocm.encode_offset_field(command.offset_units)
        except ReproError as error:
            self._fail(
                "ocm-roundtrip",
                "decoded offset does not re-encode",
                core=core_index,
                offset_units=command.offset_units,
                error=str(error),
            )
            return
        if reencoded != value & ocm.OFFSET_FIELD_MASK:
            self._fail(
                "ocm-roundtrip",
                "offset field does not survive a decode/encode round trip",
                core=core_index,
                field=value & ocm.OFFSET_FIELD_MASK,
                reencoded=reencoded,
            )
        if ocm.mv_to_units(command.offset_mv) != command.offset_units:
            self._fail(
                "ocm-roundtrip",
                "millivolt view does not convert back to the unit count",
                core=core_index,
                offset_mv=command.offset_mv,
                offset_units=command.offset_units,
            )

    def _check_ocm_response(
        self, core_index: int, value: int, command: Any, response: Optional[int]
    ) -> None:
        if response is None:
            self._fail(
                "ocm-busy-bit",
                "mailbox produced no response value",
                core=core_index,
            )
            return
        if response & ocm.BUSY_BIT:
            self._fail(
                "ocm-busy-bit",
                "response left bit 63 set (completion must clear it)",
                core=core_index,
                response=response,
            )
        plane_bits = (response >> ocm.PLANE_SHIFT) & ocm.PLANE_MASK
        if plane_bits != int(command.plane):
            self._fail(
                "ocm-roundtrip",
                "response plane disagrees with the command plane",
                core=core_index,
                response_plane=plane_bits,
                command_plane=int(command.plane),
            )
        responded_units = ocm.decode_offset_field(response)
        if command.is_write and responded_units != command.offset_units:
            self._fail(
                "ocm-roundtrip",
                "write response does not echo the written offset",
                core=core_index,
                responded_units=responded_units,
                offset_units=command.offset_units,
            )
        try:
            reencoded = ocm.encode_offset_field(responded_units)
        except ReproError as error:
            self._fail(
                "ocm-roundtrip",
                "response offset does not re-encode",
                core=core_index,
                responded_units=responded_units,
                error=str(error),
            )
            return
        if reencoded != response & ocm.OFFSET_FIELD_MASK:
            self._fail(
                "ocm-roundtrip",
                "response offset field does not survive a round trip",
                core=core_index,
                field=response & ocm.OFFSET_FIELD_MASK,
                reencoded=reencoded,
            )

    # -- regulator observer (regulator-causality) --------------------------------

    def on_regulator_request(
        self, regulator: Any, plane: Any, transition: Any, now: float
    ) -> None:
        self.checks += 1
        expected_latency = regulator.latency_for(
            transition.old_offset_mv, transition.new_offset_mv
        )
        if transition.latency_s != expected_latency:
            self._fail(
                "regulator-causality",
                "transition latency disagrees with the direction asymmetry",
                plane=plane.name,
                latency_s=transition.latency_s,
                expected_s=expected_latency,
            )
        if transition.settle_time != now + transition.latency_s:
            self._fail(
                "regulator-causality",
                "settle time is not request time plus latency",
                plane=plane.name,
                settle_time=transition.settle_time,
                request_time=now,
                latency_s=transition.latency_s,
            )
        if transition.latency_s > 0.0:
            applied_now = regulator.applied_offset_mv(plane, now)
            if not regulator.slew and applied_now != transition.old_offset_mv:
                self._fail(
                    "regulator-causality",
                    "offset became electrically effective before its settle latency",
                    plane=plane.name,
                    applied_mv=applied_now,
                    old_mv=transition.old_offset_mv,
                    new_mv=transition.new_offset_mv,
                )
            low = min(transition.old_offset_mv, transition.new_offset_mv)
            high = max(transition.old_offset_mv, transition.new_offset_mv)
            midpoint = regulator.applied_offset_mv(
                plane, now + transition.latency_s / 2.0
            )
            if not low <= midpoint <= high:
                self._fail(
                    "regulator-causality",
                    "mid-window offset escapes the [old, new] envelope",
                    plane=plane.name,
                    midpoint_mv=midpoint,
                    old_mv=transition.old_offset_mv,
                    new_mv=transition.new_offset_mv,
                )
        settled = regulator.applied_offset_mv(plane, transition.settle_time)
        if settled != transition.new_offset_mv:
            self._fail(
                "regulator-causality",
                "offset has not settled to the target at the settle time",
                plane=plane.name,
                applied_mv=settled,
                new_mv=transition.new_offset_mv,
            )

    # -- fault observer (fault-safe-state) ---------------------------------------

    def _violated_fraction(self, fault_model: Any, conditions: Any) -> float:
        """Recompute the violated-path fraction straight from the physics.

        Deliberately bypasses ``FaultModel.violated_fraction`` — the very
        code the injector consumes — so a mutation there cannot satisfy
        its own check.
        """
        vcrit = fault_model.analyzer.critical_voltage(
            conditions.frequency_ghz, temperature_c=fault_model.temperature_c
        )
        sigma_volts = fault_model.model.sigma_mv * 1e-3
        z = (vcrit - conditions.voltage_volts) / sigma_volts
        return 0.5 * (1.0 + math.erf(z / _SQRT2))

    def on_fault_window(
        self, conditions: Any, fault_count: int, crashed: bool, instruction: str
    ) -> None:
        self.checks += 1
        fault_model = self._machine.fault_model
        fraction = self._violated_fraction(fault_model, conditions)
        if fault_count > 0 and fraction < ONSET_FRACTION - _FRACTION_EPS:
            self._fail(
                "fault-safe-state",
                "fault fired in a state the timing physics calls fault-free",
                frequency_ghz=conditions.frequency_ghz,
                voltage_volts=conditions.voltage_volts,
                offset_mv=conditions.offset_mv,
                fraction=fraction,
                onset=ONSET_FRACTION,
                fault_count=fault_count,
                instruction=instruction,
            )
        below_retention = (
            conditions.voltage_volts < fault_model.model.process.v_retention_volts
        )
        crash_expected = (
            below_retention
            or fraction >= fault_model.model.crash_fraction - _FRACTION_EPS
        )
        if crashed and not crash_expected:
            self._fail(
                "fault-safe-state",
                "crash reported above the crash boundary",
                frequency_ghz=conditions.frequency_ghz,
                voltage_volts=conditions.voltage_volts,
                fraction=fraction,
                crash_fraction=fault_model.model.crash_fraction,
            )
        if not crashed and (
            below_retention
            or fraction >= fault_model.model.crash_fraction + _FRACTION_EPS
        ):
            self._fail(
                "fault-safe-state",
                "no crash reported below the crash boundary",
                frequency_ghz=conditions.frequency_ghz,
                voltage_volts=conditions.voltage_volts,
                fraction=fraction,
                crash_fraction=fault_model.model.crash_fraction,
            )

    # -- final sweep -------------------------------------------------------------

    def check_machine(self, machine: Optional[Any] = None) -> None:
        """End-of-run sweep over quiescent machine state.

        Complements the streaming checks: the event heap must be hygienic
        and every core's stored 0x150 value must be a completed response
        (busy bit clear).
        """
        machine = machine if machine is not None else self._machine
        if machine is None:
            raise ReproError("check_machine needs an installed or explicit machine")
        # A cancellation issued after the last run_until window (e.g. a
        # module unloaded while the clock is idle) legitimately leaves
        # its entry parked until the next purge; drain before auditing.
        machine.simulator.prune()
        self.after_run_until(machine.simulator)
        for core in machine.processor.cores:
            stored = machine.processor.msr.read(core.index, MSR_OC_MAILBOX)
            if stored & ocm.BUSY_BIT:
                self._fail(
                    "ocm-busy-bit",
                    "0x150 still reads busy after the run completed",
                    core=core.index,
                    stored=stored,
                )

    # -- engine counter conservation (counter-conservation) ----------------------

    def check_counter_conservation(
        self,
        before: Dict[str, int],
        after: Dict[str, int],
        results: Iterable[Any],
    ) -> None:
        """Session counters must grow by exactly the worker-reported sums.

        ``engine.*`` names are session-local bookkeeping (cache hits, jobs
        executed) and are exempt; every other counter delta must equal the
        sum of the corresponding :class:`JobResult.counters` entries.
        """
        self.checks += 1
        expected: Dict[str, int] = {}
        for result in results:
            for name, value in result.counters.items():
                expected[name] = expected.get(name, 0) + value
        for name in sorted(set(before) | set(after) | set(expected)):
            if name.startswith("engine."):
                continue
            delta = after.get(name, 0) - before.get(name, 0)
            if delta != expected.get(name, 0):
                self._fail(
                    "counter-conservation",
                    "merged counter delta disagrees with worker-reported sum",
                    counter=name,
                    delta=delta,
                    expected=expected.get(name, 0),
                )
