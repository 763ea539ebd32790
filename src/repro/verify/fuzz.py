"""Deterministic adversarial-schedule fuzzing under the invariant checker.

A *schedule* is a flat list of attacker/benign actions — undervolt ramps,
raw OCM write storms (including malformed commands), P-state churn,
module load/unload races, polling-period retunes, instruction windows and
plain time advances — replayed against a freshly built
:class:`~repro.testbench.Machine` with an
:class:`~repro.verify.invariants.InvariantChecker` installed on every
hook.  Domain errors the substrate is *specified* to raise
(``OCMProtocolError`` for a malformed mailbox command, a machine check at
a crash-boundary operating point, …) are expected and recorded; an
:class:`~repro.errors.InvariantViolation` is the fuzzer's finding.

Everything is deterministic: schedules are generated from the engine's
named seed streams, machines are seeded from the same streams, and a
schedule's canonical dict rides in a flight dump's header, so a
violating case replays bit-for-bit from its dump (see
:mod:`repro.verify.shrink` for minimization).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cpu import ocm
from repro.cpu.models import model_by_codename
from repro.cpu.msr import IA32_PERF_STATUS, MSR_OC_MAILBOX
from repro.errors import (
    ConfigurationError,
    CoreIndexError,
    FrequencyError,
    InvalidPlaneError,
    InvalidVoltageOffsetError,
    InvariantViolation,
    KernelModuleError,
    MachineCheckError,
    MSRError,
)
from repro.telemetry import Telemetry
from repro.verify.invariants import InvariantChecker

#: Schema tag embedded in repro artifacts so stale ones fail loudly.
SCHEDULE_SCHEMA_VERSION = 1

#: Domain errors a schedule is allowed to provoke (the substrate's
#: specified rejections); anything else propagates out of the run.
EXPECTED_ERRORS = (
    ConfigurationError,
    CoreIndexError,
    FrequencyError,
    InvalidPlaneError,
    InvalidVoltageOffsetError,
    KernelModuleError,
    MSRError,
)

#: Action kinds and their relative generation weights.
ACTION_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("advance", 22.0),
    ("undervolt", 18.0),
    ("window", 12.0),
    ("pstate", 10.0),
    ("ocm_raw", 10.0),
    ("ocm_read", 6.0),
    ("read_status", 4.0),
    ("module_load", 7.0),
    ("module_unload", 5.0),
    ("set_period", 4.0),
    ("reboot", 2.0),
)


@dataclass(frozen=True)
class FuzzAction:
    """One step of an adversarial schedule (JSON-round-trippable)."""

    kind: str
    core: int = 0
    offset_mv: int = 0
    value: int = 0
    frequency_ghz: float = 0.0
    period_us: int = 0
    dt_us: int = 0
    ops: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form (every field, sorted on serialization)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzAction":
        return cls(**data)


@dataclass(frozen=True)
class FuzzSchedule:
    """A complete replayable fuzz case: machine recipe plus action list."""

    codename: str
    machine_seed: int
    actions: Tuple[FuzzAction, ...]
    #: Canonical ``UnsafeStateSet.to_dict()`` JSON; ``None`` turns the
    #: module actions into recorded no-ops (the machine still fuzzes).
    unsafe_json: Optional[str] = None
    #: Provenance of generated schedules ({"seed": ..., "case_index": ...}).
    source: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEDULE_SCHEMA_VERSION,
            "codename": self.codename,
            "machine_seed": self.machine_seed,
            "unsafe_json": self.unsafe_json,
            "source": self.source,
            "actions": [action.to_dict() for action in self.actions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzSchedule":
        schema = data.get("schema")
        if schema != SCHEDULE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"fuzz schedule schema {schema!r} != {SCHEDULE_SCHEMA_VERSION}"
            )
        return cls(
            codename=data["codename"],
            machine_seed=int(data["machine_seed"]),
            actions=tuple(FuzzAction.from_dict(a) for a in data["actions"]),
            unsafe_json=data.get("unsafe_json"),
            source=data.get("source"),
        )


def generate_schedule(stream, codename: str, num_actions: int) -> Tuple[FuzzAction, ...]:
    """Draw ``num_actions`` actions from a named seed stream.

    Same stream, same codename, same count → the identical schedule, on
    every platform: all randomness flows through the stream's generator
    and every parameter is reduced to an int (or a table frequency).
    """
    model = model_by_codename(codename)
    rng = stream.rng()
    kinds = [kind for kind, _ in ACTION_WEIGHTS]
    total = sum(weight for _, weight in ACTION_WEIGHTS)
    probabilities = [weight / total for _, weight in ACTION_WEIGHTS]
    frequencies = list(model.frequency_table.frequencies_ghz())
    actions: List[FuzzAction] = []
    for _ in range(num_actions):
        kind = kinds[int(rng.choice(len(kinds), p=probabilities))]
        core = int(rng.integers(0, model.core_count))
        if kind == "advance":
            actions.append(FuzzAction(kind, dt_us=int(rng.integers(50, 2001))))
        elif kind == "undervolt":
            actions.append(
                FuzzAction(kind, core=core, offset_mv=-int(rng.integers(0, 281)))
            )
        elif kind == "window":
            actions.append(
                FuzzAction(kind, core=core, ops=int(rng.integers(1_000, 50_001)))
            )
        elif kind == "pstate":
            frequency = frequencies[int(rng.integers(0, len(frequencies)))]
            actions.append(FuzzAction(kind, core=core, frequency_ghz=frequency))
        elif kind == "ocm_raw":
            actions.append(FuzzAction(kind, core=core, value=_raw_ocm_value(rng)))
        elif kind == "ocm_read":
            plane = int(rng.integers(0, 5))
            actions.append(
                FuzzAction(kind, core=core, value=ocm.encode_read_request(plane))
            )
        elif kind == "read_status":
            actions.append(FuzzAction(kind, core=core))
        elif kind == "set_period":
            actions.append(FuzzAction(kind, period_us=int(rng.integers(100, 2001))))
        else:  # module_load / module_unload / reboot
            actions.append(FuzzAction(kind))
    return tuple(actions)


def _raw_ocm_value(rng) -> int:
    """A raw 0x150 write: valid, malformed, or protocol-violating."""
    flavor = int(rng.integers(0, 5))
    plane = int(rng.integers(0, 5))
    if flavor == 0:  # well-formed write, full encodable unit range
        units = int(rng.integers(ocm.MIN_OFFSET_UNITS, ocm.MAX_OFFSET_UNITS + 1))
        return ocm.WRITE_COMMAND_BASE | ocm.encode_offset_field(units) | (
            plane << ocm.PLANE_SHIFT
        )
    if flavor == 1:  # well-formed read request
        return ocm.encode_read_request(plane)
    if flavor == 2:  # arbitrary command byte (mostly unknown commands)
        byte = int(rng.integers(0, 256))
        return ocm.BUSY_BIT | (byte << ocm.COMMAND_SHIFT) | (plane << ocm.PLANE_SHIFT)
    if flavor == 3:  # busy bit clear: the mailbox must reject it
        return int(rng.integers(0, 1 << 62))
    # flavor == 4: reserved plane select (5-7)
    bad_plane = int(rng.integers(5, 8))
    return ocm.WRITE_COMMAND_BASE | (bad_plane << ocm.PLANE_SHIFT)


def schedule_for_job(job) -> FuzzSchedule:
    """The deterministic schedule a :class:`repro.engine.jobs.FuzzJob` runs."""
    stream = job.stream()
    machine_seed = stream.child("machine").integer()
    actions = generate_schedule(
        stream.child("actions"), job.codename, job.num_actions
    )
    return FuzzSchedule(
        codename=job.codename,
        machine_seed=machine_seed,
        actions=actions,
        unsafe_json=job.unsafe_json,
        source={"seed": int(job.seed), "case_index": int(job.case_index)},
    )


def run_schedule(
    schedule: FuzzSchedule, *, telemetry: Optional[Telemetry] = None
) -> Dict[str, Any]:
    """Replay a schedule under the invariant checker.

    Returns a JSON-safe summary; ``summary["violation"]`` is ``None`` for
    a clean run or the violation's description (with the index of the
    offending action) when an invariant tripped.  Expected domain errors
    are tallied, and a machine check triggers the same reboot-and-continue
    recovery the characterization harness uses.

    No dump is written here, so a shrinker's trial replays leave no
    files behind: ``FuzzJob.run`` writes a violating case's flight dump
    and names it in ``summary["flight_dump"]``.
    """
    return replay_schedule(schedule, telemetry=telemetry)[0]


def replay_schedule(
    schedule: FuzzSchedule, *, telemetry: Optional[Telemetry] = None
) -> Tuple[Dict[str, Any], Any]:
    """:func:`run_schedule`'s summary plus the machine it ran on."""
    from repro.core.unsafe_states import UnsafeStateSet
    from repro.testbench import Machine

    model = model_by_codename(schedule.codename)
    telemetry = telemetry or Telemetry()
    machine = Machine.build(
        model, seed=schedule.machine_seed, telemetry=telemetry, verify=False
    )
    checker = InvariantChecker().install(machine)
    unsafe = (
        UnsafeStateSet.from_dict(json.loads(schedule.unsafe_json))
        if schedule.unsafe_json
        else None
    )
    expected: List[Dict[str, Any]] = []
    skipped: List[int] = []
    violation: Optional[Dict[str, Any]] = None
    applied = 0
    for index, action in enumerate(schedule.actions):
        try:
            if _apply_action(machine, action, unsafe):
                applied += 1
            else:
                skipped.append(index)
        except MachineCheckError:
            expected.append({"index": index, "error": "MachineCheckError"})
            machine.reboot()
        except InvariantViolation as error:
            violation = dict(error.to_dict(), action_index=index)
            break
        except EXPECTED_ERRORS as error:
            expected.append({"index": index, "error": type(error).__name__})
    if violation is None:
        try:
            checker.check_machine()
        except InvariantViolation as error:
            violation = dict(error.to_dict(), action_index=len(schedule.actions))
    summary = {
        "codename": schedule.codename,
        "machine_seed": schedule.machine_seed,
        "source": schedule.source,
        "actions": len(schedule.actions),
        "applied": applied,
        "skipped": skipped,
        "expected_errors": expected,
        "crashes": machine.crash_count,
        "checks": checker.checks,
        "sim_time_s": machine.now,
        "violation": violation,
        "flight_dump": None,
    }
    return summary, machine


def _apply_action(machine, action: FuzzAction, unsafe) -> bool:
    """Apply one action; returns False when it was a recorded no-op."""
    kind = action.kind
    if kind == "advance":
        machine.advance(action.dt_us * 1e-6)
    elif kind == "undervolt":
        machine.write_voltage_offset(action.offset_mv, action.core)
    elif kind == "window":
        machine.run_imul_window(action.core, iterations=action.ops)
    elif kind == "pstate":
        machine.set_frequency(action.frequency_ghz, core_index=action.core)
    elif kind in ("ocm_raw", "ocm_read"):
        machine.msr_driver.write(action.core, MSR_OC_MAILBOX, action.value)
        if kind == "ocm_read":
            machine.msr_driver.read(action.core, MSR_OC_MAILBOX)
    elif kind == "read_status":
        machine.msr_driver.read(action.core, IA32_PERF_STATUS)
    elif kind == "module_load":
        if unsafe is None:
            return False
        from repro.core.polling_module import PollingCountermeasure

        # A fresh instance per load exercises the reload/lifetime path
        # (the satellite-2 regression surface).
        machine.modules.insmod(PollingCountermeasure(machine, unsafe))
    elif kind == "module_unload":
        from repro.core.polling_module import PollingCountermeasure

        machine.modules.rmmod(PollingCountermeasure.name)
    elif kind == "set_period":
        from repro.core.polling_module import PollingCountermeasure

        if not machine.modules.is_loaded(PollingCountermeasure.name):
            return False
        module = machine.modules.get(PollingCountermeasure.name)
        module.set_period(action.period_us * 1e-6)
    elif kind == "reboot":
        machine.reboot()
    else:
        raise ConfigurationError(f"unknown fuzz action kind {kind!r}")
    return True
