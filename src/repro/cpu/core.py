"""A single simulated CPU core.

Combines the P-state machine, the per-core voltage regulator and the
factory V/f curve into the quantity everything else cares about: the
core's *effective operating conditions* — (frequency, voltage) — at a
point in simulated time.

Note on voltage-plane scope: on real client parts the core voltage plane
is package-wide; the paper's polling module nevertheless inspects "each
CPU core" (Algo 3, line 3).  We model the regulator per core, which is
strictly more general (a package-wide plane is the special case where the
attacker writes every core the same offset) and keeps the per-core polling
loop meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.models import CPUModel
from repro.cpu.ocm import VoltagePlane
from repro.cpu.pstates import PStateMachine
from repro.cpu.vf_curve import VFCurve
from repro.cpu.voltage_regulator import VoltageRegulator
from repro.faults.margin import OperatingConditions
from repro.telemetry import Telemetry


@dataclass
class Core:
    """One core of a :class:`~repro.cpu.processor.SimulatedProcessor`."""

    index: int
    model: CPUModel
    vf_curve: VFCurve
    telemetry: Optional[Telemetry] = None
    pstate: PStateMachine = field(init=False)
    regulator: VoltageRegulator = field(init=False)
    _snapshot: Optional[OperatingConditions] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.pstate = PStateMachine(self.model.frequency_table)
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        self.regulator = VoltageRegulator(
            latency_s=self.model.regulator_latency_s,
            raise_latency_s=self.model.regulator_raise_latency_s,
            tracer=tracer,
            track=f"core{self.index}",
        )

    @property
    def frequency_ghz(self) -> float:
        """Current P-state frequency."""
        return self.pstate.frequency_ghz

    @property
    def ratio(self) -> int:
        """Current P-state ratio."""
        return self.pstate.ratio

    def set_frequency(self, frequency_ghz: float, now: float = 0.0) -> None:
        """Switch P-state (validated against the frequency table)."""
        self.pstate.set_frequency(frequency_ghz, now)

    def request_offset(self, plane: VoltagePlane, offset_mv: float, now: float) -> float:
        """Forward an OCM offset request to the regulator."""
        return self.regulator.request_offset(plane, offset_mv, now)

    def target_offset_mv(self, plane: VoltagePlane = VoltagePlane.CORE) -> float:
        """Last requested offset on a plane (what 0x150 reads back)."""
        return self.regulator.target_offset_mv(plane)

    def applied_offset_mv(self, now: float, plane: VoltagePlane = VoltagePlane.CORE) -> float:
        """Electrically effective offset at time ``now``."""
        return self.regulator.applied_offset_mv(plane, now)

    def effective_voltage(self, now: float) -> float:
        """Core supply voltage (V): factory base + applied core offset."""
        return self.vf_curve.effective_voltage(
            self.frequency_ghz, self.applied_offset_mv(now)
        )

    def conditions(self, now: float) -> OperatingConditions:
        """Snapshot the core's electrical operating point."""
        frequency = self.frequency_ghz
        offset = self.applied_offset_mv(now)
        snapshot = self._snapshot
        # A settled regulator hands back the very same offset object, so
        # an unchanged point reuses the last (immutable) snapshot.
        if (
            snapshot is not None
            and snapshot.offset_mv is offset
            and snapshot.frequency_ghz == frequency
        ):
            return snapshot
        snapshot = OperatingConditions(
            frequency_ghz=frequency,
            voltage_volts=self.vf_curve.effective_voltage(frequency, offset),
            offset_mv=offset,
        )
        self._snapshot = snapshot
        return snapshot

    def reset(self) -> None:
        """Reboot-time reset: base P-state, zero offsets."""
        self.pstate.reset()
        self.regulator.reset()
