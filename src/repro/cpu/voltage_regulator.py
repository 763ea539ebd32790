"""SVID-style voltage regulator with write-to-apply latency.

The paper identifies "the delay between a successful write to MSR 0x150
and the actual change in voltage by the voltage regulator" as one of the
two contributors to the countermeasure's turnaround time (Sec. 5, citing
Plundervolt's measurements — Plundervolt conservatively waits ~650 us
after each mailbox write).  We model the mailbox/regulator handshake as a
hold-then-step: the supply keeps its old value for the latency window and
then steps to the target.  Lowering the supply is slow (the handshake plus
a controlled downward ramp); *raising* it is much faster, because
regulators prioritise upward slew to protect against droop — which is
exactly why a remediation write (which raises the voltage) takes effect
quickly.

An optional linear-slew mode interpolates during the window instead of
stepping, for sensitivity studies in the turnaround ablation.

The regulator is *time-driven*: callers pass the current simulation time
to every query, so the class has no dependency on the event scheduler and
is trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.cpu.ocm import VoltagePlane
from repro.telemetry import Tracer


@dataclass
class _Transition:
    """One in-flight offset change on a plane."""

    request_time: float
    latency_s: float
    old_offset_mv: float
    new_offset_mv: float

    @property
    def settle_time(self) -> float:
        """Absolute time at which the new offset is fully applied."""
        return self.request_time + self.latency_s


@dataclass
class VoltageRegulator:
    """Per-plane offset state with asymmetric settle latency.

    Parameters
    ----------
    latency_s:
        Settle time when the request *lowers* the voltage (deeper offset).
    raise_latency_s:
        Settle time when the request *raises* the voltage; defaults to an
        eighth of the lowering latency.
    slew:
        If true, the offset moves linearly from old to new over the
        window; if false (default) it holds the old value and steps at the
        end of the window — the hold-then-step behaviour the mailbox
        handshake exhibits.
    tracer:
        Optional telemetry tracer; every :meth:`request_offset` then
        emits a ``regulator.ramp`` span from the request to the settle
        time, on the ``track`` swimlane.
    track:
        Trace track name (the owning core sets ``core<N>``).
    """

    latency_s: float
    raise_latency_s: Optional[float] = None
    slew: bool = False
    tracer: Optional[Tracer] = None
    track: str = "regulator"
    _transitions: Dict[VoltagePlane, _Transition] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError("regulator latency must be non-negative")
        if self.raise_latency_s is None:
            self.raise_latency_s = self.latency_s / 8.0
        if self.raise_latency_s < 0:
            raise ConfigurationError("raise latency must be non-negative")

    def latency_for(self, old_offset_mv: float, new_offset_mv: float) -> float:
        """Settle latency for a transition, by direction."""
        assert self.raise_latency_s is not None
        if new_offset_mv >= old_offset_mv:
            return self.raise_latency_s
        return self.latency_s

    def request_offset(self, plane: VoltagePlane, offset_mv: float, now: float) -> float:
        """Request a new offset; returns the time it will have settled."""
        current = self.applied_offset_mv(plane, now)
        transition = _Transition(
            request_time=now,
            latency_s=self.latency_for(current, offset_mv),
            old_offset_mv=current,
            new_offset_mv=offset_mv,
        )
        self._transitions[plane] = transition
        if self.tracer is not None:
            self.tracer.complete(
                "regulator.ramp",
                "regulator",
                now,
                transition.latency_s,
                track=self.track,
                plane=plane.name,
                from_mv=current,
                to_mv=offset_mv,
            )
        return transition.settle_time

    def transition(self, plane: VoltagePlane) -> Optional[_Transition]:
        """The plane's most recent request (``None`` before the first)."""
        return self._transitions.get(plane)

    def target_offset_mv(self, plane: VoltagePlane) -> float:
        """The most recently requested offset (what a read-back reports)."""
        transition = self._transitions.get(plane)
        return transition.new_offset_mv if transition else 0.0

    def applied_offset_mv(self, plane: VoltagePlane, now: float) -> float:
        """The electrically effective offset at time ``now``."""
        transition = self._transitions.get(plane)
        if transition is None:
            return 0.0
        # Compare against the settle time rather than re-deriving the
        # elapsed window: ``(request_time + latency_s) - request_time``
        # can round below ``latency_s``, which would leave the old offset
        # visible at the exact instant ``settle_time``/``is_settled``
        # report the transition as complete.
        if transition.latency_s == 0.0 or now >= transition.settle_time:
            return transition.new_offset_mv
        if not self.slew:
            return transition.old_offset_mv
        progress = min(1.0, (now - transition.request_time) / transition.latency_s)
        return (
            transition.old_offset_mv
            + (transition.new_offset_mv - transition.old_offset_mv) * progress
        )

    def settle_time(self, plane: VoltagePlane) -> float:
        """Absolute time at which the plane's last request settles."""
        transition = self._transitions.get(plane)
        if transition is None:
            return 0.0
        return transition.settle_time

    def is_settled(self, plane: VoltagePlane, now: float) -> bool:
        """Whether the plane has reached its target offset."""
        return now >= self.settle_time(plane)

    def reset(self) -> None:
        """Drop all offsets (machine reboot)."""
        self._transitions.clear()
