"""Voltage/frequency timeline tracing.

Samples a core's electrical state on a fixed grid of simulated time so
experiments can *see* the countermeasure act: the attacker's write, the
target changing, the poll detecting, the regulator restoring.  Used by
the turnaround experiments and by the safety-invariant property tests.

The tracer is a thin consumer of :mod:`repro.telemetry`: when the
machine's telemetry is enabled, every sample is also emitted as a
``voltage`` counter-track event, so the applied/target offsets chart
alongside the MSR/regulator/countermeasure spans in Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.testbench import Machine


@dataclass(frozen=True)
class TraceSample:
    """One point of the trace."""

    time_s: float
    frequency_ghz: float
    applied_offset_mv: float
    target_offset_mv: float
    voltage_volts: float


@dataclass
class VoltageTracer:
    """Periodic sampler of one core's operating point.

    Parameters
    ----------
    machine:
        The simulated system.
    core_index:
        Core to trace.
    sample_period_s:
        Sampling resolution (defaults to 20 us — fine enough to resolve
        poll periods and regulator latencies).
    """

    machine: Machine
    core_index: int = 0
    sample_period_s: float = 20e-6
    samples: List[TraceSample] = field(default_factory=list)
    _handle: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0:
            raise ConfigurationError("sample period must be positive")

    def start(self) -> None:
        """Begin sampling on the machine's simulator."""
        self._handle = self.machine.simulator.schedule_recurring(
            self.sample_period_s, self._sample
        )

    def stop(self) -> None:
        """Stop sampling."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _sample(self) -> None:
        core = self.machine.processor.core(self.core_index)
        now = self.machine.now
        sample = TraceSample(
            time_s=now,
            frequency_ghz=core.frequency_ghz,
            applied_offset_mv=core.applied_offset_mv(now),
            target_offset_mv=core.target_offset_mv(),
            voltage_volts=core.effective_voltage(now),
        )
        self.samples.append(sample)
        tracer = self.machine.telemetry.tracer
        if tracer is not None:
            track = f"core{self.core_index}"
            tracer.counter_sample(
                "voltage.applied_mv", "voltage", now, sample.applied_offset_mv,
                track=track,
            )
            tracer.counter_sample(
                "voltage.target_mv", "voltage", now, sample.target_offset_mv,
                track=track,
            )

    # -- analysis ----------------------------------------------------------------

    def deepest_applied_offset_mv(self) -> float:
        """The most negative offset that was ever electrically effective."""
        if not self.samples:
            return 0.0
        return min(s.applied_offset_mv for s in self.samples)

    def violations(self, boundary_lookup: Callable[[float], Optional[float]]) -> List[TraceSample]:
        """Samples where the applied state was beyond a boundary.

        ``boundary_lookup`` maps a frequency to the shallowest unsafe
        offset (e.g. ``unsafe_states.effective_boundary_mv``).
        """
        bad = []
        for sample in self.samples:
            boundary = boundary_lookup(sample.frequency_ghz)
            if boundary is not None and sample.applied_offset_mv <= boundary:
                bad.append(sample)
        return bad

    def render(self, *, stride: int = 1) -> str:
        """A compact textual trace (every ``stride``-th sample)."""
        lines = ["time(us)  freq(GHz)  target(mV)  applied(mV)  V(mV)"]
        for sample in self.samples[::stride]:
            lines.append(
                f"{sample.time_s * 1e6:8.0f}  {sample.frequency_ghz:9.1f}  "
                f"{sample.target_offset_mv:10.0f}  {sample.applied_offset_mv:11.0f}  "
                f"{sample.voltage_volts * 1e3:5.0f}"
            )
        return "\n".join(lines)
