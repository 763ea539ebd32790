"""The kernel MSR driver (``/dev/cpu/N/msr`` equivalent).

The paper's countermeasure uses "Intel's MSR memory mapped I/O interface"
through ioctl calls, and names the ioctl cost as one of the two
contributors to countermeasure turnaround time (Sec. 5, item 1).  The
driver therefore charges simulated time for every access when bound to a
simulator, in addition to forwarding to the architectural ``rdmsr`` /
``wrmsr`` of the processor.

Accounting: the driver tallies accesses and total time spent, which the
SPEC overhead harness uses to charge the polling module's CPU-time theft
against benchmark throughput (Table 2).  Every access also increments
the ``msr.reads``/``msr.writes`` counters of the bound
:class:`~repro.telemetry.Telemetry`, and when it has a tracer emits an
``msr.read``/``msr.write`` span whose duration is the ioctl latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.processor import SimulatedProcessor
from repro.kernel.sim import Simulator
from repro.telemetry import Telemetry


@dataclass
class MSRAccessStats:
    """Counters for driver usage."""

    reads: int = 0
    writes: int = 0
    ignored_writes: int = 0
    busy_seconds: float = 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.ignored_writes = 0
        self.busy_seconds = 0.0


@dataclass
class MSRDriver:
    """Synchronous MSR access with per-call ioctl latency.

    Parameters
    ----------
    processor:
        The simulated processor whose MSRs are exposed.
    simulator:
        Optional event simulator; when present, each access is *not*
        advanced on the global clock here (callers sleeping in tasks do
        that with :meth:`access_latency_s`) but the busy time is recorded.
    latency_s:
        Per-call latency; defaults to the CPU model's fused value.
    telemetry:
        Observability hook; defaults to a fresh untraced
        ``Telemetry(max_events=0)`` of the driver's own.
    """

    processor: SimulatedProcessor
    simulator: Optional[Simulator] = None
    latency_s: Optional[float] = None
    stats: MSRAccessStats = field(default_factory=MSRAccessStats)
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        if self.latency_s is None:
            self.latency_s = self.processor.model.msr_ioctl_latency_s
        if self.telemetry is None:
            self.telemetry = Telemetry(max_events=0)
        telemetry = self.telemetry
        self._tracer = telemetry.tracer
        self._reads_counter = telemetry.registry.counter("msr.reads")
        self._writes_counter = telemetry.registry.counter("msr.writes")

    @property
    def access_latency_s(self) -> float:
        """ioctl cost of one read or write, seconds."""
        assert self.latency_s is not None
        return self.latency_s

    def _now(self) -> float:
        """Current simulation time (0.0 when driven without a simulator)."""
        return self.simulator.now if self.simulator is not None else 0.0

    def read(self, core_index: int, address: int) -> int:
        """``rdmsr`` through the driver; charges ioctl latency."""
        latency = self.latency_s
        stats = self.stats
        stats.reads += 1
        stats.busy_seconds += latency
        self._reads_counter.inc()
        value = self.processor.rdmsr(core_index, address)
        if self._tracer is not None:
            self._tracer.complete(
                "msr.read",
                "msr",
                self._now(),
                latency,
                track=f"core{core_index}",
                address=f"0x{address:x}",
            )
        return value

    def write(self, core_index: int, address: int, value: int) -> bool:
        """``wrmsr`` through the driver; charges ioctl latency.

        Returns ``False`` when a microcode hook ignored the write.
        """
        self.stats.writes += 1
        self.stats.busy_seconds += self.access_latency_s
        self._writes_counter.inc()
        stored = self.processor.wrmsr(core_index, address, value)
        if not stored:
            self.stats.ignored_writes += 1
        if self._tracer is not None:
            self._tracer.complete(
                "msr.write",
                "msr",
                self._now(),
                self.access_latency_s,
                track=f"core{core_index}",
                address=f"0x{address:x}",
                stored=stored,
            )
        return stored
