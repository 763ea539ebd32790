"""Algorithm 3: the polling countermeasure kernel module.

The deployed module polls, for each CPU core, MSR 0x198 (current
frequency/voltage) and MSR 0x150 (current voltage offset); if the observed
(frequency, offset) pair lies in the characterized unsafe set, it writes a
safe offset back to 0x150, forcing the system into a safe state
(Sec. 4.3).

Faithfulness notes:

* every MSR access goes through the kernel MSR driver and is charged its
  ioctl latency — contributor (1) to the turnaround time of Sec. 5;
* the remediation write lands in the voltage regulator and only becomes
  electrically effective after the settle latency — contributor (2);
* reading the current offset follows the full overclocking-mailbox
  protocol (read-request command, then ``rdmsr``), costing two driver
  calls, unless ``fast_offset_read`` is set.

The module's *load state* is what the paper proposes adding to SGX
attestation reports; :class:`~repro.kernel.module.ModuleRegistry` plus
:mod:`repro.sgx.attestation` close that loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.core.encoding import CoreStatus, decode_core_status, offset_voltage, read_request
from repro.core.policy import ClampToBoundary, SafeStatePolicy
from repro.core.unsafe_states import UnsafeStateSet
from repro.cpu.msr import IA32_PERF_STATUS, MSR_OC_MAILBOX
from repro.cpu.ocm import VoltagePlane
from repro.kernel.module import KernelModule
from repro.kernel.sim import RecurringEvent
from repro.telemetry import Registry
from repro.testbench import Machine

#: Default polling period: 500 us.  The period must undercut the voltage
#: regulator's apply delay (~650 us) so an unsafe *target* written to
#: MSR 0x150 is detected and rewritten before it ever becomes electrically
#: effective; at the same time the period bounds the module's CPU theft to
#: the sub-percent figure of Table 2.
DEFAULT_PERIOD_S = 500e-6

#: Telemetry histogram recording, per remediation, the detection-to-settled
#: latency: the ioctl chain plus the regulator raise latency (the Sec. 5
#: turnaround decomposition, minus the polling quantum).
TURNAROUND_HISTOGRAM = "countermeasure.turnaround_s"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RemediationEvent:
    """One unsafe-state detection and the corrective write."""

    time_s: float
    core_index: int
    observed: CoreStatus
    restored_offset_mv: float


class PollingStats:
    """Counters for one module lifetime, backed by telemetry.

    The polls / core-checks / detections tallies live in
    :class:`~repro.telemetry.Registry` counters
    (``countermeasure.polls`` ...), so ``repro status`` dumps and test
    assertions read one source of truth.  When the owning machine's
    telemetry is disabled, the stats fall back to a private registry so
    the counts remain exact either way.  The original attribute API
    (``stats.polls`` etc.) is preserved as read-only properties.
    """

    def __init__(self, registry: Optional[Registry] = None) -> None:
        if registry is None or not registry.enabled:
            registry = Registry()
        self.registry = registry
        self._polls = registry.counter("countermeasure.polls")
        self._core_checks = registry.counter("countermeasure.core_checks")
        self._detections = registry.counter("countermeasure.detections")
        self.remediations: List[RemediationEvent] = []
        # The registry counters are shared across module lifetimes (that
        # sharing is the telemetry contract), so per-lifetime reporting
        # subtracts a baseline snapshotted at construction and re-taken
        # on every (re)load — without it a reloaded module starts its
        # life claiming the previous lifetime's polls and detections.
        self._polls_base = self._polls.value
        self._core_checks_base = self._core_checks.value
        self._detections_base = self._detections.value
        self._frozen: Optional[tuple] = None

    def begin_lifetime(self) -> None:
        """Re-baseline the shared counters at a module (re)load.

        The registry totals keep accumulating (``repro status`` sees the
        machine-wide truth); the ``polls``/``core_checks``/``detections``
        properties and the remediation log report this lifetime only.
        """
        self._polls_base = self._polls.value
        self._core_checks_base = self._core_checks.value
        self._detections_base = self._detections.value
        self._frozen = None
        self.remediations.clear()

    def end_lifetime(self) -> None:
        """Freeze the per-lifetime readings at module unload.

        The shared counters keep counting for whoever polls next; without
        the freeze an unloaded module's lifetime view would silently grow
        with a successor's activity.
        """
        self._frozen = (self.polls, self.core_checks, self.detections)

    @property
    def polls(self) -> int:
        """Poll-loop iterations since load (``countermeasure.polls``)."""
        if self._frozen is not None:
            return self._frozen[0]
        return self._polls.value - self._polls_base

    @property
    def core_checks(self) -> int:
        """Per-core checks since load (``countermeasure.core_checks``)."""
        if self._frozen is not None:
            return self._frozen[1]
        return self._core_checks.value - self._core_checks_base

    @property
    def detections(self) -> int:
        """Unsafe-state detections since load (``countermeasure.detections``)."""
        if self._frozen is not None:
            return self._frozen[2]
        return self._detections.value - self._detections_base

    def record_poll(self) -> None:
        """Count one poll-loop iteration."""
        self._polls.inc()

    def record_core_check(self) -> None:
        """Count one per-core MSR inspection."""
        self._core_checks.inc()

    def record_detection(self) -> None:
        """Count one unsafe-state detection."""
        self._detections.inc()


class PollingCountermeasure(KernelModule):
    """The paper's countermeasure, as a loadable kernel module.

    Parameters
    ----------
    machine:
        The simulated system to protect.
    unsafe_states:
        Characterization output of Algo 2 for this system.
    period_s:
        Polling period of the module's kthread.
    policy:
        Safe-state restoration policy (default: clamp to the per-frequency
        boundary, preserving benign undervolts).
    fast_offset_read:
        Read 0x150's response register directly (one driver call per
        core, the way Algo 3 is written).  Set to False to issue the full
        OCM read-request command first (two driver calls), the pedantic
        mailbox protocol.
    period_jitter:
        Relative scheduling jitter of the kthread (0.2 = each interval is
        drawn uniformly from period*[0.8, 1.2]).  Models kernel scheduling
        noise; prevention holds as long as the *maximum* jittered interval
        still undercuts the regulator's apply delay.
    detection_margin_mv:
        Conservative widening of the unsafe-set membership test: offsets
        within this many millivolts *above* the observed fault boundary
        are treated as unsafe too.  The empirical boundary is a stochastic
        estimate — cells just above the first observed fault may simply
        have sampled zero faults during characterization — so a module
        that trusts it verbatim leaves a few-mV sliver of genuinely
        faultable states unguarded.  The margin must stay below the
        restoration policies' margin so remediated states are not
        re-flagged.
    """

    name = "plug_your_volt"

    def __init__(
        self,
        machine: Machine,
        unsafe_states: UnsafeStateSet,
        *,
        period_s: float = DEFAULT_PERIOD_S,
        policy: Optional[SafeStatePolicy] = None,
        fast_offset_read: bool = True,
        period_jitter: float = 0.0,
        detection_margin_mv: float = 10.0,
    ) -> None:
        super().__init__()
        if period_s <= 0:
            raise ConfigurationError("polling period must be positive")
        if not 0.0 <= period_jitter < 1.0:
            raise ConfigurationError("period_jitter must lie in [0, 1)")
        if detection_margin_mv < 0:
            raise ConfigurationError("detection margin must be non-negative")
        if unsafe_states.is_empty:
            raise ConfigurationError(
                "refusing to deploy with an empty unsafe set: run Algo 2 first"
            )
        self._machine = machine
        self._unsafe_states = unsafe_states
        self._period_s = period_s
        self._policy = policy or ClampToBoundary()
        self._fast_offset_read = fast_offset_read
        self._period_jitter = period_jitter
        self._detection_margin_mv = detection_margin_mv
        self._recurring: Optional[RecurringEvent] = None
        self._jitter_event = None
        self.stats = PollingStats(machine.telemetry.registry)
        self._tracer = machine.telemetry.tracer
        self._trace_on = self._tracer.enabled
        self._turnaround = self.stats.registry.histogram(TURNAROUND_HISTOGRAM)
        # Like the stats counters, the turnaround histogram is shared
        # across lifetimes; track a per-lifetime sample baseline so a
        # reloaded module does not double-count the previous lifetime's
        # samples in its own reporting.
        self._turnaround_base = self._turnaround.count
        self._turnaround_frozen: Optional[int] = None

    @property
    def period_s(self) -> float:
        """Polling period in seconds."""
        return self._period_s

    def set_period(self, period_s: float) -> None:
        """Retune the polling period at runtime (sysfs store path).

        If the kthread is running it is re-armed at the new interval.
        """
        if period_s <= 0:
            raise ConfigurationError("polling period must be positive")
        self._period_s = period_s
        if self._recurring is not None:
            self._recurring.cancel()
            self._recurring = self._machine.simulator.schedule_recurring(
                period_s, self._poll_once
            )

    @property
    def policy(self) -> SafeStatePolicy:
        """The active restoration policy."""
        return self._policy

    @property
    def unsafe_states(self) -> UnsafeStateSet:
        """The characterization the module enforces."""
        return self._unsafe_states

    # -- KernelModule interface ---------------------------------------------------

    def on_load(self) -> None:
        """Start the polling kthread (Algo 3's ``while True``)."""
        # Defensive: a leftover kthread from a previous lifetime (e.g. a
        # load that raced an unload) would double-poll and double-count
        # every histogram sample once a second one is armed.
        self._disarm()
        self.stats.begin_lifetime()
        self._turnaround_base = self._turnaround.count
        self._turnaround_frozen = None
        if self._period_jitter > 0.0:
            self._arm_jittered()
        else:
            self._recurring = self._machine.simulator.schedule_recurring(
                self._period_s, self._poll_once
            )
        logger.info(
            "plug_your_volt loaded: period=%.0fus policy=%s cores=%d",
            self._period_s * 1e6,
            self._policy.name,
            len(self._machine.processor.cores),
        )

    def on_unload(self) -> None:
        """Stop the polling kthread."""
        self._disarm()
        self._turnaround_frozen = self.turnaround_samples()
        self.stats.end_lifetime()
        logger.info(
            "plug_your_volt unloaded: polls=%d detections=%d",
            self.stats.polls,
            self.stats.detections,
        )

    # -- the polling loop body ------------------------------------------------------

    def _disarm(self) -> None:
        """Cancel the kthread's pending events, whichever mode armed them."""
        if self._recurring is not None:
            self._recurring.cancel()
            self._recurring = None
        if self._jitter_event is not None:
            self._jitter_event.cancel()
            self._jitter_event = None

    def turnaround_samples(self) -> int:
        """Turnaround-histogram samples recorded this lifetime.

        Frozen at unload, like the stats counters: the shared histogram
        keeps accumulating for later lifetimes.
        """
        if self._turnaround_frozen is not None:
            return self._turnaround_frozen
        return self._turnaround.count - self._turnaround_base

    def _arm_jittered(self) -> None:
        """Schedule the next jittered poll interval."""
        jitter = self._period_jitter
        factor = 1.0 + float(self._machine.rng.uniform(-jitter, jitter))
        self._jitter_event = self._machine.simulator.schedule(
            self._period_s * factor, self._jittered_fire
        )

    def _jittered_fire(self) -> None:
        self._poll_once()
        if self.loaded:
            self._arm_jittered()

    def _poll_once(self) -> None:
        """One iteration of Algo 3's outer loop: check every core."""
        self.stats.record_poll()
        now = self._machine.now
        for core in self._machine.processor.cores:
            self._check_core(core.index)
        if self._trace_on:
            self._tracer.complete(
                "countermeasure.poll", "countermeasure", now,
                self.cpu_time_per_poll_s(), track="countermeasure",
            )

    def _check_core(self, core_index: int) -> None:
        """Algo 3, lines 4-7 for one core."""
        driver = self._machine.msr_driver
        self.stats.record_core_check()
        perf_value = driver.read(core_index, IA32_PERF_STATUS)  # line 4
        if not self._fast_offset_read:
            driver.write(core_index, MSR_OC_MAILBOX, read_request(plane=0))
        mailbox_value = driver.read(core_index, MSR_OC_MAILBOX)  # line 5
        status = decode_core_status(perf_value, mailbox_value)
        probe_offset = status.offset_mv - self._detection_margin_mv
        if not self._unsafe_states.is_unsafe(status.frequency_ghz, probe_offset):
            return  # line 6: not in (margin-widened) unsafe set
        now = self._machine.now
        self.stats.record_detection()
        if self._trace_on:
            self._tracer.instant(
                "countermeasure.detection", "countermeasure", now,
                track="countermeasure", core=core_index,
                frequency_ghz=status.frequency_ghz, offset_mv=status.offset_mv,
            )
        safe_offset = self._policy.safe_offset_mv(self._unsafe_states, status)
        driver.write(core_index, MSR_OC_MAILBOX, offset_voltage(safe_offset, plane=0))  # line 7
        # Detection-to-settled latency, the Sec. 5 decomposition: the
        # per-core ioctl chain (charged as driver busy time, not sim
        # time) plus the regulator's settle window for the remediation
        # write (a raise, so the fast latency applies).
        accesses = 3 if self._fast_offset_read else 4
        ioctl_chain = accesses * driver.access_latency_s
        regulator = self._machine.processor.core(core_index).regulator
        settle_delta = max(0.0, regulator.settle_time(VoltagePlane.CORE) - now)
        turnaround = ioctl_chain + settle_delta
        self._turnaround.observe(turnaround)
        if self._trace_on:
            self._tracer.complete(
                "countermeasure.remediation", "countermeasure", now, turnaround,
                track="countermeasure", core=core_index,
                observed_mv=status.offset_mv, restored_mv=safe_offset,
            )
        self.stats.remediations.append(
            RemediationEvent(
                time_s=now,
                core_index=core_index,
                observed=status,
                restored_offset_mv=safe_offset,
            )
        )
        logger.info(
            "unsafe state on core %d: %.1f GHz / %.0f mV -> restored to %.0f mV",
            core_index,
            status.frequency_ghz,
            status.offset_mv,
            safe_offset,
        )

    # -- analysis helpers ---------------------------------------------------------------

    def cpu_time_per_poll_s(self) -> float:
        """ioctl time one full poll (all cores, no remediation) consumes."""
        accesses_per_core = 2 if self._fast_offset_read else 3
        return (
            len(self._machine.processor.cores)
            * accesses_per_core
            * self._machine.msr_driver.access_latency_s
        )

    def duty_cycle(self) -> float:
        """Fraction of one core's time the polling thread consumes."""
        return self.cpu_time_per_poll_s() / self._period_s

    def worst_case_turnaround_s(self) -> float:
        """Upper bound on unsafe-state dwell before remediation settles.

        One full period (the attacker's write may land right after a
        poll), plus the per-core ioctl chain, plus the regulator settle
        latency of the remediation write — the two delay contributors
        Sec. 5 names, plus the polling quantum.  Remediation *raises* the
        voltage, so the fast raise latency applies.
        """
        accesses = 3 if self._fast_offset_read else 4
        ioctl_chain = accesses * self._machine.msr_driver.access_latency_s
        return self._period_s + ioctl_chain + self._machine.model.regulator_raise_latency_s
