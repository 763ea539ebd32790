"""Algorithm 3: the polling kernel module."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core.policy import ClampToBoundary, ClampToMaximalSafe, RestoreToZero
from repro.core.polling_module import DEFAULT_PERIOD_S, PollingCountermeasure
from repro.core.unsafe_states import UnsafeStateSet
from repro.cpu import COMET_LAKE
from repro.cpu.ocm import VoltagePlane
from repro.testbench import Machine


@pytest.fixture
def machine() -> Machine:
    return Machine.build(COMET_LAKE, seed=17)


@pytest.fixture
def unsafe(comet_characterization) -> UnsafeStateSet:
    return comet_characterization.unsafe_states


def loaded_module(machine, unsafe, **kwargs) -> PollingCountermeasure:
    module = PollingCountermeasure(machine, unsafe, **kwargs)
    machine.modules.insmod(module)
    return module


class TestConstruction:
    def test_default_period_undercuts_regulator(self, machine, unsafe):
        module = PollingCountermeasure(machine, unsafe)
        assert module.period_s == DEFAULT_PERIOD_S
        assert module.period_s < COMET_LAKE.regulator_latency_s

    def test_empty_unsafe_set_rejected(self, machine):
        with pytest.raises(ConfigurationError):
            PollingCountermeasure(machine, UnsafeStateSet())

    def test_nonpositive_period_rejected(self, machine, unsafe):
        with pytest.raises(ConfigurationError):
            PollingCountermeasure(machine, unsafe, period_s=0.0)

    def test_default_policy_is_clamp_to_boundary(self, machine, unsafe):
        assert isinstance(PollingCountermeasure(machine, unsafe).policy, ClampToBoundary)


class TestLifecycle:
    def test_polls_only_while_loaded(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.advance(5e-3)
        polls_at_unload = module.stats.polls
        assert polls_at_unload == pytest.approx(10, abs=1)
        machine.modules.rmmod(module.name)
        machine.advance(5e-3)
        assert module.stats.polls == polls_at_unload

    def test_registered_under_paper_module_name(self, machine, unsafe):
        loaded_module(machine, unsafe)
        assert machine.modules.is_loaded("plug_your_volt")

    def test_checks_every_core(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.advance(2e-3)
        assert module.stats.core_checks == module.stats.polls * COMET_LAKE.core_count


class TestDetectionAndRemediation:
    def test_unsafe_target_rewritten_before_application(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.set_frequency(2.0)
        boundary = unsafe.boundary_mv(2.0)
        machine.write_voltage_offset(int(boundary) - 40)
        machine.advance(3 * COMET_LAKE.regulator_latency_s)
        core = machine.processor.core(0)
        # The module detected the unsafe target and clamped it; the deep
        # offset never became electrically effective.
        assert module.stats.detections >= 1
        assert core.target_offset_mv() > boundary
        assert core.applied_offset_mv(machine.now) > boundary

    def test_detection_latency_bounded_by_period(self, machine, unsafe):
        module = loaded_module(machine, unsafe, period_s=200e-6)
        machine.set_frequency(2.0)
        write_time = machine.now
        machine.write_voltage_offset(-200)
        machine.advance(2e-3)
        first = module.stats.remediations[0]
        assert first.time_s - write_time <= 200e-6 + 1e-9

    def test_remediation_event_records_observation(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-250)
        machine.advance(1e-3)
        event = module.stats.remediations[0]
        assert event.observed.frequency_ghz == pytest.approx(2.0)
        assert event.observed.offset_mv == pytest.approx(-250, abs=1.0)
        assert event.restored_offset_mv > unsafe.boundary_mv(2.0)

    def test_safe_undervolt_left_alone(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.set_frequency(0.8)
        safe_offset = int(unsafe.boundary_mv(0.8)) + 30  # within the safe band
        machine.write_voltage_offset(safe_offset)
        machine.advance(5e-3)
        assert module.stats.detections == 0
        assert machine.processor.core(0).applied_offset_mv(machine.now) == pytest.approx(
            safe_offset, abs=1.0
        )

    def test_policy_restore_to_zero(self, machine, unsafe):
        loaded_module(machine, unsafe, policy=RestoreToZero())
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-250)
        machine.advance(2 * COMET_LAKE.regulator_latency_s)
        assert machine.processor.core(0).target_offset_mv() == 0.0

    def test_policy_clamp_to_maximal_safe(self, machine, unsafe):
        loaded_module(machine, unsafe, policy=ClampToMaximalSafe())
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-250)
        machine.advance(2 * COMET_LAKE.regulator_latency_s)
        assert machine.processor.core(0).target_offset_mv() == pytest.approx(
            unsafe.maximal_safe_offset_mv(), abs=1.0
        )

    def test_per_core_remediation(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-250, core_index=2)
        machine.advance(1e-3)
        assert {e.core_index for e in module.stats.remediations} == {2}


class TestCostModel:
    def test_fast_read_costs_two_accesses_per_core(self, machine, unsafe):
        module = PollingCountermeasure(machine, unsafe, fast_offset_read=True)
        expected = 4 * 2 * machine.msr_driver.access_latency_s
        assert module.cpu_time_per_poll_s() == pytest.approx(expected)

    def test_pedantic_read_costs_three_accesses_per_core(self, machine, unsafe):
        module = PollingCountermeasure(machine, unsafe, fast_offset_read=False)
        expected = 4 * 3 * machine.msr_driver.access_latency_s
        assert module.cpu_time_per_poll_s() == pytest.approx(expected)

    def test_duty_cycle_subpercent_at_default_period(self, machine, unsafe):
        module = PollingCountermeasure(machine, unsafe)
        assert module.duty_cycle() < 0.02

    def test_turnaround_covers_the_period_and_both_settle_paths(self, machine, unsafe):
        module = PollingCountermeasure(machine, unsafe)
        turnaround = module.worst_case_turnaround_s()
        assert turnaround > module.period_s + COMET_LAKE.regulator_raise_latency_s
        assert turnaround > COMET_LAKE.regulator_latency_s
        assert turnaround < max(
            module.period_s + COMET_LAKE.regulator_raise_latency_s,
            COMET_LAKE.regulator_latency_s,
        ) + 1e-5

    def test_pedantic_ocm_protocol_still_detects(self, machine, unsafe):
        module = loaded_module(machine, unsafe, fast_offset_read=False)
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-250)
        machine.advance(2e-3)
        assert module.stats.detections >= 1


class TestQuantizationRegression:
    def test_boundary_offset_detected_despite_ocm_quantization(self, machine, unsafe):
        # Regression: a request of exactly the boundary offset (-85 mV)
        # encodes through the mailbox's 1/1024 V field and reads back as
        # -84.96 mV; the unsafe check must still match the boundary cell.
        module = loaded_module(machine, unsafe)
        machine.set_frequency(1.8)
        boundary = int(unsafe.boundary_mv(1.8))
        machine.write_voltage_offset(boundary)
        machine.advance(2e-3)
        assert module.stats.detections >= 1

    def test_half_quantum_tolerance_in_membership(self, unsafe):
        from repro.core.encoding import decode_offset_mv, offset_voltage

        boundary = unsafe.boundary_mv(1.8)
        readback = decode_offset_mv(offset_voltage(int(boundary)))
        assert readback > boundary  # the quantization that caused the bug
        assert unsafe.is_unsafe(1.8, readback)


class TestLogging:
    def test_load_unload_and_remediation_logged(self, machine, unsafe, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.core.polling_module"):
            module = loaded_module(machine, unsafe)
            machine.set_frequency(2.0)
            machine.write_voltage_offset(-250)
            machine.advance(2e-3)
            machine.modules.rmmod(module.name)
        text = caplog.text
        assert "plug_your_volt loaded" in text
        assert "unsafe state on core 0" in text
        assert "plug_your_volt unloaded" in text


class TestDetectionMargin:
    def test_stochastic_gap_cell_is_flagged(self, machine, unsafe):
        # Regression for the attack-surface finding: an offset a few mV
        # shallower than the observed boundary (where characterization may
        # have sampled zero faults by chance) must still be flagged.
        module = loaded_module(machine, unsafe)
        machine.set_frequency(2.0)
        boundary = int(unsafe.boundary_mv(2.0))
        machine.write_voltage_offset(boundary + 6)  # inside the 10 mV margin
        machine.advance(2e-3)
        assert module.stats.detections >= 1

    def test_remediated_state_is_a_fixed_point(self, machine, unsafe):
        # The restoration target (boundary + 15) must NOT be re-flagged by
        # the 10 mV detection margin, or the module would thrash.
        module = loaded_module(machine, unsafe)
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-250)
        machine.advance(5e-3)
        detections_after_settle = module.stats.detections
        machine.advance(10e-3)
        assert module.stats.detections == detections_after_settle

    def test_margin_validated(self, machine, unsafe):
        with pytest.raises(ConfigurationError):
            PollingCountermeasure(machine, unsafe, detection_margin_mv=-1.0)

    def test_zero_margin_reproduces_the_gap(self, machine, unsafe):
        # With the margin disabled the gap cell is (wrongly) trusted.
        module = loaded_module(machine, unsafe, detection_margin_mv=0.0)
        machine.set_frequency(2.0)
        boundary = int(unsafe.boundary_mv(2.0))
        machine.write_voltage_offset(boundary + 6)
        machine.advance(2e-3)
        assert module.stats.detections == 0


class TestReloadLifetimes:
    """Load -> unload -> load must start a fresh lifetime.

    The ``countermeasure.*`` counters and the turnaround histogram live
    in the machine's registry and keep accumulating across lifetimes
    (that sharing is the telemetry contract); the module's per-lifetime
    counts are zeroed at every load, so a reloaded module never claims
    the previous lifetime's polls, detections or turnaround samples —
    and a load that races an unload must not leave two kthreads
    double-polling.  Every case runs on a traced machine and on a
    default one, which counts into a registry of its own just the same.
    """

    @pytest.fixture(params=["traced", "default"])
    def machine(self, request):
        from repro.telemetry import Telemetry

        telemetry = Telemetry() if request.param == "traced" else None
        return Machine.build(COMET_LAKE, seed=17, telemetry=telemetry)

    def test_reloaded_module_starts_at_zero(self, machine, unsafe):
        first = loaded_module(machine, unsafe)
        machine.advance(5e-3)
        assert first.stats.polls > 0
        machine.modules.rmmod(first.name)

        second = loaded_module(machine, unsafe)
        assert second.stats.polls == 0
        assert second.stats.core_checks == 0
        assert second.stats.detections == 0
        machine.advance(5e-3)
        assert second.stats.polls == pytest.approx(10, abs=1)
        # The registry keeps the machine-wide total across lifetimes.
        total = machine.telemetry.registry.counter("countermeasure.polls").value
        assert total == first.stats.polls + second.stats.polls

    def test_same_instance_reload_rebaselines(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.advance(5e-3)
        machine.modules.rmmod(module.name)
        first_lifetime = module.stats.polls
        assert first_lifetime > 0

        machine.modules.insmod(module)
        assert module.stats.polls == 0
        machine.advance(2e-3)
        assert 0 < module.stats.polls < first_lifetime

    def test_reload_does_not_double_poll(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.advance(5e-3)
        machine.modules.rmmod(module.name)
        machine.modules.insmod(module)
        before = machine.telemetry.registry.counter("countermeasure.polls").value
        machine.advance(5e-3)
        delta = machine.telemetry.registry.counter("countermeasure.polls").value - before
        # One kthread's cadence, not two: ~10 polls in 5 ms at 500 us.
        assert delta == pytest.approx(10, abs=1)

    def test_racing_load_does_not_double_poll(self, machine, unsafe):
        # A load racing an unload calls on_load with a kthread already
        # armed; the defensive disarm must keep a single cadence.
        module = loaded_module(machine, unsafe)
        module.on_load()  # the race: second load without an unload
        before = machine.telemetry.registry.counter("countermeasure.polls").value
        machine.advance(5e-3)
        delta = machine.telemetry.registry.counter("countermeasure.polls").value - before
        assert delta == pytest.approx(10, abs=1)

    def test_turnaround_samples_not_double_counted(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.set_frequency(2.0)
        boundary = unsafe.boundary_mv(2.0)
        machine.write_voltage_offset(int(boundary) - 40)
        machine.advance(3 * COMET_LAKE.regulator_latency_s)
        first_samples = module.turnaround_samples()
        assert first_samples > 0
        machine.modules.rmmod(module.name)

        machine.modules.insmod(module)
        assert module.turnaround_samples() == 0
        assert module.stats.detections == 0
        histogram = module.stats.registry.histogram(
            "countermeasure.turnaround_s"
        )
        # The shared histogram keeps the machine-wide sample count.
        assert histogram.count == first_samples

    def test_unload_cancels_recurring_event(self, machine, unsafe):
        module = loaded_module(machine, unsafe)
        machine.advance(1e-3)
        machine.modules.rmmod(module.name)
        assert module._recurring is None
        machine.simulator.prune()
        assert not any(
            cancelled for _, cancelled in machine.simulator.pending_entries()
        )


class TestJitteredTurnaroundBound:
    """The Sec. 5 bound must cover the longest jittered poll interval
    and every remediation's settle latency, raise or lowering."""

    @pytest.mark.parametrize("period_s", [200e-6, 500e-6, 1e-3])
    def test_bound_without_jitter(self, machine, unsafe, period_s):
        module = PollingCountermeasure(machine, unsafe, period_s=period_s)
        accesses = 3 * machine.msr_driver.access_latency_s
        assert module.worst_case_turnaround_s() == accesses + max(
            period_s + COMET_LAKE.regulator_raise_latency_s,
            COMET_LAKE.regulator_latency_s,
        )

    def test_lowering_remediation_stays_under_the_bound(self, machine, unsafe):
        # An attacker's deep write to an idle core is detected at the
        # next 200 us poll, long before the slow lowering applies it.
        # The clamped remediation then lowers the still-0 mV applied
        # offset, so its sample is the slow lowering latency, not the
        # raise latency.
        module = loaded_module(machine, unsafe, period_s=200e-6)
        machine.write_voltage_offset(-250)
        machine.advance(2e-3)
        turnarounds = module.stats.registry.histogram(
            "countermeasure.turnaround_s"
        ).values
        assert len(turnarounds) == len(module.stats.remediations) == 1
        regulator = machine.processor.core(0).regulator
        assert regulator.transition(VoltagePlane.CORE).latency_s == (
            COMET_LAKE.regulator_latency_s
        )
        assert turnarounds[0] > module.period_s + COMET_LAKE.regulator_raise_latency_s
        assert max(turnarounds) <= module.worst_case_turnaround_s()

    def test_jittered_dwell_stays_under_the_bound(self, machine, unsafe):
        module = loaded_module(machine, unsafe, period_jitter=0.2)
        bound = module.worst_case_turnaround_s()
        machine.set_frequency(2.0)
        # Warm-up: the first remediation lowers the idle 0 mV to the
        # clamped offset, so it settles at the slow lowering latency;
        # from then on each remediation is a raise, the case the bound
        # describes.
        machine.write_voltage_offset(-250)
        machine.advance(2e-3)
        delays = []
        for trial in range(40):
            # Vary the write's phase against the jittered poll train.
            machine.advance(2e-3 + trial * 37e-6)
            write_time = machine.now
            machine.write_voltage_offset(-250)
            machine.advance(2e-3)
            event = module.stats.remediations[-1]
            assert event.time_s >= write_time
            delays.append(event.time_s - write_time)
        turnarounds = module.stats.registry.histogram(
            "countermeasure.turnaround_s"
        ).values
        assert len(turnarounds) == len(module.stats.remediations) == 41
        assert max(turnarounds) <= bound
        # Detection dwell: the attacker's write to the remediation settled.
        dwells = [delay + turn for delay, turn in zip(delays, turnarounds[1:])]
        assert max(dwells) <= bound
        # Some write waited out an interval longer than the nominal
        # period: the case a period-only bound gets wrong.
        assert max(delays) > module.period_s


def _disturbed_spec_run(unsafe, telemetry=None):
    """A fixed-seed Table 2 run on Comet Lake with an attacker and the
    governor moving three cores partway through."""
    from repro.bench.runner import SpecOverheadRunner

    machine = Machine.build(COMET_LAKE, seed=3, telemetry=telemetry)
    module = loaded_module(machine, unsafe)
    sim = machine.simulator
    sim.schedule(0.101, lambda: machine.set_frequency(2.0, core_index=1))
    sim.schedule(0.1013, lambda: machine.write_voltage_offset(-250, core_index=1))
    sim.schedule(0.4007, lambda: machine.write_voltage_offset(-120, core_index=2))
    sim.schedule(0.7002, lambda: machine.set_frequency(3.0))
    sim.schedule(0.7004, lambda: machine.write_voltage_offset(-60, core_index=3))
    report = SpecOverheadRunner(machine, module, seed=7).run()
    return machine, module, report


def _digest(value) -> str:
    import hashlib

    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestSteadyStatePoll:
    """Every poll still issues and charges both reads per core; only the
    decode and the unsafe-set lookup of a repeated raw pair are skipped.

    The pinned figures were produced by the poll loop that decoded every
    check, so they hold the skip to exactly its output.
    """

    def test_spec_run_matches_the_decode_every_check_loop(self, unsafe):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        machine, module, report = _disturbed_spec_run(unsafe, telemetry)
        rows = [(row.name, row.base_with, row.peak_with) for row in report.rows]
        assert _digest(rows) == "50432ec7975ce412"
        assert rows[0] == ("503.bwaves", 629.8538186064693, 605.7401646591314)
        assert report.machine_share == 0.0028999999999972494
        assert (module.stats.polls, module.stats.core_checks, module.stats.detections) == (
            2300, 9200, 2,
        )
        assert telemetry.registry.counter("msr.reads").value == 18400
        assert machine.msr_driver.stats.reads == 18400
        assert machine.msr_driver.stats.busy_seconds == 0.012883499999996448

        def events(name):
            picked = [e for e in telemetry.tracer.events if e.name == name]
            return len(picked), _digest(
                [(e.time_s, e.duration_s, e.track, e.args) for e in picked]
            )

        assert events("msr.read") == (18400, "b50aab1176fbaf53")
        assert events("countermeasure.poll") == (2300, "70830a0696860f71")
        assert events("countermeasure.detection") == (2, "d8c84669b6459b5d")

        # The untraced run is the same run.
        quiet_machine, quiet_module, quiet_report = _disturbed_spec_run(unsafe)
        assert [(r.name, r.base_with, r.peak_with) for r in quiet_report.rows] == rows
        assert quiet_machine.msr_driver.stats.busy_seconds == (
            machine.msr_driver.stats.busy_seconds
        )
        assert quiet_module.stats.detections == 2

    def test_repeated_readouts_skip_the_decode(self, unsafe, monkeypatch):
        from repro.core import polling_module

        decodes = []
        real = polling_module.decode_core_status

        def counting(perf_value, mailbox_value):
            decodes.append((perf_value, mailbox_value))
            return real(perf_value, mailbox_value)

        monkeypatch.setattr(polling_module, "decode_core_status", counting)
        _, module, _ = _disturbed_spec_run(unsafe)
        assert module.stats.core_checks == 9200
        assert module.stats.detections == 2
        assert 0 < len(decodes) < module.stats.core_checks // 50

    def test_unsafe_set_growth_is_seen_on_the_next_poll(self, machine, unsafe):
        unsafe = UnsafeStateSet.from_dict(unsafe.to_dict())
        module = loaded_module(machine, unsafe)
        machine.set_frequency(0.8)
        offset = int(unsafe.boundary_mv(0.8)) + 30  # safe today
        machine.write_voltage_offset(offset)
        machine.advance(5e-3)
        assert module.stats.detections == 0
        unsafe.add_unsafe(0.8, offset)
        machine.advance(module.period_s)
        assert module.stats.detections == 1

    def test_revision_stays_out_of_the_payload(self, unsafe):
        import pickle

        copy = UnsafeStateSet.from_dict(unsafe.to_dict())
        grown = UnsafeStateSet.from_dict(unsafe.to_dict())
        for offset in unsafe.unsafe_offsets(2.0):
            grown.add_unsafe(2.0, offset)  # already present: same cells
        assert grown.revision > copy.revision == 0
        assert grown == copy
        assert grown.to_dict() == copy.to_dict()
        assert pickle.dumps(grown) == pickle.dumps(copy)
        assert pickle.loads(pickle.dumps(grown)).revision == 0


class TestPerfStatusReadout:
    """0x198 is re-encoded whenever the core's operating point moves."""

    @staticmethod
    def _fresh(machine, core_index=0):
        from repro.cpu import perf_status

        core = machine.processor.core(core_index)
        return perf_status.encode(core.ratio, core.effective_voltage(machine.now))

    @staticmethod
    def _read(machine, core_index=0):
        from repro.cpu.msr import IA32_PERF_STATUS

        return machine.msr_driver.read(core_index, IA32_PERF_STATUS)

    def test_slewing_regulator(self, machine):
        regulator = machine.processor.core(0).regulator
        regulator.slew = True
        assert self._read(machine) == self._fresh(machine)
        machine.write_voltage_offset(-150)
        readings = set()
        for _ in range(8):
            machine.advance(regulator.latency_s / 6)
            reading = self._read(machine)
            assert reading == self._fresh(machine)
            readings.add(reading)
        assert len(readings) > 3  # it did move while slewing

    def test_pstate_change(self, machine):
        before = self._read(machine)
        machine.set_frequency(2.0)
        after = self._read(machine)
        assert after == self._fresh(machine) != before

    def test_reboot(self, machine):
        machine.set_frequency(2.0)
        machine.write_voltage_offset(-100)
        machine.advance(2e-3)
        undervolted = self._read(machine)
        machine.reboot()
        assert self._read(machine) == self._fresh(machine) != undervolted

    def test_unknown_core_and_address(self, machine):
        from repro.cpu.msr import IA32_PERF_STATUS
        from repro.errors import CoreIndexError, UnknownMSRError

        with pytest.raises(CoreIndexError):
            machine.processor.rdmsr(99, IA32_PERF_STATUS)
        with pytest.raises(CoreIndexError):
            machine.processor.msr.read(99, IA32_PERF_STATUS)
        with pytest.raises(UnknownMSRError):
            machine.processor.rdmsr(0, 0x1234)
