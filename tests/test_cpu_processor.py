"""The assembled processor: MSR wiring, OCM protocol, PERF_STATUS synthesis."""

from __future__ import annotations

import pytest

from repro.errors import CoreIndexError, OCMProtocolError
from repro.clock import ManualClock
from repro.core.encoding import offset_voltage, read_request
from repro.cpu import perf_status
from repro.cpu.models import COMET_LAKE, SKY_LAKE
from repro.cpu.msr import IA32_PERF_CTL, IA32_PERF_STATUS, MSR_OC_MAILBOX, MSR_PLATFORM_INFO
from repro.cpu.processor import SimulatedProcessor


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


@pytest.fixture
def processor(clock) -> SimulatedProcessor:
    return SimulatedProcessor(COMET_LAKE, clock=clock)


class TestConstruction:
    def test_core_count(self, processor):
        assert len(processor.cores) == COMET_LAKE.core_count

    def test_cores_start_at_base_frequency(self, processor):
        for core in processor.cores:
            assert core.frequency_ghz == pytest.approx(1.8)

    def test_invalid_core_index(self, processor):
        with pytest.raises(CoreIndexError):
            processor.core(99)

    def test_platform_info_carries_base_ratio(self, processor):
        value = processor.rdmsr(0, MSR_PLATFORM_INFO)
        assert (value >> 8) & 0xFF == 18


class TestPerfStatus:
    def test_reports_ratio_and_voltage(self, processor):
        value = processor.rdmsr(0, IA32_PERF_STATUS)
        status = perf_status.decode(value)
        assert status.ratio == 18
        expected = processor.vf_curve.base_voltage(1.8)
        assert status.voltage_volts == pytest.approx(expected, abs=1e-3)

    def test_tracks_frequency_change(self, processor):
        processor.wrmsr(0, IA32_PERF_CTL, (30 & 0xFF) << 8)
        status = perf_status.decode(processor.rdmsr(0, IA32_PERF_STATUS))
        assert status.ratio == 30
        assert status.frequency_ghz == pytest.approx(3.0)

    def test_voltage_follows_vf_curve_with_frequency(self, processor):
        low = perf_status.decode(processor.rdmsr(0, IA32_PERF_STATUS)).voltage_volts
        processor.wrmsr(0, IA32_PERF_CTL, (49 & 0xFF) << 8)
        high = perf_status.decode(processor.rdmsr(0, IA32_PERF_STATUS)).voltage_volts
        assert high > low


class TestOCMPath:
    def test_write_lands_in_regulator_after_latency(self, processor, clock):
        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-120, plane=0))
        core = processor.core(0)
        assert core.target_offset_mv() == pytest.approx(-120, abs=1)
        assert core.applied_offset_mv(clock.now) == 0.0
        clock.advance(COMET_LAKE.regulator_latency_s + 1e-6)
        assert core.applied_offset_mv(clock.now) == pytest.approx(-120, abs=1)

    def test_effective_voltage_reflects_applied_offset(self, processor, clock):
        base = processor.core(0).effective_voltage(clock.now)
        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-100, plane=0))
        clock.advance(1.0)
        assert processor.core(0).effective_voltage(clock.now) == pytest.approx(
            base - 0.100, abs=2e-3
        )

    def test_mailbox_readback_returns_offset(self, processor):
        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-90, plane=0))
        response = processor.rdmsr(0, MSR_OC_MAILBOX)
        from repro.core.encoding import decode_offset_mv

        assert decode_offset_mv(response) == pytest.approx(-90, abs=1)

    def test_read_request_protocol(self, processor):
        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-90, plane=0))
        processor.wrmsr(0, MSR_OC_MAILBOX, read_request(plane=0))
        from repro.core.encoding import decode_offset_mv

        assert decode_offset_mv(processor.rdmsr(0, MSR_OC_MAILBOX)) == pytest.approx(
            -90, abs=1
        )

    def test_malformed_command_rejected(self, processor):
        with pytest.raises(OCMProtocolError):
            processor.wrmsr(0, MSR_OC_MAILBOX, 0x1234)

    def test_per_core_offsets_independent(self, processor, clock):
        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-50, plane=0))
        clock.advance(1.0)
        assert processor.core(0).applied_offset_mv(clock.now) == pytest.approx(-50, abs=1)
        assert processor.core(1).applied_offset_mv(clock.now) == 0.0


class TestPerfCtl:
    def test_out_of_table_request_clamped(self, processor):
        processor.wrmsr(0, IA32_PERF_CTL, (0xFF & 0xFF) << 8)
        assert processor.core(0).frequency_ghz == pytest.approx(4.9)

    def test_below_table_request_clamped(self, processor):
        processor.wrmsr(0, IA32_PERF_CTL, (1 & 0xFF) << 8)
        assert processor.core(0).frequency_ghz == pytest.approx(0.4)


class TestReboot:
    def test_reboot_resets_offsets_and_frequency(self, processor, clock):
        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-150, plane=0))
        processor.wrmsr(0, IA32_PERF_CTL, (40 & 0xFF) << 8)
        clock.advance(1.0)
        processor.reboot()
        assert processor.core(0).frequency_ghz == pytest.approx(1.8)
        assert processor.core(0).applied_offset_mv(clock.now) == 0.0
        assert processor.reboot_count == 1

    def test_models_differ(self, clock):
        skylake = SimulatedProcessor(SKY_LAKE, clock=clock)
        assert skylake.core(0).frequency_ghz == pytest.approx(3.2)


class TestConditionsView:
    def test_conditions_snapshot(self, processor, clock):
        conditions = processor.conditions(0)
        assert conditions.frequency_ghz == pytest.approx(1.8)
        assert conditions.offset_mv == 0.0
        assert conditions.voltage_volts > 0.7

    def test_reused_snapshot_matches_fresh_computation(self, processor, clock):
        from repro.faults.margin import OperatingConditions

        core = processor.core(0)

        def fresh():
            frequency = core.frequency_ghz
            offset = core.applied_offset_mv(clock.now)
            return OperatingConditions(
                frequency, core.vf_curve.effective_voltage(frequency, offset), offset
            )

        half_latency = COMET_LAKE.regulator_latency_s / 2
        steps = [
            lambda: None,
            lambda: processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-120, plane=0)),
            lambda: clock.advance(half_latency),
            lambda: clock.advance(half_latency + 1e-6),
            lambda: processor.wrmsr(0, IA32_PERF_CTL, (40 & 0xFF) << 8),
            lambda: processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-60, plane=0)),
            lambda: clock.advance(1.0),
            lambda: processor.wrmsr(0, IA32_PERF_CTL, (18 & 0xFF) << 8),
            processor.reboot,
        ]
        for step in steps:
            step()
            for _ in range(2):  # the second read may reuse the snapshot
                conditions = processor.conditions(0)
                assert conditions == fresh()
                assert repr(conditions) == repr(fresh())


class TestNonCorePlanes:
    def test_cache_plane_write_does_not_move_core_voltage(self, processor, clock):
        # Plundervolt wrote both the core and cache planes; our fault
        # model keys off the CORE plane only — a cache-plane offset is
        # tracked but must not change the core's electrical conditions
        # (documented simplification, see docs/faithfulness.md).
        from repro.cpu.ocm import VoltagePlane

        processor.wrmsr(0, MSR_OC_MAILBOX, offset_voltage(-100, plane=2))
        clock.advance(1.0)
        core = processor.core(0)
        assert core.applied_offset_mv(clock.now, VoltagePlane.CACHE) == (
            pytest.approx(-100, abs=1.0)
        )
        assert core.applied_offset_mv(clock.now, VoltagePlane.CORE) == 0.0
        base = processor.vf_curve.base_voltage(core.frequency_ghz)
        assert core.effective_voltage(clock.now) == pytest.approx(base)
