"""Factory V/f curve: clamping, margins, ground-truth safe limits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FrequencyError
from repro.cpu.models import COMET_LAKE, KABY_LAKE_R, PAPER_MODEL_TUPLE, SKY_LAKE
from repro.cpu.vf_curve import VFCurve


@pytest.fixture
def curve() -> VFCurve:
    return COMET_LAKE.vf_curve()


class TestBaseVoltage:
    def test_floor_plus_margin_at_low_frequency(self, curve):
        expected = COMET_LAKE.v_floor_volts + COMET_LAKE.v_margin_volts
        assert curve.base_voltage(0.4) == pytest.approx(expected)

    def test_monotone_nondecreasing_in_frequency(self, curve):
        freqs = COMET_LAKE.frequency_table.frequencies_ghz()
        voltages = [curve.base_voltage(f) for f in freqs]
        assert all(b >= a - 1e-12 for a, b in zip(voltages, voltages[1:]))

    def test_max_turbo_voltage_plausible(self, curve):
        # Client silicon tops out near 1.0-1.3 V.
        v = curve.base_voltage(4.9)
        assert 1.0 < v < 1.3

    def test_off_table_frequency_rejected(self, curve):
        with pytest.raises(FrequencyError):
            curve.base_voltage(7.7)

    def test_cache_consistency(self, curve):
        assert curve.base_voltage(2.0) == curve.base_voltage(2.0)

    def test_memo_matches_fresh_curve(self, curve):
        freqs = COMET_LAKE.frequency_table.frequencies_ghz()
        first = [curve.base_voltage(f) for f in freqs]
        assert [curve.base_voltage(f) for f in freqs] == first
        fresh = COMET_LAKE.vf_curve()
        assert [fresh.base_voltage(f) for f in freqs] == first

    def test_off_table_frequency_rejected_after_valid_ones_cached(self, curve):
        for f in COMET_LAKE.frequency_table.frequencies_ghz():
            curve.base_voltage(f)
        for bad in (2.05, 7.7, 0.1, COMET_LAKE.frequency_table.max_ghz + 0.1):
            with pytest.raises(FrequencyError):
                curve.base_voltage(bad)
            with pytest.raises(FrequencyError):
                curve.base_voltage(bad)

    def test_near_equal_float_returns_first_voltage(self, curve):
        # 2.0 + 1e-12 passes the table check and shares the 0.1 GHz slot
        # of 2.0: it gets the voltage computed for 2.0, hit or miss.
        exact = curve.base_voltage(2.0)
        assert curve.base_voltage(2.0 + 1e-12) == exact
        assert curve.base_voltage(2.0 + 1e-12) == exact

    def test_base_voltage_mv(self, curve):
        assert curve.base_voltage_mv(2.0) == pytest.approx(
            curve.base_voltage(2.0) * 1e3
        )


class TestEffectiveVoltage:
    def test_offset_rides_on_base(self, curve):
        base = curve.base_voltage(2.0)
        assert curve.effective_voltage(2.0, -100.0) == pytest.approx(base - 0.1)

    def test_zero_offset_is_base(self, curve):
        assert curve.effective_voltage(1.8, 0.0) == curve.base_voltage(1.8)

    def test_ceiling_clamps_overvolts(self, curve):
        v = curve.effective_voltage(4.9, +2000.0)
        assert v == curve.v_ceiling_volts

    def test_floor_clamps_at_zero(self, curve):
        assert curve.effective_voltage(0.4, -5000.0) >= 0.0

    @given(st.floats(min_value=-300, max_value=0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_deeper_offset_never_raises_voltage(self, offset):
        curve = COMET_LAKE.vf_curve()
        assert curve.effective_voltage(2.0, offset) <= curve.effective_voltage(2.0, 0.0)


class TestGroundTruthSafeLimit:
    def test_every_frequency_has_negative_limit(self):
        # There is a safe undervolt band at every frequency (the paper's
        # "range of under-volted offsets where no DVFS related faults are
        # observed").
        for model in PAPER_MODEL_TUPLE:
            curve = model.vf_curve()
            for f in model.frequency_table.frequencies_ghz():
                assert curve.safe_undervolt_limit_mv(f) < -20.0

    def test_low_frequency_tolerates_deeper_undervolt(self):
        curve = KABY_LAKE_R.vf_curve()
        assert curve.safe_undervolt_limit_mv(0.4) < curve.safe_undervolt_limit_mv(1.8)

    def test_limits_in_plundervolt_range(self):
        # Published attacks found faults between roughly -100 and -250 mV.
        curve = SKY_LAKE.vf_curve()
        limit = curve.safe_undervolt_limit_mv(SKY_LAKE.frequency_table.base_ghz)
        assert -260.0 < limit < -50.0


class TestValidation:
    def test_bad_guardband(self):
        model = COMET_LAKE
        with pytest.raises(ConfigurationError):
            VFCurve(
                analyzer=model.safety_analyzer(),
                table=model.frequency_table,
                guardband=0.9,
                v_floor_volts=0.75,
            )

    def test_floor_below_threshold_rejected(self):
        model = COMET_LAKE
        with pytest.raises(ConfigurationError):
            VFCurve(
                analyzer=model.safety_analyzer(),
                table=model.frequency_table,
                guardband=0.1,
                v_floor_volts=0.3,
            )

    def test_negative_margin_rejected(self):
        model = COMET_LAKE
        with pytest.raises(ConfigurationError):
            VFCurve(
                analyzer=model.safety_analyzer(),
                table=model.frequency_table,
                guardband=0.1,
                v_floor_volts=0.75,
                v_margin_volts=-0.01,
            )

    def test_ceiling_below_floor_rejected(self):
        model = COMET_LAKE
        with pytest.raises(ConfigurationError):
            VFCurve(
                analyzer=model.safety_analyzer(),
                table=model.frequency_table,
                guardband=0.1,
                v_floor_volts=0.75,
                v_ceiling_volts=0.5,
            )
