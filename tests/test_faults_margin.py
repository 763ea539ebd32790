"""Fault model: violated fraction, onset threshold, crash boundary."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.cpu.models import COMET_LAKE, SKY_LAKE
from repro.faults.margin import (
    BASE_FAULT_RATE_PER_OP,
    FRACTION_MEMO_SIZE,
    INSTRUCTION_SENSITIVITY,
    ONSET_FRACTION,
    FaultModel,
)


@pytest.fixture(scope="module")
def fault_model() -> FaultModel:
    return FaultModel(COMET_LAKE)


class TestViolatedFraction:
    def test_half_at_critical_voltage(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        assert fault_model.violated_fraction(2.0, vcrit) == pytest.approx(0.5)

    def test_tiny_well_above_critical(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        assert fault_model.violated_fraction(2.0, vcrit + 0.06) < 1e-4

    def test_saturates_below_critical(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        assert fault_model.violated_fraction(2.0, vcrit - 0.06) > 0.999

    @given(st.floats(min_value=0.65, max_value=1.2, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_monotone_decreasing_in_voltage(self, v):
        model = FaultModel(COMET_LAKE)
        assert model.violated_fraction(2.0, v) >= model.violated_fraction(2.0, v + 0.01)

    def test_vcrit_cache_consistent(self, fault_model):
        direct = fault_model.analyzer.critical_voltage(3.0)
        assert fault_model.critical_voltage(3.0) == pytest.approx(direct)
        assert fault_model.critical_voltage(3.0) == pytest.approx(direct)

    def test_vcrit_cache_distinguishes_sub_tenth_ghz(self):
        # Regression: the cache used to key on round(f * 10), so any two
        # frequencies inside the same 0.1 GHz bucket (a fine explorer
        # sweep at 3.61 vs 3.64 GHz) shared one cached critical voltage.
        model = FaultModel(COMET_LAKE)
        low = model.critical_voltage(3.61)
        high = model.critical_voltage(3.64)
        assert low != high
        assert low == model.analyzer.critical_voltage(3.61)
        assert high == model.analyzer.critical_voltage(3.64)
        # Repeat queries still hit the cache and stay exact.
        assert model.critical_voltage(3.61) == low
        assert model.critical_voltage(3.64) == high


class TestOperatingPointMemo:
    FREQUENCIES = (0.8, 2.0, 3.7, 4.9)

    def _grid(self, model):
        for f in self.FREQUENCIES:
            vcrit = model.analyzer.critical_voltage(f)
            for step in range(-12, 13):
                yield f, vcrit + step * 0.003

    def _physics(self, model, f, v):
        return (
            model.violated_fraction(f, v),
            model.fault_probability(f, v),
            model.fault_probability(f, v, instruction="aesenc"),
            model.is_crash(f, v),
        )

    def test_matches_fresh_model_across_temperature_changes(self):
        warm = FaultModel(COMET_LAKE)
        grid = list(self._grid(warm))
        by_temperature = {}
        for temperature in (None, 95.0, None, 20.0, 95.0, None):
            warm.set_temperature(temperature)
            fresh = FaultModel(COMET_LAKE, temperature_c=temperature)
            values = []
            for f, v in grid:
                expected = self._physics(fresh, f, v)
                # Twice: the second query is served from the memo.
                assert self._physics(warm, f, v) == expected
                assert self._physics(warm, f, v) == expected
                values.append(expected)
            by_temperature.setdefault(temperature, values)
            assert by_temperature[temperature] == values
        # The temperature really moves the physics, so a stale memo
        # entry would have been caught above.
        assert by_temperature[None] != by_temperature[95.0]

    def test_direct_temperature_assignment_is_not_stale(self):
        model = FaultModel(COMET_LAKE)
        f, v = 2.0, model.critical_voltage(2.0)
        cold = model.violated_fraction(f, v)
        model.temperature_c = 95.0
        assert model.violated_fraction(f, v) == FaultModel(
            COMET_LAKE, temperature_c=95.0
        ).violated_fraction(f, v)
        assert model.violated_fraction(f, v) != cold

    def test_memo_stays_bounded(self):
        model = FaultModel(COMET_LAKE)
        vcrit = model.critical_voltage(2.0)
        points = [vcrit + i * 1e-6 for i in range(FRACTION_MEMO_SIZE + 500)]
        for v in points:
            model.violated_fraction(2.0, v)
            assert len(model._fraction_memo) <= FRACTION_MEMO_SIZE
        fresh = FaultModel(COMET_LAKE)
        # Evicted and retained points both still answer exactly.
        for v in (points[0], points[-1]):
            assert model.violated_fraction(2.0, v) == fresh.violated_fraction(2.0, v)


class TestFaultProbability:
    def test_zero_at_nominal(self, fault_model):
        base = fault_model.vf_curve.base_voltage(2.0)
        assert fault_model.fault_probability(2.0, base) == 0.0

    def test_zero_below_onset_fraction(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        sigma = COMET_LAKE.sigma_mv * 1e-3
        # 3 sigma above critical: fraction ~0.001 < ONSET_FRACTION.
        assert fault_model.fault_probability(2.0, vcrit + 3.0 * sigma) == 0.0

    def test_positive_past_onset(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        assert fault_model.fault_probability(2.0, vcrit) > 0.0

    def test_scaled_by_sensitivity(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        p_imul = fault_model.fault_probability(2.0, vcrit, instruction="imul")
        p_add = fault_model.fault_probability(2.0, vcrit, instruction="add")
        assert p_add == pytest.approx(
            p_imul * INSTRUCTION_SENSITIVITY["add"] / INSTRUCTION_SENSITIVITY["imul"]
        )

    def test_imul_is_most_sensitive(self):
        # "the imul instruction has the maximum probability of being
        # faulted" (Sec. 4.2).
        assert INSTRUCTION_SENSITIVITY["imul"] == max(INSTRUCTION_SENSITIVITY.values())

    def test_unknown_instruction_rejected(self, fault_model):
        with pytest.raises(ConfigurationError):
            fault_model.fault_probability(2.0, 0.8, instruction="fsqrt")

    def test_capped_at_one(self, fault_model):
        assert fault_model.fault_probability(2.0, 0.66) <= 1.0

    def test_onset_constant_sane(self):
        assert 0.0 < ONSET_FRACTION < 0.5
        assert 0.0 < BASE_FAULT_RATE_PER_OP < 1e-3


class TestCrash:
    def test_no_crash_at_nominal(self, fault_model):
        base = fault_model.vf_curve.base_voltage(2.0)
        assert not fault_model.is_crash(2.0, base)

    def test_crash_deep_below_critical(self, fault_model):
        vcrit = fault_model.critical_voltage(2.0)
        assert fault_model.is_crash(2.0, vcrit - 0.05)

    def test_crash_below_retention_any_frequency(self, fault_model):
        v = COMET_LAKE.process.v_retention_volts - 0.01
        assert fault_model.is_crash(0.4, v)

    def test_fault_band_exists_between_onset_and_crash(self, fault_model):
        # There must be voltages that fault but do not crash — the paper's
        # exploitable "region of interest".
        vcrit = fault_model.critical_voltage(2.0)
        v = vcrit + 0.004
        assert fault_model.fault_probability(2.0, v) > 0.0
        assert not fault_model.is_crash(2.0, v)


class TestConditionsForOffset:
    def test_matches_vf_curve(self, fault_model):
        conditions = fault_model.conditions_for_offset(2.0, -100.0)
        assert conditions.frequency_ghz == 2.0
        assert conditions.offset_mv == -100.0
        assert conditions.voltage_volts == pytest.approx(
            fault_model.vf_curve.effective_voltage(2.0, -100.0)
        )

    def test_models_have_distinct_boundaries(self):
        # Different silicon characterizes differently (Figs. 2-4 differ).
        comet = FaultModel(COMET_LAKE)
        skylake = FaultModel(SKY_LAKE)
        assert comet.critical_voltage(2.0) != pytest.approx(
            skylake.critical_voltage(2.0), abs=1e-4
        )
