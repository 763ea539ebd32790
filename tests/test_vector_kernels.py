"""Pointwise identity of the vectorized fault kernels with the scalar model.

:mod:`repro.vector.kernels` evaluates ``VFCurve.effective_voltage`` and
``FaultModel.violated_fraction`` / ``fault_probability`` / ``is_crash``
over offset arrays.  These tests compare every lane against the scalar
call at the same point — bit for bit, floats compared with ``==`` — for
the row evaluator's kernels and for the explorer's tier-1 prune,
:func:`explore_feasibility_grid`, across the safe band, the fault band
and the crash wall — at each paper model's min, base and max P-state,
for every instruction class, on a hot die and at the regulator's 0 V
and ceiling clamps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cpu import COMET_LAKE, PAPER_MODEL_TUPLE
from repro.errors import ConfigurationError
from repro.faults.margin import INSTRUCTION_SENSITIVITY, FaultModel
from repro.vector.kernels import (
    effective_voltage_grid,
    explore_feasibility_grid,
    fault_grid,
    phi_grid,
    violated_fraction_grid,
)

#: Offsets from inside the safe band, through the fault band, to past the
#: crash wall at the frequencies below.
OFFSETS_MV = np.arange(-1, -301, -1)

#: Descending offsets from an overvolt past the regulator ceiling down to
#: an undervolt that clamps the supply at 0 V, for every paper model.
WIDE_OFFSETS_MV = np.concatenate([np.arange(400, -501, -5), [-5000]])


def _model_frequencies():
    """(model, frequency) at each paper model's min, base and max P-state."""
    for model in PAPER_MODEL_TUPLE:
        table = model.frequency_table
        for frequency in (table.min_ghz, table.base_ghz, table.max_ghz):
            yield pytest.param(
                model, frequency, id=f"{model.codename}-{frequency}GHz"
            )


MODEL_FREQUENCIES = list(_model_frequencies())


class TestElementwiseBuildingBlocks:
    def test_phi_grid_matches_math_erf_bitwise(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-6.0, 6.0, size=64)
        grid = phi_grid(z)
        for value, got in zip(z.tolist(), grid.tolist()):
            assert got == 0.5 * (1.0 + math.erf(value / math.sqrt(2.0)))


class TestFaultGrids:
    def test_effective_voltage_grid_matches_vf_curve(self):
        curve = COMET_LAKE.vf_curve()
        grid = effective_voltage_grid(curve, 2.0, OFFSETS_MV)
        for offset, value in zip(OFFSETS_MV.tolist(), grid.tolist()):
            assert value == curve.effective_voltage(2.0, offset)

    def test_fault_grid_matches_scalar_fault_model(self):
        fault_model = FaultModel(COMET_LAKE)
        curve = COMET_LAKE.vf_curve()
        voltages = effective_voltage_grid(curve, 2.0, OFFSETS_MV)
        grid = fault_grid(fault_model, 2.0, voltages)
        for voltage, fraction, probability, crash in zip(
            voltages.tolist(),
            grid.violated_fraction.tolist(),
            grid.fault_probability.tolist(),
            grid.crash.tolist(),
        ):
            assert fraction == fault_model.violated_fraction(2.0, voltage)
            assert probability == fault_model.fault_probability(
                2.0, voltage, instruction="imul"
            )
            assert crash == fault_model.is_crash(2.0, voltage)

    def test_fault_grid_rejects_unknown_instruction(self):
        fault_model = FaultModel(COMET_LAKE)
        with pytest.raises(ConfigurationError):
            fault_grid(fault_model, 2.0, np.array([0.9]), instruction="fnord")


class TestExploreFeasibilityGrid:
    """The explorer's tier-1 prune against the scalar ``FaultModel``."""

    @pytest.mark.parametrize(
        "instructions",
        [("imul",), ("add", "mulsd"), ("xor", "aesenc", "imul")],
        ids=lambda classes: "+".join(classes),
    )
    @pytest.mark.parametrize("frequency", [2.0, 3.4])
    def test_matches_scalar_fault_model_pointwise(self, frequency, instructions):
        fault_model = FaultModel(COMET_LAKE)
        grid = explore_feasibility_grid(
            fault_model, frequency, OFFSETS_MV, instructions=instructions
        )
        verdicts = set()
        for offset, voltage, probability, crash, safe in zip(
            OFFSETS_MV.tolist(),
            grid.voltage_volts.tolist(),
            grid.fault_probability.tolist(),
            grid.crash.tolist(),
            grid.safe.tolist(),
        ):
            assert voltage == fault_model.vf_curve.effective_voltage(
                frequency, offset
            )
            per_class = [
                fault_model.fault_probability(
                    frequency, voltage, instruction=instruction
                )
                for instruction in instructions
            ]
            # The crash verdict does not depend on the instruction class,
            # so the OR over the classes is the one scalar verdict.
            scalar_crash = fault_model.is_crash(frequency, voltage)
            assert probability == max(per_class)
            assert crash == scalar_crash
            assert safe == (
                all(p == 0.0 for p in per_class) and not scalar_crash
            )
            verdicts.add("crash" if crash else "safe" if safe else "faulting")
        # The offsets straddle the fault band and the crash wall.
        assert verdicts == {"safe", "faulting", "crash"}

    def test_rejects_an_empty_instruction_list(self):
        with pytest.raises(ConfigurationError):
            explore_feasibility_grid(
                FaultModel(COMET_LAKE), 2.0, OFFSETS_MV, instructions=()
            )


@pytest.mark.parametrize("model, frequency", MODEL_FREQUENCIES)
class TestPerModelIdentity:
    """Every lane equals the scalar call, for each paper model's P-states."""

    def test_effective_voltage_grid_matches_vf_curve(self, model, frequency):
        curve = model.vf_curve()
        grid = effective_voltage_grid(curve, frequency, WIDE_OFFSETS_MV)
        for offset, value in zip(WIDE_OFFSETS_MV.tolist(), grid.tolist()):
            assert value == curve.effective_voltage(frequency, offset)

    def test_violated_fraction_grid_matches_scalar(self, model, frequency):
        fault_model = FaultModel(model)
        voltages = effective_voltage_grid(
            fault_model.vf_curve, frequency, WIDE_OFFSETS_MV
        )
        grid = violated_fraction_grid(fault_model, frequency, voltages)
        for voltage, fraction in zip(voltages.tolist(), grid.tolist()):
            assert fraction == fault_model.violated_fraction(frequency, voltage)

    def test_fault_grid_matches_scalar_fault_model(self, model, frequency):
        fault_model = FaultModel(model)
        voltages = effective_voltage_grid(
            fault_model.vf_curve, frequency, WIDE_OFFSETS_MV
        )
        grid = fault_grid(fault_model, frequency, voltages)
        for voltage, probability, crash in zip(
            voltages.tolist(),
            grid.fault_probability.tolist(),
            grid.crash.tolist(),
        ):
            assert probability == fault_model.fault_probability(
                frequency, voltage, instruction="imul"
            )
            assert crash == fault_model.is_crash(frequency, voltage)


class TestInstructionClasses:
    @pytest.mark.parametrize("instruction", sorted(INSTRUCTION_SENSITIVITY))
    def test_fault_grid_matches_scalar_for_each_class(self, instruction):
        fault_model = FaultModel(COMET_LAKE)
        table = COMET_LAKE.frequency_table
        for frequency in (table.base_ghz, table.max_ghz):
            voltages = effective_voltage_grid(
                fault_model.vf_curve, frequency, WIDE_OFFSETS_MV
            )
            grid = fault_grid(
                fault_model, frequency, voltages, instruction=instruction
            )
            faulting = 0
            for voltage, probability in zip(
                voltages.tolist(), grid.fault_probability.tolist()
            ):
                assert probability == fault_model.fault_probability(
                    frequency, voltage, instruction=instruction
                )
                faulting += probability > 0.0
            # The sweep reaches the fault band for every class.
            assert faulting > 0


@pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
class TestRegulatorClamps:
    def test_effective_voltage_grid_clamps_at_zero_and_ceiling(self, model):
        curve = model.vf_curve()
        frequency = model.frequency_table.max_ghz
        grid = effective_voltage_grid(curve, frequency, [5000, 0, -5000])
        assert grid.tolist() == [
            curve.v_ceiling_volts,
            curve.base_voltage(frequency),
            0.0,
        ]


@pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
class TestDieTemperature:
    def test_kernels_follow_the_die_temperature(self, model):
        """A hot die moves the critical voltage; the kernels read it from
        the model's temperature-keyed cache, as the scalar calls do."""
        frequency = model.frequency_table.base_ghz
        fault_model = FaultModel(model)
        reference = explore_feasibility_grid(
            fault_model, frequency, WIDE_OFFSETS_MV
        )
        fault_model.set_temperature(85.0)
        hot = explore_feasibility_grid(fault_model, frequency, WIDE_OFFSETS_MV)
        fractions = violated_fraction_grid(
            fault_model, frequency, hot.voltage_volts
        )
        for voltage, fraction, probability, crash in zip(
            hot.voltage_volts.tolist(),
            fractions.tolist(),
            hot.fault_probability.tolist(),
            hot.crash.tolist(),
        ):
            assert fraction == fault_model.violated_fraction(frequency, voltage)
            assert probability == fault_model.fault_probability(
                frequency, voltage
            )
            assert crash == fault_model.is_crash(frequency, voltage)
        assert not np.array_equal(
            reference.fault_probability, hot.fault_probability
        )


@pytest.mark.parametrize("model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename)
class TestFeasibilityBands:
    def test_safe_band_then_fault_band_then_crash_wall(self, model):
        """Over descending offsets, ``safe`` is a prefix and ``crash`` a
        suffix: the monotonicity that lets the tier-1 prune's verdict
        survive any remediation that raises the supply voltage."""
        fault_model = FaultModel(model)
        table = model.frequency_table
        for frequency in (table.min_ghz, table.base_ghz, table.max_ghz):
            grid = explore_feasibility_grid(
                fault_model,
                frequency,
                WIDE_OFFSETS_MV,
                instructions=("imul", "aesenc"),
            )
            safe = grid.safe.tolist()
            crash = grid.crash.tolist()
            assert safe[0] and crash[-1]
            first_unsafe = safe.index(False)
            assert not any(safe[first_unsafe:])
            first_crash = crash.index(True)
            assert all(crash[first_crash:])
            assert first_unsafe <= first_crash


class TestShapes:
    def test_phi_grid_keeps_zero_d_and_two_d_shapes(self):
        assert phi_grid(0.0).shape == ()
        assert float(phi_grid(0.0)) == 0.5
        z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        grid = phi_grid(z)
        assert grid.shape == (3, 4)
        assert grid.ravel().tolist() == phi_grid(z.ravel()).tolist()

    def test_fault_grid_keeps_a_two_d_voltage_shape(self):
        fault_model = FaultModel(COMET_LAKE)
        voltages = effective_voltage_grid(
            fault_model.vf_curve, 2.0, OFFSETS_MV
        ).reshape(20, 15)
        grid = fault_grid(fault_model, 2.0, voltages)
        flat = fault_grid(fault_model, 2.0, voltages.ravel())
        for name in ("violated_fraction", "fault_probability", "crash"):
            assert getattr(grid, name).shape == (20, 15)
            assert (
                getattr(grid, name).ravel().tolist()
                == getattr(flat, name).tolist()
            )
