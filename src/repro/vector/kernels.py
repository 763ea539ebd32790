"""Bit-exact numpy grid kernels over the fault physics.

Every kernel here evaluates one of the scalar model functions —
:meth:`repro.cpu.vf_curve.VFCurve.effective_voltage` and
:meth:`repro.faults.margin.FaultModel.violated_fraction` /
``fault_probability`` / ``is_crash`` — over an array of offsets or
voltages at one frequency, with **bit-identical** results.  The scalar
implementations are the oracle; the vector path is an execution
strategy, never an approximation (see ``docs/faithfulness.md``).

The timing physics (Eq. 1-3) is not vectorized: each kernel takes the
per-frequency critical voltage from the scalar, cached
:meth:`FaultModel.critical_voltage`, so :mod:`repro.timing` stays the one
implementation of the delay model and the timing budget.  What remains
per cell is elementwise add/sub/mul/div and the clamping
``minimum``/``maximum``, which *are* bit-identical in numpy, plus the
standard-normal CDF: numpy has no ``erf``, so :func:`phi_grid` applies
``math.erf`` element by element exactly as
:func:`repro.faults.margin._phi` does.

Production runs two entry points: :func:`fault_grid` (with
:func:`effective_voltage_grid`) in the Algo 2 row evaluator, and
:func:`explore_feasibility_grid` in the explorer's tier-1 prune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.margin import (
    BASE_FAULT_RATE_PER_OP,
    INSTRUCTION_SENSITIVITY,
    ONSET_FRACTION,
    FaultModel,
)

ArrayLike = Union[float, int, np.ndarray, list, tuple]


# -- elementwise-exact primitives ------------------------------------------------


def phi_grid(z: ArrayLike) -> np.ndarray:
    """Standard normal CDF per element, bit-identical to ``margin._phi``."""
    array = np.asarray(z, dtype=np.float64)
    flat = array.ravel()
    sqrt2 = math.sqrt(2.0)
    out = np.fromiter(
        (0.5 * (1.0 + math.erf(value / sqrt2)) for value in flat.tolist()),
        dtype=np.float64,
        count=flat.size,
    )
    return out.reshape(array.shape)


# -- result containers -----------------------------------------------------------


@dataclass(frozen=True)
class FaultGrid:
    """Fault-model outputs for one frequency over a voltage array."""

    violated_fraction: np.ndarray
    fault_probability: np.ndarray
    crash: np.ndarray


@dataclass(frozen=True)
class FeasibilityGrid:
    """Explorer verdicts for one frequency over an offset array.

    ``safe`` means *provably* fault-free for every listed instruction
    class and not past the crash boundary — the tier-1 prune of
    :mod:`repro.explore`.  ``fault_probability`` is the maximum over the
    instruction classes (the most sensitive one dominates feasibility).
    """

    voltage_volts: np.ndarray
    fault_probability: np.ndarray
    crash: np.ndarray
    safe: np.ndarray


# -- fault-model kernels ---------------------------------------------------------


def effective_voltage_grid(
    vf_curve, frequency_ghz: float, offsets_mv: ArrayLike
) -> np.ndarray:
    """``VFCurve.effective_voltage`` for one frequency over an offset array.

    The base voltage is the curve's own cached scalar (one design-voltage
    bisection per frequency); the offset arithmetic and regulator clamp
    are elementwise add/``maximum``/``minimum`` — all bit-identical.
    """
    base = vf_curve.base_voltage(frequency_ghz)
    voltage = base + np.asarray(offsets_mv, dtype=np.float64) * 1e-3
    return np.minimum(np.maximum(voltage, 0.0), vf_curve.v_ceiling_volts)


def violated_fraction_grid(
    fault_model: FaultModel, frequency_ghz: float, voltage_volts: ArrayLike
) -> np.ndarray:
    """``FaultModel.violated_fraction`` for one frequency over voltages.

    The critical voltage is one scalar bisection per (frequency,
    temperature) — served by the model's own cache — after which the
    fraction is pure subtract/divide/CDF per cell.
    """
    sigma_volts = fault_model.model.sigma_mv * 1e-3
    z = (
        fault_model.critical_voltage(frequency_ghz)
        - np.asarray(voltage_volts, dtype=np.float64)
    ) / sigma_volts
    return phi_grid(z)


def fault_grid(
    fault_model: FaultModel,
    frequency_ghz: float,
    voltage_volts: ArrayLike,
    *,
    instruction: str = "imul",
) -> FaultGrid:
    """Fraction, per-op fault probability and crash verdict per voltage.

    Pointwise identical to ``FaultModel.violated_fraction`` /
    ``fault_probability`` / ``is_crash``.
    """
    try:
        sensitivity = INSTRUCTION_SENSITIVITY[instruction]
    except KeyError:
        known = ", ".join(sorted(INSTRUCTION_SENSITIVITY))
        raise ConfigurationError(
            f"unknown instruction {instruction!r}; known: {known}"
        ) from None
    voltages = np.asarray(voltage_volts, dtype=np.float64)
    fraction = violated_fraction_grid(fault_model, frequency_ghz, voltages)
    coefficient = sensitivity * BASE_FAULT_RATE_PER_OP
    probability = np.where(
        fraction < ONSET_FRACTION,
        0.0,
        np.minimum(1.0, coefficient * fraction),
    )
    crash = (voltages < fault_model.model.process.v_retention_volts) | (
        fraction >= fault_model.model.crash_fraction
    )
    return FaultGrid(
        violated_fraction=fraction, fault_probability=probability, crash=crash
    )


def explore_feasibility_grid(
    fault_model: FaultModel,
    frequency_ghz: float,
    offsets_mv: ArrayLike,
    *,
    instructions: tuple = ("imul",),
) -> FeasibilityGrid:
    """Safe/feasible/crash verdicts for one frequency over an offset array.

    Composes :func:`effective_voltage_grid` with one :func:`fault_grid`
    per instruction class — pointwise identical to asking the scalar
    ``FaultModel`` about each (frequency, offset, instruction) in turn.
    The ``safe`` mask is the explorer's tier-1 prune: it demands zero
    fault probability for *every* instruction class plus no crash, and
    because ``violated_fraction`` is monotone decreasing in voltage the
    verdict survives any remediation that raises the effective voltage
    (the polling countermeasure's only intervention).
    """
    if not instructions:
        raise ConfigurationError("instructions must name at least one class")
    voltages = effective_voltage_grid(
        fault_model.vf_curve, frequency_ghz, offsets_mv
    )
    probability = np.zeros(voltages.shape)
    crash = np.zeros(voltages.shape, dtype=bool)
    for instruction in instructions:
        grid = fault_grid(
            fault_model, frequency_ghz, voltages, instruction=instruction
        )
        probability = np.maximum(probability, grid.fault_probability)
        crash |= grid.crash
    safe = (probability == 0.0) & ~crash
    return FeasibilityGrid(
        voltage_volts=voltages,
        fault_probability=probability,
        crash=crash,
        safe=safe,
    )
