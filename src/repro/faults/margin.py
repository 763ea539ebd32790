"""Timing margin to fault probability.

The ground-truth physics (:class:`~repro.timing.safety.SafetyAnalyzer`)
yields a single critical voltage per frequency.  Real silicon holds
millions of near-critical paths whose individual critical voltages are
spread by process variation; as the supply drops below the typical
critical voltage, a growing *fraction* of paths violates Eq. 3.  We model
that population with a Gaussian spread of width ``sigma_mv``:

* ``violated_fraction(f, V) = Phi((V_crit(f) - V) / sigma)``
* a data-path fault lands in an instruction with probability proportional
  to the violated fraction and to the instruction's *sensitivity* (the
  paper, following Plundervolt/V0LTpwn/Minefield, notes ``imul`` is the
  most faultable instruction — it owns the longest multiplier paths);
* once the violated fraction exceeds ``crash_fraction`` the corruption
  reaches pipeline control logic and the machine crashes — exactly the
  crash the paper runs into while charting the unsafe-region width.

This spread is also what gives the fault band its realistic tens-of-mV
width in the reproduced Figs. 2-4: without it, the alpha-power law would
make the safe-to-crash transition essentially a single millivolt at low
frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.cpu.models import CPUModel
from repro.cpu.vf_curve import VFCurve
from repro.timing.safety import SafetyAnalyzer

#: Per-operation fault rate when *every* critical path is violated, for an
#: instruction with sensitivity 1.0.  Calibrated so a 1-million iteration
#: ``imul`` loop (Algo 2's EXECUTE thread) sees its first faults roughly
#: two sigma above the typical critical voltage.
BASE_FAULT_RATE_PER_OP = 5e-5

#: Violated-path fraction below which no observable fault can occur: with
#: only the extreme tail of the path population violated, the residual
#: slack of every *architecturally visible* path still absorbs the
#: violation (metastability resolves in time).  This makes "safe" states
#: genuinely fault-free rather than merely fault-improbable — matching
#: the paper's binary safe/unsafe characterization.
ONSET_FRACTION = 0.02

#: Most distinct operating points whose violated fraction one
#: :class:`FaultModel` remembers; a full memo is cleared and refilled.
#: The Sec. 4.3 attack matrix asks ~78k times about ~160 points, while a
#: scalar characterization sweep asks about each of its cells once.
FRACTION_MEMO_SIZE = 4096

#: Relative fault sensitivities of modelled instructions (imul == 1.0).
INSTRUCTION_SENSITIVITY: Dict[str, float] = {
    "imul": 1.00,
    "mulsd": 0.72,
    "vmulpd": 0.80,
    "aesenc": 0.55,
    "add": 0.06,
    "xor": 0.03,
    "load": 0.10,
}


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass
class FaultModel:
    """Probabilistic fault behaviour of one CPU model.

    Built from a :class:`~repro.cpu.models.CPUModel`; owns the ground-truth
    analyzer and V/f curve.  The countermeasure code never touches this
    class — it observes faults only through executed workloads, as the
    paper's characterization framework does.
    """

    model: CPUModel
    #: Die temperature the silicon currently runs at; None means the
    #: process reference temperature.  Raising it shifts the critical
    #: voltage (mobility degradation vs threshold drop), which is why
    #: characterization should happen at the worst-case temperature.
    temperature_c: Optional[float] = None
    analyzer: SafetyAnalyzer = field(init=False, repr=False)
    vf_curve: VFCurve = field(init=False, repr=False)
    _vcrit_cache: Dict[tuple, float] = field(default_factory=dict, init=False, repr=False)
    _fraction_memo: Dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.analyzer = self.model.safety_analyzer()
        self.vf_curve = self.model.vf_curve()

    def set_temperature(self, temperature_c: Optional[float]) -> None:
        """Change the die temperature (affects subsequent fault queries)."""
        self.temperature_c = temperature_c

    def critical_voltage(self, frequency_ghz: float) -> float:
        """Cached typical critical voltage (V) at the current temperature."""
        temp_key = (
            None if self.temperature_c is None else round(self.temperature_c, 1)
        )
        # Key on micro-hertz precision, not the 0.1 GHz characterization
        # grid: a coarse `round(f * 10)` bucket silently served one cached
        # critical voltage for *every* frequency within the same 0.1 GHz
        # (e.g. a fine explorer sweep probing 3.61 and 3.64 GHz).
        key = (round(frequency_ghz * 1e6), temp_key)
        cached = self._vcrit_cache.get(key)
        if cached is None:
            cached = self.analyzer.critical_voltage(
                frequency_ghz, temperature_c=self.temperature_c
            )
            self._vcrit_cache[key] = cached
        return cached

    def violated_fraction(self, frequency_ghz: float, voltage_volts: float) -> float:
        """Fraction of the critical-path population violating Eq. 3.

        Memoized on the exact operating point, die temperature included,
        so a repeat query returns the value the first one computed and a
        temperature change can never serve a stale fraction.
        """
        key = (frequency_ghz, voltage_volts, self.temperature_c)
        memo = self._fraction_memo
        fraction = memo.get(key)
        if fraction is None:
            sigma_volts = self.model.sigma_mv * 1e-3
            z = (self.critical_voltage(frequency_ghz) - voltage_volts) / sigma_volts
            fraction = _phi(z)
            if len(memo) >= FRACTION_MEMO_SIZE:
                memo.clear()
            memo[key] = fraction
        return fraction

    def fault_probability(
        self,
        frequency_ghz: float,
        voltage_volts: float,
        *,
        instruction: str = "imul",
    ) -> float:
        """Per-retired-instruction probability of an observable fault."""
        try:
            sensitivity = INSTRUCTION_SENSITIVITY[instruction]
        except KeyError:
            known = ", ".join(sorted(INSTRUCTION_SENSITIVITY))
            raise ConfigurationError(
                f"unknown instruction {instruction!r}; known: {known}"
            ) from None
        fraction = self.violated_fraction(frequency_ghz, voltage_volts)
        if fraction < ONSET_FRACTION:
            return 0.0
        return min(1.0, sensitivity * BASE_FAULT_RATE_PER_OP * fraction)

    def is_crash(self, frequency_ghz: float, voltage_volts: float) -> bool:
        """Whether operating at this point crashes the machine outright."""
        if voltage_volts < self.model.process.v_retention_volts:
            return True
        return self.violated_fraction(frequency_ghz, voltage_volts) >= self.model.crash_fraction

    def conditions_for_offset(
        self, frequency_ghz: float, offset_mv: float
    ) -> "OperatingConditions":
        """Conditions at a frequency with a software voltage offset applied."""
        voltage = self.vf_curve.effective_voltage(frequency_ghz, offset_mv)
        return OperatingConditions(
            frequency_ghz=frequency_ghz,
            voltage_volts=voltage,
            offset_mv=offset_mv,
        )


@dataclass(frozen=True)
class OperatingConditions:
    """Snapshot of a core's electrical operating point."""

    frequency_ghz: float
    voltage_volts: float
    offset_mv: float
