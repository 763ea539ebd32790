"""Factory voltage/frequency curve.

Real Intel parts ship with an internal V/f curve: for every P-state ratio
the FIVR (fully integrated voltage regulator) targets a factory-fused base
voltage.  Software undervolting through MSR 0x150 *offsets* that base
voltage; it does not set an absolute value (Sec. 2.3).

We derive the curve from the physics model: the factory voltage at a
frequency is the voltage at which the critical path consumes
``(1 - guardband)`` of the timing budget, clamped from below by the part's
minimum operating voltage (``v_floor``).  The guardband is the margin the
vendor provisions against aging, temperature and droop — and it is exactly
the *safe undervolt band* that Figs. 2-4 of the paper chart before faults
begin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.cpu.frequency_table import FrequencyTable
from repro.timing.safety import SafetyAnalyzer


@dataclass
class VFCurve:
    """Maps core frequency to the factory base voltage.

    Parameters
    ----------
    analyzer:
        Ground-truth timing model of the part's critical path.
    table:
        Supported frequency range.
    guardband:
        Fraction of the timing budget reserved as margin at the factory
        operating point.
    v_floor_volts:
        Minimum operating voltage; at low frequencies the curve is clamped
        here, which is why low-frequency points tolerate much deeper
        undervolts before faulting.
    v_margin_volts:
        Fixed voltage guardband added on top of the timing-derived curve
        (droop/aging margin); vendors provision both kinds of margin.
    v_ceiling_volts:
        Hard upper bound the regulator will ever deliver.
    """

    analyzer: SafetyAnalyzer
    table: FrequencyTable
    guardband: float
    v_floor_volts: float
    v_margin_volts: float = 0.05
    v_ceiling_volts: float = 1.52
    _cache: Dict[int, float] = field(default_factory=dict, repr=False)
    _exact: Dict[float, float] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.guardband < 0.5:
            raise ConfigurationError("guardband must lie in (0, 0.5)")
        if self.v_margin_volts < 0:
            raise ConfigurationError("v_margin_volts must be non-negative")
        if self.v_floor_volts <= self.analyzer.process.vth_volts:
            raise ConfigurationError("voltage floor must exceed the threshold voltage")
        if self.v_ceiling_volts <= self.v_floor_volts:
            raise ConfigurationError("voltage ceiling must exceed the floor")

    def base_voltage(self, frequency_ghz: float) -> float:
        """Factory base voltage (V) for a supported frequency."""
        # Exact-float memo: only a frequency validated before skips the
        # table check; every other float still goes through validate().
        voltage = self._exact.get(frequency_ghz)
        if voltage is not None:
            return voltage
        self.table.validate(frequency_ghz)
        key = round(frequency_ghz * 10)
        voltage = self._cache.get(key)
        if voltage is None:
            designed = self.analyzer.design_voltage(frequency_ghz, guardband=self.guardband)
            voltage = max(designed, self.v_floor_volts) + self.v_margin_volts
            voltage = min(voltage, self.v_ceiling_volts)
            self._cache[key] = voltage
        self._exact[frequency_ghz] = voltage
        return voltage

    def base_voltage_mv(self, frequency_ghz: float) -> float:
        """Factory base voltage in millivolts."""
        return self.base_voltage(frequency_ghz) * 1e3

    def safe_undervolt_limit_mv(self, frequency_ghz: float) -> float:
        """Ground-truth deepest safe offset (negative mV) at a frequency.

        This is ``-(V_base(f) - V_crit(f))`` — the boundary the paper's
        characterization framework rediscovers empirically.  Library users
        building countermeasures must *not* consult this; it exists for
        validation and for the analysis/reporting layer.
        """
        base = self.base_voltage(frequency_ghz)
        critical = self.analyzer.critical_voltage(frequency_ghz)
        return -(base - critical) * 1e3

    def effective_voltage(self, frequency_ghz: float, offset_mv: float) -> float:
        """Core voltage (V) after applying a software offset in mV.

        Offsets ride on top of the factory curve exactly as MSR 0x150
        semantics dictate; the result is clamped to the regulator's
        physical output range.
        """
        voltage = self.base_voltage(frequency_ghz) + offset_mv * 1e-3
        return min(max(voltage, 0.0), self.v_ceiling_volts)
