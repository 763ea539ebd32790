"""Simulated Intel processor substrate.

Everything the countermeasure and the attacks see of "the hardware" lives
here: frequency tables, factory V/f curves, the MSR file with the
overclocking-mailbox protocol (MSR 0x150) and IA32_PERF_STATUS (0x198),
the voltage regulator with settle latency, and the three CPU models the
paper evaluates (Sky Lake i5-6500, Kaby Lake R i5-8250U, Comet Lake
i7-10510U).
"""

from repro import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Core": "repro.cpu.core",
    "FrequencyTable": "repro.cpu.frequency_table",
    "COMET_LAKE": "repro.cpu.models",
    "EXTENDED_MODELS": "repro.cpu.models",
    "ICE_LAKE": "repro.cpu.models",
    "KABY_LAKE_R": "repro.cpu.models",
    "PAPER_MODELS": "repro.cpu.models",
    "PAPER_MODEL_TUPLE": "repro.cpu.models",
    "SKY_LAKE": "repro.cpu.models",
    "CPUModel": "repro.cpu.models",
    "model_by_codename": "repro.cpu.models",
    "IA32_PERF_CTL": "repro.cpu.msr",
    "IA32_PERF_STATUS": "repro.cpu.msr",
    "MSR_OC_MAILBOX": "repro.cpu.msr",
    "MSR_PLATFORM_INFO": "repro.cpu.msr",
    "MSR_VOLTAGE_OFFSET_LIMIT": "repro.cpu.msr",
    "MSRFile": "repro.cpu.msr",
    "VoltagePlane": "repro.cpu.ocm",
    "CorePowerModel": "repro.cpu.power",
    "PowerParameters": "repro.cpu.power",
    "MicrocodeLoader": "repro.cpu.microcode",
    "MicrocodeUpdate": "repro.cpu.microcode",
    "guard_update": "repro.cpu.microcode",
    "ThermalModel": "repro.cpu.thermal",
    "ThermalParameters": "repro.cpu.thermal",
    "SimulatedProcessor": "repro.cpu.processor",
    "VFCurve": "repro.cpu.vf_curve",
    "VoltageRegulator": "repro.cpu.voltage_regulator",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "Core",
    "FrequencyTable",
    "COMET_LAKE",
    "EXTENDED_MODELS",
    "ICE_LAKE",
    "KABY_LAKE_R",
    "PAPER_MODELS",
    "PAPER_MODEL_TUPLE",
    "SKY_LAKE",
    "CPUModel",
    "model_by_codename",
    "IA32_PERF_CTL",
    "IA32_PERF_STATUS",
    "MSR_OC_MAILBOX",
    "MSR_PLATFORM_INFO",
    "MSR_VOLTAGE_OFFSET_LIMIT",
    "MSRFile",
    "VoltagePlane",
    "CorePowerModel",
    "PowerParameters",
    "ThermalModel",
    "ThermalParameters",
    "MicrocodeLoader",
    "MicrocodeUpdate",
    "guard_update",
    "SimulatedProcessor",
    "VFCurve",
    "VoltageRegulator",
]
