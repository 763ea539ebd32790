"""OS substrate: event simulator, kernel modules, MSR driver, cpufreq.

Provides the pieces of Linux the paper's countermeasure runs on: a
discrete-event timeline, a loadable-module framework whose load state can
feed SGX attestation, an MSR driver with ioctl latency, and the cpufreq
governor stack including the ``cpupower`` utility used by Algo 2.
"""

from repro.kernel.cpufreq import CPUFreqDriver, CPUFreqPolicy, CPUPower, ScalingGovernor
from repro.kernel.module import KernelModule, ModuleRegistry
from repro.kernel.msr_driver import MSRAccessStats, MSRDriver
from repro.kernel.procinfo import render_cpuinfo, render_system_status
from repro.kernel.sim import Event, RecurringEvent, SimObserver, Simulator, Task
from repro.kernel.sysfs import SysfsAttribute, SysfsDirectory, expose_polling_module
from repro.kernel.victim import ContinuousVictim, FaultBurst, VictimTrace

__all__ = [
    "CPUFreqDriver",
    "CPUFreqPolicy",
    "CPUPower",
    "ScalingGovernor",
    "KernelModule",
    "ModuleRegistry",
    "MSRAccessStats",
    "MSRDriver",
    "render_cpuinfo",
    "render_system_status",
    "Event",
    "RecurringEvent",
    "SimObserver",
    "Simulator",
    "Task",
    "SysfsAttribute",
    "SysfsDirectory",
    "expose_polling_module",
    "ContinuousVictim",
    "FaultBurst",
    "VictimTrace",
]
