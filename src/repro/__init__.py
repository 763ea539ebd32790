"""Reproduction of "Plug Your Volt: Protecting Intel Processors against
Dynamic Voltage Frequency Scaling based Fault Attacks" (DAC 2024).

The package implements the paper's countermeasure — safe/unsafe system
state characterization plus a polling kernel module — together with every
substrate it needs: a simulated Intel processor (MSRs, overclocking
mailbox, voltage regulator, P-states), the circuit-timing physics of
Eq. 1-3, a discrete-event OS layer, SGX enclaves with attestation and
stepping, the published attacks (Plundervolt, VoltJockey, V0LTpwn), the
baseline defenses (Intel SA-00289 access control, Minefield deflection),
and a SPEC2017-style overhead harness.

Quick start::

    from repro import Machine, COMET_LAKE
    from repro.core import CharacterizationFramework, PollingCountermeasure

    unsafe = CharacterizationFramework(COMET_LAKE).run().unsafe_states
    machine = Machine.build(COMET_LAKE, seed=1)
    machine.modules.insmod(PollingCountermeasure(machine, unsafe))

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper.
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the submodule that defines it.
    The submodule is imported on first access to the name, so importing
    the package itself costs nothing beyond its own body; ``repro
    list-cpus`` relies on that to start without numpy or the engine.
    """
    module = sys.modules[package]

    def __getattr__(name: str):
        try:
            home = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(home), name)
        setattr(module, name, value)
        return value

    def __dir__():
        return sorted({*vars(module), *exports})

    return __getattr__, __dir__


#: Public name -> the submodule that defines it.
_EXPORTS = {
    "COMET_LAKE": "repro.cpu.models",
    "KABY_LAKE_R": "repro.cpu.models",
    "PAPER_MODEL_TUPLE": "repro.cpu.models",
    "SKY_LAKE": "repro.cpu.models",
    "CPUModel": "repro.cpu.models",
    "ReproError": "repro.errors",
    "Machine": "repro.testbench",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "COMET_LAKE",
    "KABY_LAKE_R",
    "PAPER_MODEL_TUPLE",
    "SKY_LAKE",
    "CPUModel",
    "ReproError",
    "Machine",
    "__version__",
]
