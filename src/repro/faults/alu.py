"""A fault-aware arithmetic unit for victim payloads.

Workload-level windows (:class:`~repro.faults.injector.FaultInjector`)
are enough for the characterization loop, but *weaponising* a DVFS fault
(extracting an RSA key, corrupting an enclave decision) needs faults to
land inside concrete computations.  :class:`FaultableALU` provides that:
multiplications executed through it consult the core's live operating
conditions and occasionally return corrupted products, exactly the way a
real undervolted multiplier misbehaves.

Big-integer operations are decomposed into 64x64 limb multiplies so the
per-``imul`` fault probability composes realistically: a 512-bit modular
multiplication is ~64 limb products, any one of which may flip a bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.margin import OperatingConditions

_MASK64 = (1 << 64) - 1


@dataclass
class ALUStats:
    """Counters for one ALU lifetime."""

    imul_count: int = 0
    fault_count: int = 0


class BigIntALU:
    """Big-integer arithmetic expressed over an abstract ``bigmul``.

    ``modmul`` and ``modexp`` are defined once, here, purely in terms of
    :meth:`bigmul` — so every subclass (the fault-injecting
    :class:`FaultableALU`, the tracing/replaying ALUs of
    :mod:`repro.explore`) issues *exactly* the same multiplication
    sequence for the same inputs.  That shared op sequence is what lets
    the explorer's traced operation indices address the attack ALU's
    multiplications one for one.
    """

    def bigmul(self, lhs: int, rhs: int) -> int:
        """Arbitrary-precision multiply (subclasses implement)."""
        raise NotImplementedError

    def modmul(self, lhs: int, rhs: int, modulus: int) -> int:
        """Modular multiplication through :meth:`bigmul`."""
        if modulus <= 0:
            raise ConfigurationError("modulus must be positive")
        return self.bigmul(lhs, rhs) % modulus

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        """Square-and-multiply modular exponentiation.

        The workhorse of the RSA-CRT victim: hundreds of modular
        multiplications per exponentiation, every one through
        :meth:`bigmul`.
        """
        if modulus <= 0:
            raise ConfigurationError("modulus must be positive")
        if exponent < 0:
            raise ConfigurationError("exponent must be non-negative")
        result = 1 % modulus
        acc = base % modulus
        e = exponent
        while e:
            if e & 1:
                result = self.modmul(result, acc, modulus)
            e >>= 1
            if e:
                acc = self.modmul(acc, acc, modulus)
        return result


@dataclass
class FaultableALU(BigIntALU):
    """Executes arithmetic under live (frequency, voltage) conditions.

    Parameters
    ----------
    injector:
        The machine's fault injector.
    conditions_source:
        Zero-argument callable returning the executing core's current
        :class:`~repro.faults.margin.OperatingConditions`; typically
        ``lambda: machine.conditions(core_index)`` so mid-computation
        voltage changes (the attack!) are observed.
    """

    injector: FaultInjector
    conditions_source: Callable[[], OperatingConditions]
    stats: ALUStats = field(default_factory=ALUStats)

    def _conditions(self) -> OperatingConditions:
        return self.conditions_source()

    def imul64(self, lhs: int, rhs: int) -> int:
        """One 64x64 -> 64 multiply, possibly faulted.

        Raises
        ------
        MachineCheckError
            If the core is past the crash boundary.
        """
        product = (lhs * rhs) & _MASK64
        self.stats.imul_count += 1
        event = self.injector.maybe_fault_value(
            self._conditions(), product, instruction="imul"
        )
        if event is None:
            return product
        self.stats.fault_count += 1
        return event.faulty_value

    def bigmul(self, lhs: int, rhs: int) -> int:
        """Arbitrary-precision multiply built from faultable limb products.

        The value is computed exactly; a fault flips one bit of the exact
        product at a limb-aligned position.  The number of fault trials
        equals the number of 64x64 partial products a schoolbook
        multiplier would issue.
        """
        if lhs < 0 or rhs < 0:
            raise ConfigurationError("bigmul operates on non-negative integers")
        product = lhs * rhs
        lhs_limbs = (lhs.bit_length() + 63) // 64 or 1
        rhs_limbs = (rhs.bit_length() + 63) // 64 or 1
        trials = lhs_limbs * rhs_limbs
        self.stats.imul_count += trials
        conditions = self._conditions()
        outcome = self.injector.run_window(
            conditions, trials, instruction="imul", raise_on_crash=True
        )
        if not outcome.fault_count:
            return product
        # A fault hit one partial product: flip one bit of the exact
        # result at a limb-aligned position.
        event = outcome.events[0]
        row, col = divmod(event.op_index, rhs_limbs)
        fault_bit = (row + col) * 64 + event.flipped_bit
        self.stats.fault_count += 1
        return product ^ (1 << fault_bit)
