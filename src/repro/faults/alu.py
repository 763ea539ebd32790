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
from typing import Callable, List, Tuple

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
    multiplications one for one.  :class:`FaultableALU` overrides
    ``modexp`` only to draw its fault windows in bulk; this op-by-op
    ``modexp`` is the oracle it is tested against.
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
    """Executes arithmetic under the core's (frequency, voltage) conditions.

    ``imul64`` and ``bigmul`` read the conditions live, once per call.
    ``modexp`` reads them once per exponentiation: the simulated clock
    only moves when the machine advances, which never happens inside an
    ``ecall``, so one operating point holds for the whole
    exponentiation.  At that point it plans the square-and-multiply with
    plain ints, draws every multiply's fault window in one
    :meth:`~repro.faults.injector.FaultInjector.run_clean_windows` call,
    and steps op by op (through :meth:`bigmul`'s window) only where a
    fault or crash lands — consuming the seeded stream, counters and
    trace exactly as :meth:`BigIntALU.modexp`, the op-by-op oracle, does.

    Parameters
    ----------
    injector:
        The machine's fault injector.
    conditions_source:
        Zero-argument callable returning the executing core's current
        :class:`~repro.faults.margin.OperatingConditions`; typically
        ``lambda: machine.conditions(core_index)``.
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
        return self._bigmul_at(lhs, rhs, self._conditions())

    def _bigmul_at(self, lhs: int, rhs: int, conditions: OperatingConditions) -> int:
        """:meth:`bigmul` at given conditions: one fault window."""
        product = lhs * rhs
        rhs_limbs = _limbs(rhs)
        trials = _limbs(lhs) * rhs_limbs
        self.stats.imul_count += trials
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

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        """:meth:`BigIntALU.modexp` with bulk-drawn fault windows.

        Plans the exact operands of every remaining ``modmul``, lets the
        injector run the clean prefix of their windows in one draw, then
        executes the first eventful multiply through :meth:`bigmul`'s
        window (a fault, or the crash that raises
        :class:`~repro.errors.MachineCheckError`) and plans again from
        the faulted intermediate.
        """
        if modulus <= 0:
            raise ConfigurationError("modulus must be positive")
        if exponent < 0:
            raise ConfigurationError("exponent must be non-negative")
        result = 1 % modulus
        acc = base % modulus
        squares = _square_schedule(exponent)
        if not squares:
            return result
        conditions = self._conditions()
        op = 0
        while op < len(squares):
            states, trials = _plan(squares, op, result, acc, modulus)
            clean = self.injector.run_clean_windows(conditions, trials, instruction="imul")
            self.stats.imul_count += sum(trials[:clean])
            result, acc = states[clean]
            op += clean
            if op == len(squares):
                break
            if squares[op]:
                acc = self._bigmul_at(acc, acc, conditions) % modulus
            else:
                result = self._bigmul_at(result, acc, conditions) % modulus
            op += 1
        return result


def _limbs(value: int) -> int:
    """64-bit limbs a schoolbook multiplier spends on ``value``."""
    return (value.bit_length() + 63) // 64 or 1


def _square_schedule(exponent: int) -> Tuple[bool, ...]:
    """The ``modmul`` sequence :meth:`BigIntALU.modexp` issues for ``exponent``.

    ``True`` marks a squaring of the accumulator, ``False`` a multiply of
    the result by it.
    """
    schedule: List[bool] = []
    e = exponent
    while e:
        if e & 1:
            schedule.append(False)
        e >>= 1
        if e:
            schedule.append(True)
    return tuple(schedule)


def _plan(
    squares: Tuple[bool, ...], start: int, result: int, acc: int, modulus: int
) -> Tuple[List[Tuple[int, int]], List[int]]:
    """Fault-free run of ``squares[start:]`` from state ``(result, acc)``.

    Returns the ``(result, acc)`` state before every op plus the final
    one, and every op's fault-trial count (limb products of its operands).
    """
    states = [(result, acc)]
    trials = []
    for square in squares[start:]:
        if square:
            limbs = _limbs(acc)
            trials.append(limbs * limbs)
            acc = acc * acc % modulus
        else:
            trials.append(_limbs(result) * _limbs(acc))
            result = result * acc % modulus
        states.append((result, acc))
    return states, trials
