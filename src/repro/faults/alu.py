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

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.margin import OperatingConditions

_MASK64 = (1 << 64) - 1

#: Distinct fault-free exponentiation plans :meth:`FaultableALU.modexp`
#: keeps per process.
PLAN_MEMO_SIZE = 8


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
    exponentiation.  The fault-free ("golden") plan of the
    square-and-multiply — its intermediate states and per-multiply trial
    counts — depends only on ``(exponent, modulus, base % modulus)``, so
    it is computed once per process and shared (:func:`_golden_plan`, a
    bounded LRU): a victim that signs one message attempt after attempt
    plans each CRT half once.  ``modexp`` draws every multiply's fault
    window in one
    :meth:`~repro.faults.injector.FaultInjector.run_clean_windows` call,
    and steps op by op (through :meth:`bigmul`'s window) only where a
    fault or crash lands, planning afresh from the faulted intermediate —
    consuming the seeded stream, counters and trace exactly as
    :meth:`BigIntALU.modexp`, the op-by-op oracle, does.

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

        Takes the fault-free plan of the whole exponentiation from a
        per-process memo (:func:`_golden_plan`), lets the injector run the
        clean prefix of its windows in one draw, then executes the first
        eventful multiply through :meth:`bigmul`'s window (a fault, or the
        crash that raises :class:`~repro.errors.MachineCheckError`) and
        plans again, uncached, from the faulted intermediate.
        """
        if modulus <= 0:
            raise ConfigurationError("modulus must be positive")
        if exponent < 0:
            raise ConfigurationError("exponent must be non-negative")
        if not exponent:
            return 1 % modulus
        squares, plan = _golden_plan(exponent, modulus, base % modulus)
        conditions = self._conditions()
        op = 0
        while True:
            clean = self.injector.run_clean_windows(
                conditions, plan.trials, instruction="imul"
            )
            self.stats.imul_count += plan.spent[clean]
            result, acc = plan.states[clean]
            op += clean
            if op == len(squares):
                return result
            if squares[op]:
                acc = self._bigmul_at(acc, acc, conditions) % modulus
            else:
                result = self._bigmul_at(result, acc, conditions) % modulus
            op += 1
            if op == len(squares):
                return result
            plan = _plan(squares, op, result, acc, modulus)


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


@dataclass(frozen=True)
class _Plan:
    """A fault-free run of a square-and-multiply schedule's tail.

    ``states[k]`` is the ``(result, acc)`` state before the tail's op
    ``k`` (the last entry is the final state), ``trials[k]`` that op's
    fault-trial count as the read-only int64 array
    :meth:`~repro.faults.injector.FaultInjector.run_clean_windows` draws
    over, and ``spent[k]`` the trials of the first ``k`` ops as a Python
    int.
    """

    states: Tuple[Tuple[int, int], ...]
    trials: np.ndarray
    spent: Tuple[int, ...]


def _plan(
    squares: Tuple[bool, ...], start: int, result: int, acc: int, modulus: int
) -> _Plan:
    """Fault-free run of ``squares[start:]`` from state ``(result, acc)``."""
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
    array = np.array(trials, dtype=np.int64)
    array.flags.writeable = False
    return _Plan(tuple(states), array, tuple(itertools.accumulate(trials, initial=0)))


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _golden_plan(exponent: int, modulus: int, acc: int) -> Tuple[Tuple[bool, ...], _Plan]:
    """The schedule and fault-free plan of ``acc ** exponent % modulus``.

    Memoized per process (a bounded LRU, :data:`PLAN_MEMO_SIZE` plans)
    on ``(exponent, modulus, base % modulus)``, everything the fault-free
    run depends on: an RSA-CRT victim signs one message with one key
    attempt after attempt, so its two exponentiations are planned once.
    The plan is immutable, so sharing it is safe.
    """
    squares = _square_schedule(exponent)
    return squares, _plan(squares, 0, 1 % modulus, acc, modulus)
