"""Tracing and replaying the RSA-CRT victim's multiplication sequence.

The explorer needs to address every multiplication the victim issues —
"operation 173 of the signature" — and to re-run the signature with
exactly one of those operations corrupted.  Both needs are met by ALUs
that share :class:`~repro.faults.alu.BigIntALU`'s ``modmul``/``modexp``
with the attack-path :class:`~repro.faults.alu.FaultableALU`, so the
traced operation indices address the fault-injecting ALU's
multiplications one for one:

* :class:`TracingALU` executes the signature exactly and records every
  ``bigmul`` — operands, exact product, and the modulus the product is
  reduced by immediately afterwards (``None`` for the final Garner
  recombination multiply, which is consumed mod ``n``).
* :class:`ReplayALU` re-executes the signature with real arithmetic but
  returns a corrupted product at exactly one operation index — the
  deterministic single-fault adversary of the ARMORY model.  Only the
  exponentiation the fault lands in runs the op-by-op loop; the other,
  fault-free one replays as ``pow`` and just advances the op counter.

Region labels are derived from the exponent structure: square-and-multiply
over ``e`` issues ``popcount(e) + bit_length(e) - 1`` modular
multiplications, so the trace splits exactly into the ``sp`` and ``sq``
exponentiations followed by the two Garner recombination ops.

The victim is derived once per process: the key is memoized by
:meth:`~repro.attacks.rsa_crt.RSAKey.generate` and the trace by
:func:`trace_victim`, whose :class:`TracedOp` records are frozen so one
caller cannot corrupt the trace the next one sees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.attacks.rsa_crt import RSACRTSigner, RSAKey
from repro.errors import ConfigurationError
from repro.faults.alu import BigIntALU

#: Region labels in trace order.
REGION_SP = "sp"
REGION_SQ = "sq"
REGION_RECOMBINE_H = "recombine-h"
REGION_RECOMBINE_MUL = "recombine-mul"

#: Instruction class every big-integer limb multiply decomposes into.
VICTIM_INSTRUCTION = "imul"

#: Distinct (key, message) traces :func:`trace_victim` keeps per process.
TRACE_MEMO_SIZE = 8


def modexp_op_count(exponent: int) -> int:
    """Number of ``modmul`` calls ``BigIntALU.modexp`` issues for ``exponent``.

    One multiply per set bit plus one squaring per doubling step:
    ``popcount(e) + bit_length(e) - 1`` (zero for ``e == 0``).
    """
    if exponent < 0:
        raise ConfigurationError("exponent must be non-negative")
    if exponent == 0:
        return 0
    return bin(exponent).count("1") + exponent.bit_length() - 1


@dataclass(frozen=True)
class TracedOp:
    """One recorded ``bigmul`` of the victim signature.

    ``reduce_mod`` is the modulus applied to the product immediately
    after (by ``modmul``); ``None`` marks the final recombination
    multiply, whose product is consumed mod ``n`` by the signer itself.
    ``region`` is derived by :func:`trace_victim` from the exponent
    structure.
    """

    index: int
    lhs: int
    rhs: int
    product: int
    reduce_mod: Optional[int] = None
    region: str = ""
    instruction: str = VICTIM_INSTRUCTION


class TracingALU(BigIntALU):
    """Executes arithmetic exactly while recording every ``bigmul``.

    ``records`` holds one raw ``(lhs, rhs, product, reduce_mod)`` tuple
    per multiply, in issue order.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[int, int, int, Optional[int]]] = []

    def bigmul(self, lhs: int, rhs: int) -> int:
        if lhs < 0 or rhs < 0:
            raise ConfigurationError("bigmul operates on non-negative integers")
        product = lhs * rhs
        self.records.append((lhs, rhs, product, None))
        return product

    def modmul(self, lhs: int, rhs: int, modulus: int) -> int:
        result = super().modmul(lhs, rhs, modulus)
        # The op just recorded by bigmul is the one this reduction consumes.
        self.records[-1] = self.records[-1][:3] + (modulus,)
        return result


class ReplayALU(BigIntALU):
    """Executes arithmetic exactly except at one corrupted operation.

    ``corruptor`` maps the exact product of operation ``target_index`` to
    the value the faulted multiplier would have produced; every other
    operation is computed correctly.  This is the deterministic
    single-fault adversary: one transient fault per signature.
    """

    def __init__(self, target_index: int, corruptor: Callable[[int], int]) -> None:
        self.target_index = target_index
        self.corruptor = corruptor
        self.op_count = 0

    def bigmul(self, lhs: int, rhs: int) -> int:
        if lhs < 0 or rhs < 0:
            raise ConfigurationError("bigmul operates on non-negative integers")
        product = lhs * rhs
        if self.op_count == self.target_index:
            product = self.corruptor(product)
        self.op_count += 1
        return product

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        """``BigIntALU.modexp``, run op by op only where the fault lands.

        An exponentiation that does not contain ``target_index`` is
        fault-free, so its result is ``pow(base, exponent, modulus)`` by
        definition; it only advances ``op_count`` by the multiplications
        it would have issued (:func:`modexp_op_count`).
        """
        ops = modexp_op_count(exponent)
        if self.op_count <= self.target_index < self.op_count + ops:
            return super().modexp(base, exponent, modulus)
        if modulus <= 0:
            raise ConfigurationError("modulus must be positive")
        self.op_count += ops
        return pow(base, exponent, modulus)


@dataclass(frozen=True)
class VictimTrace:
    """The victim signature's full, regioned multiplication trace."""

    key: RSAKey
    message: int
    golden_signature: int
    ops: Tuple[TracedOp, ...]

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def region_sizes(self) -> dict:
        """Op counts per region, in trace order."""
        sizes: dict = {}
        for op in self.ops:
            sizes[op.region] = sizes.get(op.region, 0) + 1
        return sizes

    def consumed_modulus(self, op: TracedOp) -> int:
        """The modulus the op's product is effectively consumed under.

        ``modmul`` ops are reduced by their recorded modulus; the final
        recombination product enters ``(s_q + q*h) % n``, so only its
        residue mod ``n`` can reach the signature.
        """
        return op.reduce_mod if op.reduce_mod is not None else self.key.n


@functools.lru_cache(maxsize=TRACE_MEMO_SIZE)
def trace_victim(key: RSAKey, message: int) -> VictimTrace:
    """Trace one RSA-CRT signature and label every op with its region.

    The region boundaries are derived from the exponent structure and
    asserted against the recorded trace, so a drift between the signer's
    op sequence and the explorer's addressing is a hard error, never a
    silently misattributed fault.

    Memoized per process (a bounded LRU, :data:`TRACE_MEMO_SIZE`
    traces); the returned trace is immutable, so sharing it is safe.
    """
    alu = TracingALU()
    golden = RSACRTSigner(key).sign(alu, message)
    n_sp = modexp_op_count(key.dp)
    n_sq = modexp_op_count(key.dq)
    expected = n_sp + n_sq + 2  # + Garner h-multiply + final recombination
    if len(alu.records) != expected:
        raise ConfigurationError(
            f"victim trace recorded {len(alu.records)} ops, expected {expected} "
            f"(sp={n_sp}, sq={n_sq}, recombine=2)"
        )
    if alu.records[-1][3] is not None:
        raise ConfigurationError(
            "final recombination op unexpectedly carries a reduce modulus"
        )

    def region(index: int) -> str:
        if index < n_sp:
            return REGION_SP
        if index < n_sp + n_sq:
            return REGION_SQ
        if index == n_sp + n_sq:
            return REGION_RECOMBINE_H
        return REGION_RECOMBINE_MUL

    ops = tuple(
        TracedOp(
            index=index,
            lhs=lhs,
            rhs=rhs,
            product=product,
            reduce_mod=reduce_mod,
            region=region(index),
        )
        for index, (lhs, rhs, product, reduce_mod) in enumerate(alu.records)
    )
    return VictimTrace(key=key, message=message, golden_signature=golden, ops=ops)


def replay_with_fault(
    key: RSAKey, message: int, op_index: int, corruptor: Callable[[int], int]
) -> int:
    """The signature produced with operation ``op_index`` corrupted."""
    return RSACRTSigner(key).sign(ReplayALU(op_index, corruptor), message)
