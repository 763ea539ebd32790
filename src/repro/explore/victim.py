"""Tracing the RSA-CRT victim's multiplications and replaying one fault.

The explorer needs to address every multiplication the victim issues —
"operation 173 of the signature" — and to know the signature produced
with exactly one of those operations corrupted (the deterministic
single-fault adversary of the ARMORY model).

* :class:`TracingALU` shares :class:`~repro.faults.alu.BigIntALU`'s
  ``modmul``/``modexp`` with the attack-path
  :class:`~repro.faults.alu.FaultableALU`, so the traced operation
  indices address the fault-injecting ALU's multiplications one for one.
  It executes the signature exactly and records every ``bigmul`` —
  operands, exact product, and the modulus the product is reduced by
  immediately afterwards (``None`` for the final Garner recombination
  multiply, which is consumed mod ``n``).
* :func:`replay_with_fault` never re-executes the signature.  It reads
  the faulted op's operands and exact product from the golden trace,
  and finishes the exponentiation the fault lands in with one ``pow``:
  everything after a single fault is fault-free arithmetic on the
  corrupted value.  The other CRT half is the golden one, read from its
  last traced multiply.  A faulted multiply's tail power depends on the
  op alone, so the trace computes it once and every fault model replayed
  at that op reuses it.
* :func:`replay_op_by_op` is the oracle the closed form is held against:
  it signs again through ``BigIntALU.modexp``, op by op, corrupting the
  one targeted multiply.

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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.attacks.rsa_crt import RSACRTSigner, RSAKey
from repro.errors import ConfigurationError
from repro.faults.alu import BigIntALU, _square_schedule

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


class _Half(NamedTuple):
    """One CRT exponentiation ``base ** exponent % modulus`` of the trace."""

    #: Trace index of its first op.
    start: int
    exponent: int
    modulus: int
    #: Its op sequence (:func:`~repro.faults.alu._square_schedule`).
    squares: Tuple[bool, ...]
    #: Its fault-free result: the product of its last multiply, reduced.
    golden: int


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

    @functools.cached_property
    def _halves(self) -> Dict[str, _Half]:
        """The ``sp`` and ``sq`` exponentiations, computed once per trace."""
        halves = {}
        start = 0
        for region, exponent, modulus in (
            (REGION_SP, self.key.dp, self.key.p),
            (REGION_SQ, self.key.dq, self.key.q),
        ):
            squares = _square_schedule(exponent)
            last = self.ops[start + len(squares) - 1]
            halves[region] = _Half(
                start, exponent, modulus, squares, last.product % modulus
            )
            start += len(squares)
        return halves

    @functools.cached_property
    def _tails(self) -> Dict[int, int]:
        """Each replayed multiply op's tail power, by op index.

        Filled by :func:`replay_with_fault`: the tail depends on the op
        alone, so every fault model replayed at that op shares it.
        """
        return {}


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
    trace: VictimTrace, op_index: int, corruptor: Callable[[int], int]
) -> int:
    """The signature produced with operation ``op_index`` corrupted.

    ``corruptor`` maps the op's exact product to the faulted multiplier's
    output; every other op is exact.  Out-of-range indices corrupt
    nothing and give the golden signature.

    Inside an exponentiation (right-to-left square-and-multiply, bit
    ``k``), with ``v`` the faulted product reduced mod ``m``:

    * a faulted multiply ``result * acc`` leaves ``result = v``; every
      later multiply is by ``acc`` squared once per bit, so the half is
      ``v * acc ** (2 * (e >> (k+1))) % m``.  That tail power depends on
      the op alone and is computed once per trace (``VictimTrace._tails``);
    * a faulted squaring leaves ``acc = v``; the half is the result so
      far (the last multiply before it, or 1) times ``v ** (e >> (k+1))``.

    Garner's recombination then runs with the other half's golden value.
    """
    if not 0 <= op_index < trace.op_count:
        return trace.golden_signature
    key = trace.key
    op = trace.ops[op_index]
    halves = trace._halves
    s_q = halves[REGION_SQ].golden
    if op.region == REGION_RECOMBINE_MUL:
        return (s_q + corruptor(op.product)) % key.n
    value = corruptor(op.product) % op.reduce_mod
    if op.region == REGION_RECOMBINE_H:
        return (s_q + key.q * value) % key.n

    half = halves[op.region]
    m = half.modulus
    position = op_index - half.start
    rest = half.exponent >> (half.squares[:position].count(True) + 1)
    if half.squares[position]:
        prior = position - 1
        while prior >= 0 and half.squares[prior]:
            prior -= 1
        result = trace.ops[half.start + prior].product % m if prior >= 0 else 1 % m
        faulted = result * pow(value, rest, m) % m
    else:
        tail = trace._tails.get(op_index)
        if tail is None:
            tail = trace._tails[op_index] = pow(op.rhs, rest << 1, m)
        faulted = value * tail % m

    if op.region == REGION_SP:
        s_p = faulted
    else:
        s_p, s_q = halves[REGION_SP].golden, faulted
    h = key.qinv * ((s_p - s_q) % key.p) % key.p
    return (s_q + key.q * h) % key.n


class _OneFaultALU(BigIntALU):
    """Exact arithmetic except the ``bigmul`` at ``target_index``, whose
    product is replaced by ``corruptor(product)``."""

    def __init__(self, target_index: int, corruptor: Callable[[int], int]) -> None:
        self.target_index = target_index
        self.corruptor = corruptor
        self.op_count = 0

    def bigmul(self, lhs: int, rhs: int) -> int:
        product = lhs * rhs
        if self.op_count == self.target_index:
            product = self.corruptor(product)
        self.op_count += 1
        return product


def replay_op_by_op(
    key: RSAKey, message: int, op_index: int, corruptor: Callable[[int], int]
) -> Tuple[int, int]:
    """The single-fault replay run op by op: ``(signature, ops issued)``.

    Every multiply of the signature goes through ``bigmul``; the one at
    ``op_index`` is corrupted.  This is the oracle
    :func:`replay_with_fault` must agree with, and the baseline its speed
    is measured against.
    """
    alu = _OneFaultALU(op_index, corruptor)
    return RSACRTSigner(key).sign(alu, message), alu.op_count
