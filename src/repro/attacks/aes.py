"""AES-128 under fault injection, and Piret-Quisquater DFA key recovery.

Plundervolt's second flagship weaponization (besides RSA-CRT): fault an
AES-NI encryption inside an enclave and recover the key by differential
fault analysis.  A single-byte fault on the state *entering round 9*
propagates — through round 9's SubBytes/ShiftRows/MixColumns and round
10's SubBytes — into exactly four ciphertext bytes whose differences are
related through known MixColumns coefficients; each correct/faulty
ciphertext pair therefore narrows four bytes of the last round key, and
a couple of pairs per column pin the whole key (Piret & Quisquater,
CHES 2003).  Inverting the key schedule yields the master key.

The enclave-side :class:`FaultableAES` executes each round as a fault
window (16 byte-operations of ``aesenc`` sensitivity); faults land in
random rounds, and — exactly like the real attack — only those whose
ciphertext difference pattern matches a round-9 single-byte fault are
kept, the rest are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AttackError, ConfigurationError
from repro.faults.alu import FaultableALU

# -- AES-128 primitives ------------------------------------------------------

SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16"
)
INV_SBOX = bytearray(256)
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i
INV_SBOX = bytes(INV_SBOX)

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

#: MixColumns matrix (row-major).
MC = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))


def gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication with the AES polynomial.

    The bit-serial reference: the hot paths use the ``_MUL2``/``_MUL3``
    tables below, which the tests check against it entry by entry.
    """
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def expand_key(key: bytes) -> List[bytes]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != 16:
        raise ConfigurationError("AES-128 key must be 16 bytes")
    words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 44):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [SBOX[b] for b in word]
            word[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], word)])
    return [
        bytes(b for word in words[4 * r : 4 * r + 4] for b in word) for r in range(11)
    ]


def invert_key_schedule(last_round_key: bytes, rounds: int = 10) -> bytes:
    """Walk the AES-128 key schedule backwards from round ``rounds``."""
    if len(last_round_key) != 16:
        raise ConfigurationError("round key must be 16 bytes")
    key = list(last_round_key)
    for r in range(rounds, 0, -1):
        previous = [0] * 16
        for i in range(15, 3, -1):
            previous[i] = key[i] ^ key[i - 4]
        rotated = previous[13], previous[14], previous[15], previous[12]
        substituted = [SBOX[b] for b in rotated]
        substituted[0] ^= RCON[r - 1]
        for i in range(4):
            previous[i] = key[i] ^ substituted[i]
        key = previous
    return bytes(key)


def _xtime(b: int) -> int:
    """Multiplication by x (i.e. 2) in GF(2^8)."""
    return ((b << 1) ^ (0x1B if b & 0x80 else 0)) & 0xFF


#: ``gmul(2, b)`` and ``gmul(3, b)`` for every byte ``b``: MixColumns and
#: the DFA's coefficient products become table lookups.
_MUL2 = bytes(_xtime(b) for b in range(256))
_MUL3 = bytes(m ^ b for b, m in enumerate(_MUL2))
_MUL_BY = {1: bytes(range(256)), 2: _MUL2, 3: _MUL3}

#: ShiftRows as an index permutation of the column-major state
#: (index = row + 4*col; row r shifts left by r).
_SHIFT_ROWS = tuple(r + 4 * ((c + r) % 4) for c in range(4) for r in range(4))


def _sub_shift(state: List[int]) -> List[int]:
    """SubBytes then ShiftRows (the two commute; one pass does both)."""
    return [SBOX[state[i]] for i in _SHIFT_ROWS]


def _mix_columns(state: List[int]) -> List[int]:
    mixed: List[int] = []
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c : c + 4]
        mixed += (
            _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3,
            a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3,
            a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3],
            _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3],
        )
    return mixed


def _add_round_key(state: List[int], round_key: bytes) -> List[int]:
    return [s ^ k for s, k in zip(state, round_key)]


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """Reference AES-128 encryption (no faults)."""
    round_keys = expand_key(key)
    return _encrypt_with_schedule(round_keys, plaintext, fault_round=None, fault=None)


def _encrypt_with_schedule(
    round_keys: Sequence[bytes],
    plaintext: bytes,
    *,
    fault_round: Optional[int],
    fault: Optional[Tuple[int, int]],
) -> bytes:
    """Encrypt, optionally xoring ``fault=(index, delta)`` into the state
    entering ``fault_round`` (1-based)."""
    if len(plaintext) != 16:
        raise ConfigurationError("AES block must be 16 bytes")
    state = _add_round_key(plaintext, round_keys[0])
    for round_index in range(1, 10):
        if fault_round == round_index and fault is not None:
            state[fault[0]] ^= fault[1]
        state = _add_round_key(_mix_columns(_sub_shift(state)), round_keys[round_index])
    if fault_round == 10 and fault is not None:
        state[fault[0]] ^= fault[1]
    state = _add_round_key(_sub_shift(state), round_keys[10])
    return bytes(state)


def _round_entry_states(
    round_keys: Sequence[bytes], plaintext: bytes
) -> Tuple[Tuple[int, ...], ...]:
    """The fault-free states entering rounds 1..10 of one encryption.

    Entry ``r - 1`` is the state :func:`_encrypt_with_schedule` xors a
    ``fault_round=r`` fault into.
    """
    if len(plaintext) != 16:
        raise ConfigurationError("AES block must be 16 bytes")
    state = _add_round_key(plaintext, round_keys[0])
    states = [tuple(state)]
    for round_index in range(1, 10):
        state = _add_round_key(_mix_columns(_sub_shift(state)), round_keys[round_index])
        states.append(tuple(state))
    return tuple(states)


def _encrypt_from_round(
    round_keys: Sequence[bytes],
    entry_states: Sequence[Sequence[int]],
    fault_round: int,
    fault: Tuple[int, int],
) -> bytes:
    """:func:`_encrypt_with_schedule` with a fault, replayed from the
    golden state entering ``fault_round`` (``entry_states`` as
    :func:`_round_entry_states` returns them).

    The rounds before ``fault_round`` never see the fault, so their
    output is the golden entry state: only rounds ``fault_round``..10
    run, on the same primitives, and the ciphertext is identical.
    """
    state = list(entry_states[fault_round - 1])
    state[fault[0]] ^= fault[1]
    for round_index in range(fault_round, 10):
        state = _add_round_key(_mix_columns(_sub_shift(state)), round_keys[round_index])
    return bytes(_add_round_key(_sub_shift(state), round_keys[10]))


# -- the enclave-side faultable implementation ---------------------------------


class FaultableAES:
    """AES-128 whose rounds execute as fault windows on the live core.

    Each of the 10 rounds is a window of 16 ``aesenc``-sensitivity byte
    operations; if the injector lands a fault in a round's window, one
    random state byte entering that round is corrupted (a random non-zero
    xor).  This matches the single-byte transient upsets Plundervolt
    observed for AES-NI.
    """

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)

    def encrypt(self, alu: FaultableALU, plaintext: bytes) -> bytes:
        """Encrypt one block under the core's current conditions."""
        injector = alu.injector
        conditions = alu.conditions_source()
        fault_round: Optional[int] = None
        fault: Optional[Tuple[int, int]] = None
        for round_index in range(1, 11):
            outcome = injector.run_window(conditions, 16, instruction="aesenc")
            alu.stats.imul_count += 16
            if outcome.fault_count and fault_round is None:
                event = outcome.events[0]
                delta = 1 + (event.flipped_bit * 37) % 255  # any non-zero byte
                fault_round = round_index
                fault = (event.op_index % 16, delta)
                alu.stats.fault_count += 1
        return _encrypt_with_schedule(
            self._round_keys, plaintext, fault_round=fault_round, fault=fault
        )


# -- Piret-Quisquater differential fault analysis --------------------------------

#: For a fault in round-9-input column ``c`` the affected ciphertext byte
#: indices (after round 9 ShiftRows moves the column and round 10
#: ShiftRows spreads it).
def _ciphertext_group(column_after_sr9: int) -> Tuple[int, ...]:
    return tuple(
        row + 4 * ((column_after_sr9 - row) % 4) for row in range(4)
    )


CIPHERTEXT_GROUPS: Tuple[Tuple[int, ...], ...] = tuple(
    _ciphertext_group(c) for c in range(4)
)


def diff_group(correct: bytes, faulty: bytes) -> Optional[int]:
    """Which ciphertext group differs — or None if the pattern does not
    match a round-9 single-byte fault (wrong round; discard)."""
    differing = {i for i in range(16) if correct[i] != faulty[i]}
    if not differing:
        return None
    for group_index, group in enumerate(CIPHERTEXT_GROUPS):
        if differing == set(group):
            return group_index
    return None


#: ``_MC_TARGETS[r, j, delta - 1]`` is ``MC[j][r]·delta``: the S-box input
#: difference output byte ``j`` of a group shows when a round-9 fault of
#: ``delta`` hits row ``r`` of its column.
_MC_TARGETS = np.array(
    [
        [[_MUL_BY[MC[j][fault_row]][delta] for delta in range(1, 256)] for j in range(4)]
        for fault_row in range(4)
    ],
    dtype=np.intp,
)
_INV_SBOX_TABLE = np.frombuffer(INV_SBOX, dtype=np.uint8)
_KEY_GUESSES = np.arange(256, dtype=np.uint8)
#: Row / output-byte index arrays that broadcast against the tables.
_BYTE_ROWS = np.arange(4)[:, None]
_BYTE_AXIS = np.arange(4)[None, :, None]


@dataclass
class DFAState:
    """Accumulated key knowledge, per ciphertext group."""

    candidates: Dict[int, List[Set[int]]] = field(default_factory=dict)

    def absorb(self, correct: bytes, faulty: bytes) -> Optional[int]:
        """Fold one correct/faulty pair in; returns the group hit or None.

        Pairs hitting an already-solved group are recognised but skipped
        (no information left to extract).  The (delta, row) enumeration
        runs over numpy tables of all 256 key guesses per output byte: a
        key guess survives for byte ``j`` when the S-box input difference
        it implies is ``MC[j][row]·delta`` for some (delta, row) that all
        four bytes of the group can explain.
        """
        group_index = diff_group(correct, faulty)
        if group_index is None:
            return None
        if group_index in self.solved_groups():
            return group_index
        group = CIPHERTEXT_GROUPS[group_index]
        c = np.array([correct[i] for i in group], dtype=np.uint8)[:, None]
        f = np.array([faulty[i] for i in group], dtype=np.uint8)[:, None]
        # diffs[j, k]: S-box input difference of byte j under key guess k.
        diffs = (
            _INV_SBOX_TABLE[c ^ _KEY_GUESSES] ^ _INV_SBOX_TABLE[f ^ _KEY_GUESSES]
        ).astype(np.intp)
        produced = np.zeros((4, 256), dtype=bool)
        produced[_BYTE_ROWS, diffs] = True
        # (row, delta) pairs whose differences every byte can produce.
        explained = produced[_BYTE_AXIS, _MC_TARGETS].all(axis=1)
        wanted = np.zeros((4, 256), dtype=bool)
        wanted[_BYTE_ROWS, _MC_TARGETS.transpose(1, 0, 2)[:, explained]] = True
        survivors = np.take_along_axis(wanted, diffs, axis=1)
        pair_sets = [set(np.flatnonzero(row).tolist()) for row in survivors]
        existing = self.candidates.get(group_index)
        if existing is None:
            self.candidates[group_index] = pair_sets
        else:
            for j in range(4):
                existing[j] &= pair_sets[j]
        return group_index

    def solved_groups(self) -> Set[int]:
        """Groups whose four key bytes are uniquely determined."""
        return {
            g
            for g, sets in self.candidates.items()
            if all(len(s) == 1 for s in sets)
        }

    @property
    def complete(self) -> bool:
        """Whether all 16 bytes of the last round key are pinned."""
        return self.solved_groups() == {0, 1, 2, 3}

    def last_round_key(self) -> bytes:
        """Assemble K10 once :attr:`complete`."""
        if not self.complete:
            raise AttackError("DFA has not converged on all four groups yet")
        key = [0] * 16
        for group_index, sets in self.candidates.items():
            group = CIPHERTEXT_GROUPS[group_index]
            for j in range(4):
                key[group[j]] = next(iter(sets[j]))
        return bytes(key)

    def recover_master_key(self) -> bytes:
        """Invert the key schedule from the recovered K10."""
        return invert_key_schedule(self.last_round_key())
