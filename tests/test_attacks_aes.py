"""AES-128, fault injection, and the Piret-Quisquater DFA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AttackError, ConfigurationError
from repro.attacks.aes import (
    CIPHERTEXT_GROUPS,
    INV_SBOX,
    MC,
    SBOX,
    _MUL2,
    _MUL3,
    DFAState,
    FaultableAES,
    _encrypt_from_round,
    _encrypt_with_schedule,
    _round_entry_states,
    diff_group,
    encrypt_block,
    expand_key,
    gmul,
    invert_key_schedule,
)
from repro.attacks.aes_dfa import AESDFAAttack, AESDFAConfig
from repro.core import PollingCountermeasure
from repro.cpu import COMET_LAKE
from repro.faults.alu import FaultableALU
from repro.faults.injector import FaultInjector
from repro.faults.margin import FaultModel
from repro.testbench import Machine

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

SP800_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_PT = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
SP800_CT = bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")


def _reference_encrypt(round_keys, plaintext, fault_round, fault):
    """Textbook AES-128 over the bit-loop :func:`gmul`: per-row
    ShiftRows, MixColumns as the matrix product — the oracle the
    table-driven rounds must match byte for byte."""
    state = [p ^ k for p, k in zip(plaintext, round_keys[0])]
    for round_index in range(1, 11):
        if fault_round == round_index:
            state[fault[0]] ^= fault[1]
        state = [SBOX[b] for b in state]
        shifted = list(state)
        for r in range(1, 4):
            for c in range(4):
                shifted[r + 4 * c] = state[r + 4 * ((c + r) % 4)]
        state = shifted
        if round_index < 10:
            state = [
                gmul(MC[r][0], state[4 * c])
                ^ gmul(MC[r][1], state[4 * c + 1])
                ^ gmul(MC[r][2], state[4 * c + 2])
                ^ gmul(MC[r][3], state[4 * c + 3])
                for c in range(4)
                for r in range(4)
            ]
        state = [s ^ k for s, k in zip(state, round_keys[round_index])]
    return bytes(state)


def _reference_pair_sets(correct, faulty, group):
    """Piret-Quisquater candidate sets of one pair, with every
    ``MC[j][row]·delta`` product taken from :func:`gmul`."""
    keys_by_diff = []
    for j in range(4):
        c = correct[group[j]]
        f = faulty[group[j]]
        table = {}
        for k in range(256):
            table.setdefault(INV_SBOX[c ^ k] ^ INV_SBOX[f ^ k], set()).add(k)
        keys_by_diff.append(table)
    pair_sets = [set(), set(), set(), set()]
    for delta in range(1, 256):
        for row in range(4):
            per_byte = [
                keys_by_diff[j].get(gmul(MC[j][row], delta), set()) for j in range(4)
            ]
            # A (delta, row) hypothesis counts only if all four bytes admit it.
            if all(per_byte):
                for j in range(4):
                    pair_sets[j] |= per_byte[j]
    return pair_sets


def _reference_absorb(candidates, correct, faulty):
    """:meth:`DFAState.absorb` as a plain loop over :func:`_reference_pair_sets`:
    the same early returns (no group, solved group) and intersection."""
    group_index = diff_group(correct, faulty)
    if group_index is None:
        return None
    existing = candidates.get(group_index)
    if existing is not None and all(len(s) == 1 for s in existing):
        return group_index
    pair_sets = _reference_pair_sets(
        correct, faulty, CIPHERTEXT_GROUPS[group_index]
    )
    if existing is None:
        candidates[group_index] = pair_sets
    else:
        for j in range(4):
            existing[j] &= pair_sets[j]
    return group_index


#: The attack's fixed plaintext.
ATTACK_PT = bytes(range(16))

#: Round-entry states of FIPS-197 Appendix B (key SP800_KEY, plaintext
#: 3243f6a8...): its "start of round" rows for rounds 1, 2, 3 and 10.
APPENDIX_B_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
APPENDIX_B_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
APPENDIX_B_STARTS = {
    1: "193de3bea0f4e22b9ac68d2ae9f84808",
    2: "a49c7ff2689f352b6b5bea43026a5049",
    3: "aa8f5f0361dde3ef82d24ad26832469a",
    10: "eb40f21e592e38848ba113e71bc342d2",
}


class TestGoldenStateReplay:
    """``_encrypt_from_round`` (the AES-DFA campaign's faulty encryption)
    against the full ``_encrypt_with_schedule``."""

    @pytest.mark.parametrize("fault_round", range(1, 11))
    @pytest.mark.parametrize(
        "key, plaintext",
        [(SP800_KEY, ATTACK_PT), (FIPS_KEY, FIPS_PT)],
        ids=["attack-plaintext", "fips-197"],
    )
    def test_replay_matches_full_encryption(self, key, plaintext, fault_round):
        round_keys = expand_key(key)
        golden = _round_entry_states(round_keys, plaintext)
        rng = np.random.default_rng(fault_round)
        for index in range(16):
            deltas = {0x01, 0x80, 0xFF, *(int(d) for d in rng.integers(1, 256, 4))}
            for delta in sorted(deltas):
                fault = (index, delta)
                assert _encrypt_from_round(
                    round_keys, golden, fault_round, fault
                ) == _encrypt_with_schedule(
                    round_keys, plaintext, fault_round=fault_round, fault=fault
                )

    def test_fips197_round_states_and_ciphertext(self):
        round_keys = expand_key(SP800_KEY)
        golden = _round_entry_states(round_keys, APPENDIX_B_PT)
        assert len(golden) == 10
        for fault_round, start in APPENDIX_B_STARTS.items():
            assert bytes(golden[fault_round - 1]).hex() == start
        # A zero delta is no fault: the replay is the clean encryption.
        for fault_round in range(1, 11):
            assert _encrypt_from_round(
                round_keys, golden, fault_round, (0, 0)
            ) == APPENDIX_B_CT
        fips_keys = expand_key(FIPS_KEY)
        assert _encrypt_from_round(
            fips_keys, _round_entry_states(fips_keys, FIPS_PT), 10, (5, 0)
        ) == FIPS_CT

    def test_golden_states_are_immutable(self):
        golden = _round_entry_states(expand_key(FIPS_KEY), FIPS_PT)
        before = [tuple(state) for state in golden]
        _encrypt_from_round(expand_key(FIPS_KEY), golden, 1, (0, 0xFF))
        assert all(isinstance(state, tuple) for state in golden)
        assert list(golden) == before

    def test_rejects_wrong_block_size(self):
        with pytest.raises(ConfigurationError):
            _round_entry_states(expand_key(FIPS_KEY), b"short")


class TestVectorizedAbsorb:
    """``DFAState.absorb`` against the loop reference, pair by pair."""

    @pytest.mark.parametrize("seed", range(6))
    def test_absorb_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        key = bytes(int(b) for b in rng.integers(0, 256, 16))
        plaintext = bytes(int(b) for b in rng.integers(0, 256, 16))
        round_keys = expand_key(key)
        golden = _round_entry_states(round_keys, plaintext)
        correct = encrypt_block(key, plaintext)
        dfa = DFAState()
        reference = {}
        skipped = 0
        # Round-8 and round-10 faults fail the pattern filter; round-9
        # ones narrow a group until it is solved, and the pairs after
        # that take the solved-group early return.
        for _ in range(400):
            fault_round = int(rng.choice([8, 9, 9, 9, 10]))
            fault = (int(rng.integers(0, 16)), int(rng.integers(1, 256)))
            faulty = _encrypt_from_round(round_keys, golden, fault_round, fault)
            solved = dfa.solved_groups()
            hit = dfa.absorb(correct, faulty)
            assert hit == _reference_absorb(reference, correct, faulty)
            assert dfa.candidates == reference
            assert (hit is None) == (fault_round != 9)
            skipped += hit in solved
            if dfa.complete and skipped >= 8:
                break
        assert dfa.complete and skipped >= 8
        assert dfa.recover_master_key() == key

    def test_solved_group_is_skipped(self):
        round_keys = expand_key(SP800_KEY)
        correct = encrypt_block(SP800_KEY, FIPS_PT)
        dfa = DFAState()
        # Singletons that are not the key: a pair folded into them would
        # empty them, so they survive only if the pair is skipped.
        solved = [{round_keys[10][i] ^ 1} for i in CIPHERTEXT_GROUPS[0]]
        dfa.candidates[0] = [set(s) for s in solved]
        faulty = _encrypt_with_schedule(
            round_keys, FIPS_PT, fault_round=9, fault=(0, 0x42)
        )
        assert dfa.absorb(correct, faulty) == 0
        assert dfa.candidates[0] == solved


class TestTableDrivenRounds:
    def test_xtime_tables_match_gmul(self):
        assert len(_MUL2) == len(_MUL3) == 256
        for b in range(256):
            assert _MUL2[b] == gmul(2, b)
            assert _MUL3[b] == gmul(3, b)

    @pytest.mark.parametrize("fault_round", range(1, 11))
    def test_faulty_encryption_matches_gmul_reference(self, fault_round):
        round_keys = expand_key(SP800_KEY)
        for index in range(16):
            for delta in (0x01, 0x5A, 0x80, 0xFF, 1 + (index * 37) % 255):
                fault = (index, delta)
                assert _encrypt_with_schedule(
                    round_keys, FIPS_PT, fault_round=fault_round, fault=fault
                ) == _reference_encrypt(round_keys, FIPS_PT, fault_round, fault)

    def test_clean_encryption_matches_gmul_reference(self):
        for key, plaintext in ((FIPS_KEY, FIPS_PT), (SP800_KEY, SP800_PT)):
            round_keys = expand_key(key)
            assert _encrypt_with_schedule(
                round_keys, plaintext, fault_round=None, fault=None
            ) == _reference_encrypt(round_keys, plaintext, None, None)

    def test_absorb_matches_gmul_reference(self):
        round_keys = expand_key(SP800_KEY)
        correct = encrypt_block(SP800_KEY, FIPS_PT)
        for index, delta in ((0, 0x42), (7, 0x01), (13, 0xFF)):
            faulty = _encrypt_with_schedule(
                round_keys, FIPS_PT, fault_round=9, fault=(index, delta)
            )
            dfa = DFAState()
            group = dfa.absorb(correct, faulty)
            assert dfa.candidates[group] == _reference_pair_sets(
                correct, faulty, CIPHERTEXT_GROUPS[group]
            )


class TestAESPrimitives:
    def test_fips197_known_answer(self):
        assert encrypt_block(FIPS_KEY, FIPS_PT) == FIPS_CT

    def test_sp800_38a_known_answer(self):
        assert encrypt_block(SP800_KEY, SP800_PT) == SP800_CT

    def test_key_schedule_first_and_last_round_keys(self):
        round_keys = expand_key(FIPS_KEY)
        assert len(round_keys) == 11
        assert round_keys[0] == FIPS_KEY
        assert round_keys[10] == bytes.fromhex("13111d7fe3944a17f307a78b4d2b30c5")

    def test_key_schedule_inversion(self):
        round_keys = expand_key(SP800_KEY)
        assert invert_key_schedule(round_keys[10]) == SP800_KEY

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_key(b"short")
        with pytest.raises(ConfigurationError):
            encrypt_block(FIPS_KEY, b"short")
        with pytest.raises(ConfigurationError):
            invert_key_schedule(b"short")

    def test_gmul_known_products(self):
        assert gmul(0x57, 0x83) == 0xC1  # FIPS-197 example
        assert gmul(0x57, 0x13) == 0xFE
        assert gmul(1, 0xAB) == 0xAB
        assert gmul(0, 0xFF) == 0


class TestFaultPropagation:
    def test_round9_fault_hits_exactly_one_group(self):
        round_keys = expand_key(FIPS_KEY)
        correct = encrypt_block(FIPS_KEY, FIPS_PT)
        for index in range(16):
            faulty = _encrypt_with_schedule(
                round_keys, FIPS_PT, fault_round=9, fault=(index, 0x5A)
            )
            group = diff_group(correct, faulty)
            assert group is not None
            differing = {i for i in range(16) if correct[i] != faulty[i]}
            assert differing == set(CIPHERTEXT_GROUPS[group])

    def test_early_round_fault_rejected_by_pattern_filter(self):
        round_keys = expand_key(FIPS_KEY)
        correct = encrypt_block(FIPS_KEY, FIPS_PT)
        faulty = _encrypt_with_schedule(
            round_keys, FIPS_PT, fault_round=5, fault=(3, 0x5A)
        )
        assert diff_group(correct, faulty) is None

    def test_round10_fault_rejected_by_pattern_filter(self):
        round_keys = expand_key(FIPS_KEY)
        correct = encrypt_block(FIPS_KEY, FIPS_PT)
        faulty = _encrypt_with_schedule(
            round_keys, FIPS_PT, fault_round=10, fault=(3, 0x5A)
        )
        # A round-10 input fault changes only ~1 ciphertext byte.
        assert diff_group(correct, faulty) is None

    def test_identical_ciphertexts_rejected(self):
        correct = encrypt_block(FIPS_KEY, FIPS_PT)
        assert diff_group(correct, correct) is None

    def test_groups_partition_the_state(self):
        seen = set()
        for group in CIPHERTEXT_GROUPS:
            seen |= set(group)
        assert seen == set(range(16))


class TestDFA:
    def test_converges_and_recovers_key(self):
        rng = np.random.default_rng(1)
        round_keys = expand_key(SP800_KEY)
        correct = encrypt_block(SP800_KEY, FIPS_PT)
        dfa = DFAState()
        pairs = 0
        while not dfa.complete and pairs < 80:
            index = int(rng.integers(0, 16))
            delta = int(rng.integers(1, 256))
            faulty = _encrypt_with_schedule(
                round_keys, FIPS_PT, fault_round=9, fault=(index, delta)
            )
            dfa.absorb(correct, faulty)
            pairs += 1
        assert dfa.complete
        assert dfa.last_round_key() == round_keys[10]
        assert dfa.recover_master_key() == SP800_KEY

    def test_incomplete_state_refuses_key(self):
        dfa = DFAState()
        with pytest.raises(AttackError):
            dfa.last_round_key()

    def test_single_pair_narrows_but_rarely_pins(self):
        round_keys = expand_key(SP800_KEY)
        correct = encrypt_block(SP800_KEY, FIPS_PT)
        faulty = _encrypt_with_schedule(
            round_keys, FIPS_PT, fault_round=9, fault=(0, 0x42)
        )
        dfa = DFAState()
        group = dfa.absorb(correct, faulty)
        assert group is not None
        sets = dfa.candidates[group]
        for j, candidates in enumerate(sets):
            true_byte = round_keys[10][CIPHERTEXT_GROUPS[group][j]]
            assert true_byte in candidates  # never eliminates the truth
            assert len(candidates) < 256  # but always narrows


class TestFaultableAES:
    def test_no_faults_under_safe_conditions(self):
        fault_model = FaultModel(COMET_LAKE)
        injector = FaultInjector(fault_model, np.random.default_rng(3))
        conditions = fault_model.conditions_for_offset(1.8, 0.0)
        alu = FaultableALU(injector=injector, conditions_source=lambda: conditions)
        aes = FaultableAES(SP800_KEY)
        for _ in range(50):
            assert aes.encrypt(alu, SP800_PT) == SP800_CT

    def test_faults_under_unsafe_conditions(self):
        fault_model = FaultModel(COMET_LAKE)
        injector = FaultInjector(fault_model, np.random.default_rng(3))
        vcrit = fault_model.critical_voltage(2.0)
        conditions = type(fault_model.conditions_for_offset(2.0, 0.0))(
            2.0, vcrit - 0.006, -999
        )
        alu = FaultableALU(injector=injector, conditions_source=lambda: conditions)
        aes = FaultableAES(SP800_KEY)
        corrupted = sum(
            aes.encrypt(alu, SP800_PT) != SP800_CT for _ in range(3000)
        )
        assert corrupted > 0
        assert alu.stats.fault_count == corrupted


class TestAESDFACampaign:
    def test_key_extraction_on_undefended_machine(self):
        machine = Machine.build(COMET_LAKE, seed=15)
        attack = AESDFAAttack(machine, SP800_KEY, AESDFAConfig(frequency_ghz=2.0))
        outcome = attack.mount()
        assert outcome.succeeded
        assert outcome.recovered_secret == SP800_KEY
        assert outcome.faults_observed > 0

    def test_defeated_by_polling_module(self, comet_characterization):
        machine = Machine.build(COMET_LAKE, seed=15)
        module = PollingCountermeasure(machine, comet_characterization.unsafe_states)
        machine.modules.insmod(module)
        attack = AESDFAAttack(machine, SP800_KEY, AESDFAConfig(frequency_ghz=2.0))
        outcome = attack.mount()
        assert not outcome.succeeded
        assert outcome.faults_observed == 0

    def test_known_offset_still_defeated(self, comet_characterization):
        machine = Machine.build(COMET_LAKE, seed=15)
        module = PollingCountermeasure(machine, comet_characterization.unsafe_states)
        machine.modules.insmod(module)
        boundary = int(comet_characterization.unsafe_states.boundary_mv(2.0))
        attack = AESDFAAttack(
            machine,
            SP800_KEY,
            AESDFAConfig(
                frequency_ghz=2.0, offset_mv=boundary - 12, max_encryptions=500_000
            ),
        )
        outcome = attack.mount()
        assert not outcome.succeeded
        assert outcome.attempts == 500_000  # budget drained, nothing gained
