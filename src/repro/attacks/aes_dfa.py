"""The AES-DFA key-extraction campaign.

The attack loop mirrors the real Plundervolt AES-NI procedure: pin the
frequency, undervolt into the fault band, trigger enclave encryptions of
a fixed plaintext, keep the ciphertexts whose difference pattern matches
a round-9 single-byte fault, and feed them to the Piret-Quisquater DFA
until the last round key is pinned; invert the key schedule to recover
the master key.

Simulation note — statistical acceleration: faults are rare per
encryption (order 1e-3 at fault-band depth), so the campaign would need
~10^5 encryptions.  Instead of executing each clean encryption, the
campaign samples the *waiting time to the next faulty encryption* from
the exact geometric distribution implied by the core's live per-round
fault probability, charges that much simulated time, and then runs only
the faulty encryption concretely.  The distribution of (number of
encryptions, fault round, fault byte) is identical to the naive loop;
under a deployed countermeasure the per-encryption probability is zero
and the budget simply drains — exactly as the naive loop would behave.

Simulation note — golden-run replay: every encryption is of the same
plaintext under the same key, so the campaign computes the fault-free
states entering rounds 1..10 once, and a faulty encryption runs only
from its fault round on (:func:`~repro.attacks.aes._encrypt_from_round`).
The rounds before the fault cannot see it, so the ciphertext is exactly
what the full encryption produces.  The surviving pairs go to
:class:`~repro.attacks.aes.DFAState`, whose candidate filter runs over
numpy tables of all 256 key guesses per byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.aes import (
    DFAState,
    _encrypt_from_round,
    _round_entry_states,
    encrypt_block,
    expand_key,
)
from repro.attacks.base import AttackOutcome, DVFSAttack
from repro.attacks.search import OffsetSearch
from repro.testbench import Machine

#: Byte-operations per AES round window (state size).
OPS_PER_ROUND = 16
ROUNDS = 10

#: Wall time of one in-enclave AES encryption (cycles / frequency is
#: refined at run time; this is the cycle count).
CYCLES_PER_ENCRYPTION = 200.0

#: After a crash the attack offset backs off this far toward 0 (one
#: :class:`~repro.attacks.search.OffsetSearch` step) before the retry:
#: the operating point is deterministic, so retrying the same one would
#: crash forever.
CRASH_BACKOFF_MV = OffsetSearch.step_mv


@dataclass
class AESDFAConfig:
    """Campaign parameters."""

    frequency_ghz: float
    offset_mv: Optional[int] = None
    depth_bonus_mv: int = 10
    #: Total encryption budget before the attacker gives up.
    max_encryptions: int = 2_000_000
    #: Encryptions attempted per timeslice (offset re-written between
    #: slices, so a deployed countermeasure gets to interfere).
    slice_encryptions: int = 100_000
    core_index: int = 0


class AESDFAAttack(DVFSAttack):
    """Undervolt-driven AES key extraction from an enclave."""

    name = "aes-dfa"

    def __init__(self, machine: Machine, key: bytes, config: AESDFAConfig) -> None:
        self._machine = machine
        self._key = key  # held by the victim enclave; never read directly
        self._round_keys = expand_key(key)
        self._config = config
        self._plaintext = bytes(range(16))

    def _per_encryption_fault_probability(self) -> float:
        """Probability that at least one round of one encryption faults
        at the core's *current* conditions."""
        conditions = self._machine.conditions(self._config.core_index)
        p_op = self._machine.fault_model.fault_probability(
            conditions.frequency_ghz, conditions.voltage_volts, instruction="aesenc"
        )
        if p_op <= 0.0:
            return 0.0
        p_round = 1.0 - (1.0 - p_op) ** OPS_PER_ROUND
        return 1.0 - (1.0 - p_round) ** ROUNDS

    def _is_crashing(self) -> bool:
        conditions = self._machine.conditions(self._config.core_index)
        return self._machine.fault_model.is_crash(
            conditions.frequency_ghz, conditions.voltage_volts
        )

    def mount(self) -> AttackOutcome:
        """Run the campaign; success == master key recovered."""
        outcome = AttackOutcome(attack=self.name, succeeded=False)
        machine = self._machine
        config = self._config
        start_time = machine.now
        rng = machine.rng

        offset = config.offset_mv
        if offset is None:
            search = OffsetSearch(
                machine, frequency_ghz=config.frequency_ghz, core_index=config.core_index
            )
            offset = search.find_faulting_offset()
            outcome.crashes += sum(1 for p in search.probes if p.crashed)
            if offset is None:
                outcome.note("no faulting operating point found")
                outcome.duration_s = machine.now - start_time
                return outcome
            offset -= config.depth_bonus_mv

        correct = encrypt_block(self._key, self._plaintext)
        golden = _round_entry_states(self._round_keys, self._plaintext)
        dfa = DFAState()
        settle = machine.model.regulator_latency_s * 1.2
        machine.cpupower.frequency_set(config.frequency_ghz, core_index=config.core_index)
        encryptions_left = config.max_encryptions

        while encryptions_left > 0 and not dfa.complete:
            if not machine.write_voltage_offset(offset, config.core_index):
                outcome.writes_blocked += 1
            machine.advance(settle)
            if self._is_crashing():
                outcome.crashes += 1
                offset = min(offset + CRASH_BACKOFF_MV, 0)
                machine.reboot(settle_s=settle)
                machine.cpupower.frequency_set(
                    config.frequency_ghz, core_index=config.core_index
                )
                continue
            frequency = machine.conditions(config.core_index).frequency_ghz
            t_encryption = CYCLES_PER_ENCRYPTION / (frequency * 1e9)
            budget = min(config.slice_encryptions, encryptions_left)
            probability = self._per_encryption_fault_probability()
            done = 0
            while done < budget:
                if probability <= 0.0:
                    done = budget
                    break
                waiting = int(rng.geometric(probability))
                if done + waiting > budget:
                    done = budget
                    break
                done += waiting
                # Concretely execute the faulty encryption: uniform round,
                # uniform byte, uniform non-zero delta.
                fault_round = int(rng.integers(1, ROUNDS + 1))
                fault_index = int(rng.integers(0, 16))
                delta = int(rng.integers(1, 256))
                faulty = _encrypt_from_round(
                    self._round_keys, golden, fault_round, (fault_index, delta)
                )
                outcome.faults_observed += 1
                dfa.absorb(correct, faulty)
                if dfa.complete:
                    break
            encryptions_left -= done
            outcome.attempts += done
            machine.advance(done * t_encryption)

        machine.write_voltage_offset(0, config.core_index)
        machine.advance(settle)
        if dfa.complete:
            recovered = dfa.recover_master_key()
            outcome.succeeded = recovered == self._key
            outcome.recovered_secret = recovered
            outcome.note(
                f"AES key recovered after {outcome.attempts} encryptions, "
                f"{outcome.faults_observed} faulty ciphertexts"
            )
        outcome.duration_s = machine.now - start_time
        return outcome
