"""Attack campaigns: Plundervolt, V0LTpwn, VoltJockey, the offset search.

These are the *undefended-machine* behaviours; the defended outcomes live
in the integration tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import signal

import pytest

from repro.errors import AttackError
from repro.attacks import (
    AESDFAAttack,
    AESDFAConfig,
    AttackOutcome,
    ImulCampaign,
    OffsetSearch,
    PlundervoltAttack,
    PlundervoltConfig,
    RSACRTSigner,
    RSAKey,
    V0ltpwnAttack,
    V0ltpwnConfig,
    VectorChecksumPayload,
    VoltJockeyAttack,
    VoltJockeyConfig,
)
from repro.attacks.aes_dfa import CRASH_BACKOFF_MV
from repro.cpu import COMET_LAKE
from repro.sgx import EnclaveHost
from repro.testbench import Machine


@pytest.fixture
def machine() -> Machine:
    return Machine.build(COMET_LAKE, seed=11)


@pytest.fixture(scope="module")
def key() -> RSAKey:
    return RSAKey.generate(512, seed=42)


class TestOffsetSearch:
    def test_finds_boundary_on_undefended_machine(self, machine, comet_characterization):
        search = OffsetSearch(machine, frequency_ghz=2.0)
        found = search.find_faulting_offset()
        assert found is not None
        truth = comet_characterization.unsafe_states.boundary_mv(2.0)
        # 5 mV search steps + stochastic onset: within ~15 mV of truth.
        assert abs(found - truth) <= 15.0

    def test_probes_recorded(self, machine):
        search = OffsetSearch(machine, frequency_ghz=2.0)
        search.find_faulting_offset()
        assert len(search.probes) >= 2
        assert search.probes[0].offset_mv == -50

    def test_restore_zeroes_offset(self, machine):
        search = OffsetSearch(machine, frequency_ghz=2.0)
        search.find_faulting_offset()
        search.restore()
        assert machine.processor.core(0).applied_offset_mv(machine.now) == pytest.approx(
            0.0, abs=1.0
        )

    def test_restore_returns_pre_scan_frequency(self, machine):
        # Regression: restore() used to zero only the voltage offset,
        # leaving the attacker's frequency pin behind.
        before = machine.conditions(0).frequency_ghz
        search = OffsetSearch(machine, frequency_ghz=2.0)
        assert before != 2.0
        search.find_faulting_offset()
        assert machine.conditions(0).frequency_ghz == pytest.approx(2.0)
        search.restore()
        assert machine.conditions(0).frequency_ghz == pytest.approx(before)

    def test_gives_up_after_crashes(self, machine):
        # Start the search beyond the crash boundary.
        search = OffsetSearch(
            machine, frequency_ghz=2.0, start_mv=-250, stop_mv=-300, max_crashes=2
        )
        assert search.find_faulting_offset() is None
        assert machine.crash_count == 2


class TestPlundervolt:
    def test_key_extraction_on_undefended_machine(self, machine, key):
        host = EnclaveHost(machine)
        enclave = host.create_enclave("rsa", core_index=0)
        attack = PlundervoltAttack(
            machine,
            enclave,
            RSACRTSigner(key),
            message=0xDEADBEEF,
            config=PlundervoltConfig(frequency_ghz=2.0),
        )
        outcome = attack.mount()
        assert outcome.succeeded
        assert outcome.recovered_secret == tuple(sorted((key.p, key.q)))
        assert outcome.faults_observed >= 1
        assert outcome.attempts <= 80

    def test_explicit_offset_skips_search(self, machine, key, comet_characterization):
        host = EnclaveHost(machine)
        enclave = host.create_enclave("rsa", core_index=0)
        boundary = int(comet_characterization.unsafe_states.boundary_mv(2.0))
        attack = PlundervoltAttack(
            machine,
            enclave,
            RSACRTSigner(key),
            message=0xCAFE,
            config=PlundervoltConfig(frequency_ghz=2.0, offset_mv=boundary - 12),
        )
        outcome = attack.mount()
        assert outcome.succeeded

    def test_tracks_restored_state(self, machine, key):
        host = EnclaveHost(machine)
        enclave = host.create_enclave("rsa", core_index=0)
        attack = PlundervoltAttack(
            machine,
            enclave,
            RSACRTSigner(key),
            message=1,
            config=PlundervoltConfig(frequency_ghz=2.0),
        )
        attack.mount()
        assert machine.processor.core(0).target_offset_mv() == pytest.approx(0.0, abs=1)


class TestImulCampaign:
    def test_faults_on_undefended_machine(self, machine):
        campaign = ImulCampaign(
            machine,
            frequency_ghz=2.0,
            offsets_mv=tuple(range(-60, -121, -20)),
            iterations_per_point=500_000,
        )
        outcome = campaign.mount()
        assert outcome.succeeded
        assert outcome.faults_observed > 0
        # Deep points crash — the campaign reboots and continues.
        assert outcome.attempts == 4

    def test_safe_offsets_only_never_fault(self, machine):
        campaign = ImulCampaign(
            machine, frequency_ghz=2.0, offsets_mv=(-10, -20, -30),
            iterations_per_point=500_000,
        )
        outcome = campaign.mount()
        assert not outcome.succeeded
        assert outcome.faults_observed == 0


class TestV0ltpwn:
    def test_checksum_payload_is_stable_when_safe(self, machine):
        payload = VectorChecksumPayload(ops=100_000)
        host = EnclaveHost(machine)
        enclave = host.create_enclave("vec")
        witness = enclave.ecall(payload)
        assert witness.matches(payload.expected_checksum)
        assert witness.faulted_ops == 0

    def test_integrity_broken_on_undefended_machine(self, machine):
        payload = VectorChecksumPayload(ops=1_000_000)
        host = EnclaveHost(machine)
        enclave = host.create_enclave("vec")
        attack = V0ltpwnAttack(
            machine, enclave, payload, V0ltpwnConfig(frequency_ghz=2.2)
        )
        outcome = attack.mount()
        assert outcome.succeeded
        assert outcome.faults_observed > 0


class TestVoltJockey:
    def test_requires_upward_jump(self, machine):
        with pytest.raises(AttackError):
            VoltJockeyAttack(
                machine, VoltJockeyConfig(low_frequency_ghz=3.0, high_frequency_ghz=2.0)
            )

    def test_cross_frequency_faults_on_undefended_machine(
        self, machine, comet_characterization
    ):
        boundary_high = comet_characterization.unsafe_states.boundary_mv(3.4)
        offset = int(boundary_high) - 10
        attack = VoltJockeyAttack(
            machine,
            VoltJockeyConfig(
                low_frequency_ghz=0.8,
                high_frequency_ghz=3.4,
                offset_mv=offset,
                repetitions=2,
            ),
        )
        outcome = attack.mount()
        assert outcome.succeeded
        assert outcome.faults_observed > 0

    def test_reconnaissance_finds_offset_on_undefended_machine(self, machine):
        attack = VoltJockeyAttack(
            machine,
            VoltJockeyConfig(
                low_frequency_ghz=0.8, high_frequency_ghz=3.4, repetitions=1
            ),
        )
        outcome = attack.mount()
        assert outcome.succeeded


#: Well past Comet Lake's crash boundary at 2.0 GHz (the search test
#: above crashes from -250 mV on).
PAST_CRASH_MV = -250


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the enclosed block if it runs longer than ``seconds`` (wall)."""

    def expire(signum, frame):
        raise TimeoutError(f"attack did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _past_crash_attack(name, machine, key):
    """Each attack at an explicit operating point that crashes the core."""
    host = EnclaveHost(machine)
    if name == "plundervolt":
        return PlundervoltAttack(
            machine,
            host.create_enclave("rsa"),
            RSACRTSigner(key),
            message=0xCAFE,
            config=PlundervoltConfig(frequency_ghz=2.0, offset_mv=PAST_CRASH_MV),
        )
    if name == "v0ltpwn":
        return V0ltpwnAttack(
            machine,
            host.create_enclave("vec"),
            VectorChecksumPayload(ops=100_000),
            V0ltpwnConfig(frequency_ghz=2.0, offset_mv=PAST_CRASH_MV),
        )
    if name == "aes-dfa":
        return AESDFAAttack(
            machine,
            bytes(range(16)),
            AESDFAConfig(frequency_ghz=2.0, offset_mv=PAST_CRASH_MV),
        )
    return VoltJockeyAttack(
        machine,
        VoltJockeyConfig(
            low_frequency_ghz=0.8,
            high_frequency_ghz=3.4,
            offset_mv=PAST_CRASH_MV,
            repetitions=2,
        ),
    )


class TestPastTheCrashBoundary:
    """Every attack loop ends, with its crashes counted, when the chosen
    operating point crashes the core (the point is deterministic, so a
    loop that retries it unchanged never ends)."""

    @pytest.mark.parametrize("name", ["plundervolt", "v0ltpwn", "aes-dfa", "voltjockey"])
    def test_returns_outcome_with_crashes(self, machine, key, name):
        attack = _past_crash_attack(name, machine, key)
        with deadline(60.0):
            outcome = attack.mount()
        assert isinstance(outcome, AttackOutcome)
        assert outcome.attack == name
        assert outcome.crashes > 0

    def test_aes_dfa_backs_off_after_each_crash(self, machine, key):
        with deadline(60.0):
            outcome = _past_crash_attack("aes-dfa", machine, key).mount()
        # One crash per backoff step at most, and the attack then runs.
        assert outcome.crashes <= -PAST_CRASH_MV // CRASH_BACKOFF_MV
        assert outcome.attempts > 0


class TestAttackSurfaceScan:
    def test_surface_on_undefended_machine(self, machine, comet_characterization):
        from repro.attacks.search import AttackSurfaceScan

        scan = AttackSurfaceScan(
            machine,
            frequencies_ghz=[1.8, 3.4],
            offsets_mv=list(range(-60, -181, -15)),
        ).run()
        assert scan.attack_surface >= 1
        unsafe = comet_characterization.unsafe_states
        for point in scan.faulting_points():
            assert unsafe.is_unsafe(point.frequency_ghz, point.offset_mv)

    def test_crash_ends_frequency_column(self, machine):
        from repro.attacks.search import AttackSurfaceScan

        scan = AttackSurfaceScan(
            machine, frequencies_ghz=[2.0], offsets_mv=[-120, -300, -60]
        ).run()
        # -120 crashes at 2 GHz; the column stops there (-300/-60 unprobed).
        assert [p.offset_mv for p in scan.points] == [-120]
        assert scan.points[0].crashed
        assert machine.crash_count == 1

    def test_scan_restores_pre_scan_frequency(self, machine):
        from repro.attacks.search import AttackSurfaceScan

        # Regression: the scan used to leave its last frequency pin in
        # place, so a post-scan victim ran at the attacker's frequency.
        before = machine.conditions(0).frequency_ghz
        AttackSurfaceScan(
            machine, frequencies_ghz=[1.8, 3.4], offsets_mv=[-60, -90]
        ).run()
        assert machine.conditions(0).frequency_ghz == pytest.approx(before)


#: sha256 of the 20 ``prevention_jobs(seed=11)`` outcomes (canonical JSON
#: of each ``AttackOutcome``, bytes as hex), pinned from victims that
#: recomputed their fault-free run on every attempt: replaying from the
#: golden run must not move a draw or a byte.
PREVENTION_OUTCOMES_SHA256 = (
    "8f115f584e82388e7fbcadcaf6b82fb34a0cf4e39286059271e6aa3cc898b78f"
)


class TestPreventionMatrixPinned:
    def test_outcomes_match_the_pinned_digest(self):
        from repro.engine import EngineSession, ResultCache, SerialExecutor
        from repro.experiments import prevention_jobs

        jobs = prevention_jobs(seed=11)
        session = EngineSession(
            executor=SerialExecutor(), cache=ResultCache(), registry=None
        )
        outcomes = session.run_jobs(jobs, cache=False)
        assert len(outcomes) == 20
        assert {job.attack for job in jobs} >= {"plundervolt", "aes-dfa", "v0ltpwn"}
        text = json.dumps(
            [dataclasses.asdict(outcome) for outcome in outcomes],
            sort_keys=True,
            default=bytes.hex,
        )
        assert hashlib.sha256(text.encode()).hexdigest() == PREVENTION_OUTCOMES_SHA256
