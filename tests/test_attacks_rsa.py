"""RSA-CRT victim and the Bellcore extraction."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import AttackError, ConfigurationError
from repro.attacks.rsa_crt import (
    BellcoreResult,
    RSACRTSigner,
    RSAKey,
    assert_key_recovered,
    bellcore_extract,
    generate_prime,
    is_probable_prime,
)
from repro.cpu import COMET_LAKE
from repro.faults.alu import FaultableALU
from repro.faults.injector import FaultInjector
from repro.faults.margin import FaultModel


@pytest.fixture(scope="module")
def key() -> RSAKey:
    return RSAKey.generate(512, seed=42)


def safe_alu() -> FaultableALU:
    fault_model = FaultModel(COMET_LAKE)
    injector = FaultInjector(fault_model, np.random.default_rng(0))
    conditions = fault_model.conditions_for_offset(1.8, 0.0)
    return FaultableALU(injector=injector, conditions_source=lambda: conditions)


class TestPrimality:
    def test_known_primes(self):
        rng = np.random.default_rng(1)
        for p in (2, 3, 101, 65537, 2**127 - 1):
            assert is_probable_prime(p, rng)

    def test_known_composites(self):
        rng = np.random.default_rng(1)
        for n in (0, 1, 4, 561, 65537 * 3, 2**128):
            assert not is_probable_prime(n, rng)

    def test_carmichael_numbers_rejected(self):
        rng = np.random.default_rng(1)
        for n in (561, 1105, 1729, 2465, 6601):
            assert not is_probable_prime(n, rng)

    def test_generated_prime_has_exact_bit_length(self):
        rng = np.random.default_rng(5)
        p = generate_prime(128, rng)
        assert p.bit_length() == 128
        assert p % 2 == 1

    def test_small_size_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_prime(4, np.random.default_rng(0))

    def test_generation_deterministic(self):
        a = generate_prime(64, np.random.default_rng(9))
        b = generate_prime(64, np.random.default_rng(9))
        assert a == b


class TestKey:
    def test_key_consistency(self, key):
        assert key.p * key.q == key.n
        assert key.p != key.q
        phi = (key.p - 1) * (key.q - 1)
        assert (key.e * key.d) % phi == 1
        assert key.dp == key.d % (key.p - 1)
        assert key.dq == key.d % (key.q - 1)
        assert (key.qinv * key.q) % key.p == 1

    def test_generation_deterministic(self):
        assert RSAKey.generate(256, seed=7) == RSAKey.generate(256, seed=7)
        # The memo must hand out exactly what the uncached body computes.
        assert RSAKey.generate.__wrapped__(RSAKey, 256, seed=7) == RSAKey.generate(
            256, seed=7
        )

    def test_generation_is_memoized(self):
        assert RSAKey.generate(256, seed=7) is RSAKey.generate(256, seed=7)

    def test_prevention_key_shares_the_memo(self):
        # A fresh interpreter, so no other test can have evicted the key.
        # Importing the experiments generates no key; the first access
        # builds it through the memo.
        script = (
            "from repro import experiments\n"
            "from repro.attacks.rsa_crt import RSAKey\n"
            "assert RSAKey.generate.cache_info().misses == 0\n"
            "assert RSAKey.generate(512, seed=42) is experiments.PREVENTION_RSA_KEY\n"
            "from repro.experiments import PREVENTION_RSA_KEY\n"
            "assert PREVENTION_RSA_KEY is experiments.PREVENTION_RSA_KEY\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        ))
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_modulus_size(self, key):
        assert 500 <= key.n.bit_length() <= 512


class TestSigner:
    def test_sign_verify_roundtrip(self, key):
        signer = RSACRTSigner(key)
        message = 0x1234_5678_9ABC
        signature = signer.sign(safe_alu(), message)
        assert signer.verify(message, signature)
        # CRT result matches the straight private-key exponentiation.
        assert signature == pow(message, key.d, key.n)

    def test_different_messages_different_signatures(self, key):
        signer = RSACRTSigner(key)
        alu = safe_alu()
        assert signer.sign(alu, 100) != signer.sign(alu, 200)

    def test_verify_rejects_wrong_signature(self, key):
        signer = RSACRTSigner(key)
        signature = signer.sign(safe_alu(), 777)
        assert not signer.verify(777, signature ^ 1)


class TestBellcore:
    def test_faulted_sp_reveals_q(self, key):
        # Manually corrupt the CRT p-half, as a DVFS fault would.
        message = 0xFEED
        s_p = pow(message % key.p, key.dp, key.p) ^ 4  # faulty
        s_q = pow(message % key.q, key.dq, key.q)
        h = (key.qinv * (s_p - s_q)) % key.p
        faulty = (s_q + key.q * h) % key.n
        result = bellcore_extract(key.n, key.e, message, faulty)
        assert result is not None
        assert result.factors() == tuple(sorted((key.p, key.q)))
        assert_key_recovered(key, result)

    def test_correct_signature_not_exploitable(self, key):
        message = 0xFEED
        good = pow(message, key.d, key.n)
        assert bellcore_extract(key.n, key.e, message, good) is None

    def test_garbage_signature_not_exploitable(self, key):
        assert bellcore_extract(key.n, key.e, 0xFEED, 12345) is None

    def test_recovered_factors_multiply_to_n(self, key):
        message = 0xBEEF
        s_p = pow(message % key.p, key.dp, key.p) ^ 1024
        s_q = pow(message % key.q, key.dq, key.q)
        h = (key.qinv * (s_p - s_q)) % key.p
        faulty = (s_q + key.q * h) % key.n
        result = bellcore_extract(key.n, key.e, message, faulty)
        assert result.factor * result.cofactor == key.n
        assert math.gcd(result.factor, key.n) == result.factor

    def test_assert_key_recovered_rejects_mismatch(self, key):
        with pytest.raises(AttackError):
            assert_key_recovered(key, BellcoreResult(factor=3, cofactor=5))
