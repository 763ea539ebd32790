"""RSA-CRT signing and the Bellcore fault attack.

Plundervolt's flagship weaponization: fault one half of an RSA-CRT
signature computed *inside an enclave* and factor the modulus from the
faulty signature.  If the fault corrupts ``s_p`` (the exponentiation mod
``p``) but not ``s_q``, the faulty signature ``s'`` satisfies

    s'^e == m  (mod q)     but     s'^e != m  (mod p)

so ``gcd(s'^e - m mod n, n) == q`` reveals a prime factor — the Bellcore
/ Lenstra observation.

The signer runs every modular multiplication through the enclave's
:class:`~repro.faults.alu.FaultableALU`, so the attack's success is
entirely governed by the core's live operating conditions: in a safe
state signatures are always correct; in an unsafe state a few signing
attempts suffice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AttackError, ConfigurationError
from repro.faults.alu import FaultableALU

# -- deterministic prime generation ------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def is_probable_prime(candidate: int, rng: np.random.Generator, *, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with ``rounds`` random bases."""
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        # Draw a base in [2, candidate-2]; numpy integers are bounded to
        # int64, so build wide bases from raw bytes instead.
        width = max(1, (candidate.bit_length() + 7) // 8)
        a = 2 + int.from_bytes(rng.bytes(width), "big") % (candidate - 3)
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: np.random.Generator) -> int:
    """Deterministically (per seeded rng) generate a ``bits``-bit prime."""
    if bits < 8:
        raise ConfigurationError("prime size must be at least 8 bits")
    while True:
        candidate = int.from_bytes(rng.bytes(bits // 8), "big")
        candidate |= (1 << (bits - 1)) | 1  # exact bit length, odd
        if is_probable_prime(candidate, rng):
            return candidate


# -- the key and signer ---------------------------------------------------------

#: Distinct keys :meth:`RSAKey.generate` keeps per process.
KEY_MEMO_SIZE = 8


@dataclass(frozen=True)
class RSAKey:
    """An RSA key with CRT components."""

    p: int
    q: int
    n: int
    e: int
    d: int
    dp: int
    dq: int
    qinv: int

    @classmethod
    @functools.lru_cache(maxsize=KEY_MEMO_SIZE)
    def generate(cls, bits: int = 512, *, seed: int = 1337, e: int = 65537) -> "RSAKey":
        """Generate a ``bits``-bit RSA key deterministically from a seed.

        Memoized per process (a bounded LRU, :data:`KEY_MEMO_SIZE` keys):
        the body is a pure function of its arguments and the key is
        frozen, so every caller asking for the same key shares one
        instance instead of re-running the prime search.
        """
        rng = np.random.default_rng(seed)
        half = bits // 2
        while True:
            p = generate_prime(half, rng)
            q = generate_prime(half, rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if math.gcd(e, phi) != 1:
                continue
            d = pow(e, -1, phi)
            return cls(
                p=p,
                q=q,
                n=p * q,
                e=e,
                d=d,
                dp=d % (p - 1),
                dq=d % (q - 1),
                qinv=pow(q, -1, p),
            )


class RSACRTSigner:
    """Signs with the CRT optimisation on a faultable ALU.

    This is the *enclave payload*: ``sign`` takes the ALU first so it can
    be passed directly to :meth:`~repro.sgx.enclave.Enclave.ecall`.
    """

    def __init__(self, key: RSAKey) -> None:
        self.key = key

    def sign(self, alu: FaultableALU, message: int) -> int:
        """CRT signature ``m^d mod n``, every multiply faultable."""
        key = self.key
        m = message % key.n
        s_p = alu.modexp(m % key.p, key.dp, key.p)
        s_q = alu.modexp(m % key.q, key.dq, key.q)
        # Garner recombination: s = s_q + q * (qinv * (s_p - s_q) mod p)
        h = alu.modmul(key.qinv, (s_p - s_q) % key.p, key.p)
        return (s_q + alu.bigmul(key.q, h)) % key.n

    def verify(self, message: int, signature: int) -> bool:
        """Public-key verification (runs outside the enclave; no faults)."""
        return pow(signature, self.key.e, self.key.n) == message % self.key.n


# -- the weaponization ------------------------------------------------------------


@dataclass(frozen=True)
class BellcoreResult:
    """Outcome of factoring from a faulty signature."""

    factor: int
    cofactor: int

    def factors(self) -> tuple:
        """The recovered (p, q) in ascending order."""
        return tuple(sorted((self.factor, self.cofactor)))


def bellcore_extract(n: int, e: int, message: int, faulty_signature: int) -> Optional[BellcoreResult]:
    """Factor ``n`` from a faulty CRT signature (Bellcore attack).

    Returns ``None`` when the fault pattern is not exploitable (e.g. both
    CRT halves faulted, or the recombination was corrupted into garbage
    sharing no structure with ``n``).
    """
    candidate = math.gcd((pow(faulty_signature, e, n) - message) % n, n)
    if candidate in (1, n):
        return None
    return BellcoreResult(factor=candidate, cofactor=n // candidate)


def assert_key_recovered(key: RSAKey, result: BellcoreResult) -> None:
    """Raise unless the Bellcore result matches the victim key."""
    if result.factors() != tuple(sorted((key.p, key.q))):
        raise AttackError("recovered factors do not match the victim key")
