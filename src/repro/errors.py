"""Exception hierarchy for the Plug Your Volt reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class MSRError(ReproError):
    """Base class for model-specific-register access failures."""


class UnknownMSRError(MSRError):
    """A read or write targeted an MSR that the processor does not define."""

    def __init__(self, address: int) -> None:
        super().__init__(f"unknown MSR 0x{address:x}")
        self.address = address


class MSRPermissionError(MSRError):
    """An MSR access was rejected (e.g. write to a read-only register)."""


class MSRWriteIgnoredError(MSRError):
    """A write was silently dropped by a microcode guard.

    The real microcode-sequencer deployment described in Sec. 5.1 of the
    paper *ignores* offending writes; the simulated guard can be configured
    either to mimic that silent behaviour or to raise this error so tests
    can observe the rejection.
    """


class OCMProtocolError(MSRError):
    """A write to MSR 0x150 did not follow the overclocking-mailbox protocol."""


class InvalidVoltageOffsetError(ReproError):
    """A voltage offset was outside the encodable 11-bit range."""


class InvalidPlaneError(ReproError):
    """A voltage plane index was outside the range defined by Table 1."""


class FrequencyError(ReproError):
    """A requested core frequency is not in the processor frequency table."""


class CoreIndexError(ReproError):
    """A core index referenced a core the processor does not have."""


class MachineCheckError(ReproError):
    """The simulated machine crashed (undervolted past the crash boundary).

    Mirrors the system crashes the paper observes while characterizing the
    *width* of the unsafe region (Sec. 4.2).
    """

    def __init__(self, message: str, frequency_ghz: float, offset_mv: int) -> None:
        super().__init__(message)
        self.frequency_ghz = frequency_ghz
        self.offset_mv = offset_mv


class KernelModuleError(ReproError):
    """Loading, unloading or running a kernel module failed."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class InvariantViolation(ReproError):
    """A runtime invariant asserted by :mod:`repro.verify` was broken.

    Carries enough context to be serialized into a shrunk-repro artifact:
    the invariant's name, the simulated time at which it tripped, and a
    JSON-safe detail mapping.
    """

    def __init__(self, invariant: str, message: str, *, time_s: float = 0.0, **details) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.detail_message = message
        self.time_s = time_s
        self.details = details

    def to_dict(self) -> dict:
        """JSON-safe description for repro artifacts and CLI output."""
        return {
            "invariant": self.invariant,
            "message": self.detail_message,
            "time_s": self.time_s,
            "details": {k: v for k, v in sorted(self.details.items())},
        }


class ChaosError(ReproError):
    """A fault injected by the deterministic chaos harness.

    Raised inside a worker when the active
    :class:`repro.engine.resilience.ChaosPolicy` schedules a job-level
    exception for the current attempt.  Never escapes a supervised
    executor: the attempt is retried (the same seed stream replays, so
    the retry is byte-identical to an undisturbed first try) or the job
    is quarantined.
    """


class ObserveError(ReproError):
    """An observability operation failed (:mod:`repro.observe`).

    Raised for malformed flight-recorder dumps or run manifests, bad
    recorder configuration, and metrics-server lifecycle misuse — never
    from the simulation hot path, which the observe layer only watches.
    """


class RegistryError(ReproError):
    """A run-registry operation failed (:mod:`repro.registry`).

    Raised for unknown or ambiguous run ids, malformed registry
    directories, and trajectory bookkeeping misuse.
    """


class RegistryIntegrityError(RegistryError):
    """A registry object failed content verification.

    The blob store addresses every object by the sha256 of its bytes; a
    read whose bytes no longer hash to their address (bit rot, tampering,
    a torn write that survived the atomic-rename discipline) raises this
    instead of returning silently wrong data.  Carries the expected
    address so ``repro reproduce`` can name the job it belongs to.
    """

    def __init__(self, message: str, *, sha256: str = "") -> None:
        super().__init__(message)
        self.sha256 = sha256


class ServeError(ReproError):
    """A campaign-service operation failed (:mod:`repro.serve`).

    Raised for coordinator lifecycle misuse (double start, bind
    failures surfaced by the CLI) and malformed service state — never
    for ordinary network trouble, which the client retries and
    eventually reports as :class:`CoordinatorUnreachableError`.
    """


class ServeProtocolError(ServeError):
    """A message on the campaign-service wire was malformed.

    Covers unparseable JSON bodies (including chaos-torn ones), missing
    required fields, unsupported protocol or span-envelope schema
    versions, and non-JSON error replies.  The client treats these as
    retryable: a torn body is indistinguishable from a lost response,
    and every request is idempotent by design.
    """


class CoordinatorUnreachableError(ServeError):
    """The coordinator stayed unreachable beyond the retry budget.

    Raised by the client transport after its deterministic capped
    exponential backoff schedule is exhausted.  The remote executor
    catches it and degrades gracefully to local execution — the
    campaign completes either way, with identical bytes.
    """

    def __init__(self, url: str, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"coordinator {url} unreachable after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.url = url
        self.attempts = attempts
        self.cause = cause


class EnclaveError(ReproError):
    """An SGX enclave operation failed."""


class AttestationError(EnclaveError):
    """Attestation report verification failed."""


class AttackError(ReproError):
    """An attack implementation was misused (not: the attack was defeated)."""


class CharacterizationError(ReproError):
    """The safe/unsafe state characterization could not be completed."""
