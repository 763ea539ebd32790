"""Frozen, hashable job specifications for the campaign engine.

A :class:`JobSpec` is a pure value: everything a worker process needs to
execute one unit of campaign work (a characterization row, an attack
cell, a SPEC overhead run) plus the identity that addresses its seed
stream and its cache slot.  Jobs are frozen dataclasses so they can be
hashed, pickled across the process-pool boundary, and fingerprinted into
a content hash that keys the persistent result cache.

``execute_job`` is the single worker entry point: it runs the job under a
fresh telemetry handle and returns the payload together with the job's
counter increments, which the session merges back into its registry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.characterization import (
    CharacterizationConfig,
    CharacterizationFramework,
    CharacterizationResult,
)
from repro.core.unsafe_states import CellResult, UnsafeStateSet
from repro.cpu.models import model_by_codename
from repro.engine.seeds import SeedStream, seed_stream
from repro.errors import ConfigurationError
from repro.telemetry import Telemetry

#: Bumped whenever job execution semantics change, so stale persistent
#: cache entries from older engine versions can never be replayed.
#: v2: result-affecting environment knobs folded into the identity.
JOB_SCHEMA_VERSION = 2

#: Environment knobs that can change job *outputs* and therefore belong
#: in every job fingerprint.  ``REPRO_VERIFY`` qualifies because an
#: installed invariant checker can abort a run mid-way (turning a payload
#: into a raised violation).  ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` are
#: deliberately absent: the engine's parity contract (tested by
#: ``benchmarks/test_bench_engine_campaign.py``) asserts they cannot
#: change results, so folding them in would only fragment the cache.
RESULT_AFFECTING_ENV: Tuple[str, ...] = ("REPRO_VERIFY",)

#: Frequency rows per :class:`BatchCharacterizationJob` shard.
ROWS_PER_BATCH = 8

#: Attack kinds :class:`AttackCampaignJob` can mount.
ATTACK_KINDS = ("imul", "plundervolt", "v0ltpwn", "voltjockey", "aes-dfa")


def environment_fingerprint() -> Dict[str, str]:
    """The result-affecting environment, canonicalized for hashing.

    Unset and empty are the same state (both mean "feature off"), so the
    cache is not fragmented by how the absence is spelled.
    """
    return {name: os.environ.get(name, "") for name in RESULT_AFFECTING_ENV}


def _canonical(value: Any) -> Any:
    """Reduce a field value to JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _canonical(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class JobSpec:
    """Base class for engine jobs: identity, fingerprint, execution."""

    #: Job family tag, part of the identity (subclasses override).
    kind: ClassVar[str] = "job"

    def identity(self) -> Dict[str, Any]:
        """The canonical identity dict the fingerprint is computed from."""
        payload: Dict[str, Any] = {
            "kind": self.kind,
            "schema": JOB_SCHEMA_VERSION,
            "env": environment_fingerprint(),
        }
        for field in dataclasses.fields(self):
            payload[field.name] = _canonical(getattr(self, field.name))
        return payload

    def fingerprint(self) -> str:
        """Content hash of the job identity — the cache key.

        Memoized per instance, keyed by the resolved result-affecting
        environment so an env change between calls still re-hashes.  The
        memo lives outside the dataclass fields (``object.__setattr__``
        on the frozen instance), so it never enters :meth:`identity`.
        """
        env = environment_fingerprint()
        memo = self.__dict__.get("_fingerprint_memo")
        if memo is not None and memo[0] == env:
            return memo[1]
        blob = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_fingerprint_memo", (env, digest))
        return digest

    def seed_path(self) -> Tuple[str, ...]:
        """The named seed-stream path this job's randomness hangs off."""
        raise NotImplementedError

    def stream(self) -> SeedStream:
        """The job's seed stream (root seed comes from the job itself)."""
        return seed_stream(getattr(self, "seed"), *self.seed_path())

    def run(self, telemetry: Telemetry) -> Any:
        """Execute the job and return its payload (subclasses override)."""
        raise NotImplementedError


@dataclass(frozen=True)
class CharacterizationRowJob(JobSpec):
    """One frequency row of the Algo 2 sweep (Figs. 2-4) on the scalar
    oracle.  No production path schedules it: tests and benchmarks run it
    against :class:`BatchCharacterizationJob`."""

    kind: ClassVar[str] = "characterization-row"

    codename: str
    frequency_ghz: float
    config: CharacterizationConfig
    seed: int

    def seed_path(self) -> Tuple[str, ...]:
        return (
            "characterization",
            self.codename,
            f"row@{int(round(self.frequency_ghz * 10))}",
        )

    def run(self, telemetry: Telemetry) -> List[CellResult]:
        framework = CharacterizationFramework(
            model_by_codename(self.codename), config=self.config, seed=self.seed
        )
        with telemetry.spans.phase(f"row@{self.frequency_ghz:g}GHz"):
            return framework.run_row(self.frequency_ghz, telemetry=telemetry)


@dataclass(frozen=True)
class BatchCharacterizationJob(JobSpec):
    """A chunk of Algo 2 rows evaluated on the vectorized fast path.

    The batch analogue of :class:`CharacterizationRowJob`: one job covers
    ``frequencies_ghz`` (a contiguous chunk of the sweep's frequency
    table) and evaluates each row with
    :meth:`CharacterizationFramework.run_row_batch`.  Row randomness
    still comes from the per-row named seed streams — keyed by (seed,
    system, row frequency) only — so the produced cells are byte-identical
    to the scalar row jobs' and independent of how rows are chunked into
    batch jobs.  The *fingerprint* is distinct from the row jobs' (kind
    and fields differ), which is what the cross-path cache tests pin.
    """

    kind: ClassVar[str] = "characterization-batch"

    codename: str
    frequencies_ghz: Tuple[float, ...]
    config: CharacterizationConfig
    seed: int

    def seed_path(self) -> Tuple[str, ...]:
        first = int(round(self.frequencies_ghz[0] * 10)) if self.frequencies_ghz else 0
        last = int(round(self.frequencies_ghz[-1] * 10)) if self.frequencies_ghz else 0
        return (
            "characterization",
            self.codename,
            f"batch@{first}-{last}",
        )

    def run(self, telemetry: Telemetry) -> List[List[CellResult]]:
        framework = CharacterizationFramework(
            model_by_codename(self.codename), config=self.config, seed=self.seed
        )
        rows: List[List[CellResult]] = []
        for frequency in self.frequencies_ghz:
            with telemetry.spans.phase(f"row@{frequency:g}GHz"):
                rows.append(framework.run_row_batch(frequency, telemetry=telemetry))
        return rows


@dataclass(frozen=True)
class CharacterizationJob(JobSpec):
    """A full per-model sweep; the unit the result cache stores."""

    kind: ClassVar[str] = "characterization"

    codename: str
    config: CharacterizationConfig
    seed: int

    def seed_path(self) -> Tuple[str, ...]:
        return ("characterization", self.codename)

    def row_jobs(self) -> List[CharacterizationRowJob]:
        """The sweep as scalar row jobs: the oracle, never scheduled."""
        model = model_by_codename(self.codename)
        return [
            CharacterizationRowJob(
                codename=self.codename,
                frequency_ghz=frequency,
                config=self.config,
                seed=self.seed,
            )
            for frequency in self.config.frequency_list(model)
        ]

    def batch_jobs(
        self, *, rows_per_job: int = ROWS_PER_BATCH
    ) -> List[BatchCharacterizationJob]:
        """The sweep sharded into vectorized multi-row batch jobs.

        Chunking is a pure scheduling choice: per-row seed streams make
        the folded result independent of ``rows_per_job`` (and identical
        to :meth:`row_jobs`), so the knob only trades dispatch overhead
        against shard-level parallelism.
        """
        if rows_per_job <= 0:
            raise ConfigurationError("rows_per_job must be positive")
        model = model_by_codename(self.codename)
        frequencies = self.config.frequency_list(model)
        return [
            BatchCharacterizationJob(
                codename=self.codename,
                frequencies_ghz=tuple(frequencies[start : start + rows_per_job]),
                config=self.config,
                seed=self.seed,
            )
            for start in range(0, len(frequencies), rows_per_job)
        ]

    def fold(self, rows: List[List[CellResult]]) -> CharacterizationResult:
        """Merge executed rows (in frequency order) into one result."""
        framework = CharacterizationFramework(
            model_by_codename(self.codename), config=self.config, seed=self.seed
        )
        result = framework.empty_result()
        for cells in rows:
            framework.fold_row(result, cells)
        return result

    def run(self, telemetry: Telemetry) -> CharacterizationResult:
        rows = [row for job in self.batch_jobs() for row in job.run(telemetry)]
        return self.fold(rows)


@dataclass(frozen=True)
class AttackCampaignJob(JobSpec):
    """One (CPU, defense state, attack) cell of a prevention campaign.

    The job is self-contained: it builds a fresh machine (seeded from its
    own stream), optionally deploys the polling countermeasure from the
    serialized unsafe-state set, mounts the named attack and returns the
    :class:`~repro.attacks.base.AttackOutcome`.  Because the defense
    configuration travels inside the spec (``unsafe_json``), the
    fingerprint covers exactly what the outcome depends on.
    """

    kind: ClassVar[str] = "attack-campaign"

    codename: str
    attack: str
    protected: bool
    seed: int
    #: ``UnsafeStateSet.to_dict()`` as canonical JSON (required when
    #: ``protected`` — it is the deployed defense's whole configuration).
    unsafe_json: Optional[str] = None
    #: imul-campaign sweep points (ignored by the enclave attacks).
    offsets_mv: Optional[Tuple[int, ...]] = None
    frequency_ghz: Optional[float] = None
    iterations_per_point: int = 500_000
    max_signing_attempts: int = 40
    max_attempts: int = 20
    payload_ops: int = 500_000
    rsa_key_seed: int = 42
    aes_key_hex: str = "2b7e151628aed2a6abf7158809cf4f3c"
    #: VoltJockey cross-frequency parameters (ignored by the others); no
    #: offset means the attacker finds one by reconnaissance.
    voltjockey_offset_mv: Optional[int] = None
    voltjockey_repetitions: int = 3

    def __post_init__(self) -> None:
        if self.attack not in ATTACK_KINDS:
            raise ConfigurationError(
                f"unknown attack {self.attack!r}; expected one of {ATTACK_KINDS}"
            )
        if self.protected and self.unsafe_json is None:
            raise ConfigurationError(
                "protected campaign jobs must carry the characterized "
                "unsafe-state set (unsafe_json)"
            )

    def seed_path(self) -> Tuple[str, ...]:
        return (
            "campaign",
            self.codename,
            self.attack,
            "protected" if self.protected else "open",
        )

    def build_machine(self, telemetry: Optional[Telemetry] = None):
        """The victim machine (plus module when protected) for this cell."""
        from repro.core.polling_module import PollingCountermeasure
        from repro.testbench import Machine

        model = model_by_codename(self.codename)
        machine = Machine.build(
            model, seed=self.stream().child("machine").integer(), telemetry=telemetry
        )
        module = None
        if self.protected:
            unsafe = UnsafeStateSet.from_dict(json.loads(self.unsafe_json))
            module = PollingCountermeasure(machine, unsafe)
            machine.modules.insmod(module)
        return machine, module

    def run(self, telemetry: Telemetry) -> Any:
        from repro.attacks import (
            AESDFAAttack,
            AESDFAConfig,
            ImulCampaign,
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
        from repro.sgx import EnclaveHost

        with telemetry.spans.phase("build-machine") as build_phase:
            machine, _module = self.build_machine(telemetry)
            build_phase.end_sim = machine.now
        model = machine.model
        base = (
            self.frequency_ghz
            if self.frequency_ghz is not None
            else model.frequency_table.base_ghz
        )
        if self.attack == "imul":
            offsets = (
                self.offsets_mv
                if self.offsets_mv is not None
                else tuple(range(-60, -301, -10))
            )
            attack = ImulCampaign(
                machine,
                frequency_ghz=base,
                offsets_mv=offsets,
                iterations_per_point=self.iterations_per_point,
            )
        elif self.attack == "plundervolt":
            host = EnclaveHost(machine)
            attack = PlundervoltAttack(
                machine,
                host.create_enclave("rsa"),
                RSACRTSigner(RSAKey.generate(512, seed=self.rsa_key_seed)),
                message=0xDEADBEEF,
                config=PlundervoltConfig(
                    frequency_ghz=base, max_signing_attempts=self.max_signing_attempts
                ),
            )
        elif self.attack == "v0ltpwn":
            host = EnclaveHost(machine)
            attack = V0ltpwnAttack(
                machine,
                host.create_enclave("vec"),
                VectorChecksumPayload(ops=self.payload_ops),
                V0ltpwnConfig(frequency_ghz=base, max_attempts=self.max_attempts),
            )
        elif self.attack == "aes-dfa":
            attack = AESDFAAttack(
                machine,
                bytes.fromhex(self.aes_key_hex),
                AESDFAConfig(frequency_ghz=base),
            )
        else:  # voltjockey
            table = model.frequency_table
            attack = VoltJockeyAttack(
                machine,
                VoltJockeyConfig(
                    table.min_ghz,
                    table.max_ghz,
                    offset_mv=self.voltjockey_offset_mv,
                    repetitions=self.voltjockey_repetitions,
                ),
            )
        with telemetry.spans.phase("mount", sim_start_s=machine.now) as mount_phase:
            outcome = attack.mount()
            mount_phase.end_sim = machine.now
        return outcome


@dataclass(frozen=True)
class OverheadJob(JobSpec):
    """One Table 2 SPEC overhead measurement on a protected machine."""

    kind: ClassVar[str] = "spec-overhead"

    codename: str
    seed: int
    unsafe_json: str
    interval_s: float = 0.05

    def seed_path(self) -> Tuple[str, ...]:
        return ("overhead", self.codename)

    def run(self, telemetry: Telemetry) -> Any:
        from repro.bench.runner import SpecOverheadRunner
        from repro.core.polling_module import PollingCountermeasure
        from repro.testbench import Machine

        model = model_by_codename(self.codename)
        stream = self.stream()
        with telemetry.spans.phase("build-machine") as build_phase:
            machine = Machine.build(
                model, seed=stream.child("machine").integer(), telemetry=telemetry
            )
            unsafe = UnsafeStateSet.from_dict(json.loads(self.unsafe_json))
            module = PollingCountermeasure(machine, unsafe)
            machine.modules.insmod(module)
            build_phase.end_sim = machine.now
        runner = SpecOverheadRunner(
            machine,
            module,
            interval_s=self.interval_s,
            seed=stream.child("noise").integer(),
        )
        with telemetry.spans.phase("measure", sim_start_s=machine.now) as measure_phase:
            report = runner.run()
            measure_phase.end_sim = machine.now
        return report


@dataclass(frozen=True)
class FuzzJob(JobSpec):
    """One adversarial-schedule fuzz case run under the invariant checker.

    The schedule itself is *not* stored: it regenerates deterministically
    from the job's seed stream (``fuzz/<codename>/case@<index>``), so the
    spec stays tiny, the fingerprint still covers the whole case, and a
    violating case can be re-materialized for shrinking from nothing but
    this spec.
    """

    kind: ClassVar[str] = "fuzz"

    codename: str
    seed: int
    case_index: int
    num_actions: int = 12
    #: Optional characterized unsafe set (canonical JSON) enabling the
    #: module load/unload race actions; ``None`` records them as no-ops.
    unsafe_json: Optional[str] = None

    def seed_path(self) -> Tuple[str, ...]:
        return ("fuzz", self.codename, f"case@{self.case_index}")

    def schedule(self):
        """The deterministic :class:`repro.verify.FuzzSchedule` this runs."""
        from repro.verify.fuzz import schedule_for_job

        return schedule_for_job(self)

    def run(self, telemetry: Telemetry) -> Dict[str, Any]:
        """Run the schedule; a violation also freezes the job's trace ring.

        The dump is ``job-<fingerprint[:12]>.flight.jsonl`` below
        ``REPRO_FLIGHT_DIR`` (none is written without it), and the
        payload's ``flight_dump`` holds that file name either way, so
        the payload does not depend on the dump directory.
        """
        from repro.observe.flight import dump_job, job_dump_name
        from repro.verify.fuzz import replay_schedule

        schedule = self.schedule()
        summary, machine = replay_schedule(schedule, telemetry=telemetry)
        violation = summary["violation"]
        if violation is not None:
            summary["flight_dump"] = job_dump_name(self)
            # The header holds the violation as the checker raised it.
            raised = {k: v for k, v in violation.items() if k != "action_index"}
            dump_job(
                self,
                "invariant-violation",
                telemetry,
                sim_time_s=machine.now,
                crash_count=machine.crash_count,
                machine=machine.spec_fingerprint(),
                violation=raised,
                context={"schedule": schedule.to_dict()},
            )
        return summary


@dataclass(frozen=True)
class ExplorePointJob(JobSpec):
    """A shard of explore operating points probed on live machines.

    Each point gets a *fresh* machine seeded from its own named stream
    (keyed by codename, frequency and offset only), so the probed record
    is independent of how points are chunked into jobs and of which
    executor runs the shard — the same byte-identity contract the
    characterization shards honour.  The probe writes the attacker's
    (frequency, offset) through the public interfaces, waits out the
    regulator (and, when protected, several countermeasure poll
    periods), then classifies the *realized* conditions with the scalar
    fault model — no instruction windows run, so a predicted-crash point
    cannot take the worker down.
    """

    kind: ClassVar[str] = "explore-point"

    codename: str
    points: Tuple[Tuple[float, int], ...]
    protect: bool
    seed: int
    #: ``UnsafeStateSet.to_dict()`` as canonical JSON (required when
    #: ``protect`` — the deployed defense's whole configuration).
    unsafe_json: Optional[str] = None
    instructions: Tuple[str, ...] = ("imul",)

    def __post_init__(self) -> None:
        if self.protect and self.unsafe_json is None:
            raise ConfigurationError(
                "protected explore-point jobs must carry the characterized "
                "unsafe-state set (unsafe_json)"
            )

    def seed_path(self) -> Tuple[str, ...]:
        first = self.points[0] if self.points else (0.0, 0)
        return (
            "explore",
            self.codename,
            "protected" if self.protect else "open",
            f"points@{first[0]:.6f}/{first[1]}",
        )

    def _point_seed(self, frequency_ghz: float, offset_mv: int) -> int:
        """Per-point machine seed, independent of the job's chunking."""
        return (
            seed_stream(
                self.seed,
                "explore",
                self.codename,
                f"point@{frequency_ghz:.6f}/{offset_mv}",
            )
            .child("machine")
            .integer()
        )

    def probe_point(
        self, frequency_ghz: float, offset_mv: int, telemetry: Telemetry
    ) -> Dict[str, Any]:
        """Probe one operating point on a fresh (optionally defended) machine."""
        from repro.core.polling_module import PollingCountermeasure
        from repro.faults.margin import FaultModel
        from repro.testbench import Machine

        model = model_by_codename(self.codename)
        with telemetry.spans.phase(
            f"point@{frequency_ghz:.6f}/{offset_mv}"
        ) as point_phase:
            machine = Machine.build(
                model,
                seed=self._point_seed(frequency_ghz, offset_mv),
                telemetry=telemetry,
            )
            settle = model.regulator_latency_s * 1.2
            if self.protect:
                unsafe = UnsafeStateSet.from_dict(json.loads(self.unsafe_json))
                module = PollingCountermeasure(machine, unsafe)
                machine.modules.insmod(module)
                settle += 4.0 * module.period_s
            machine.cpupower.frequency_set(frequency_ghz, core_index=0)
            machine.write_voltage_offset(offset_mv, 0)
            machine.advance(settle)
            point_phase.end_sim = machine.now
        realized = machine.conditions(0)
        fault_model = FaultModel(model)
        probabilities = {
            instruction: fault_model.fault_probability(
                realized.frequency_ghz,
                realized.voltage_volts,
                instruction=instruction,
            )
            for instruction in self.instructions
        }
        crash = fault_model.is_crash(
            realized.frequency_ghz, realized.voltage_volts
        )
        if crash:
            status = "crash"
        elif any(probability > 0.0 for probability in probabilities.values()):
            status = "feasible"
        else:
            status = "safe"
        return {
            "frequency_ghz": frequency_ghz,
            "offset_mv": offset_mv,
            "status": status,
            "realized_frequency_ghz": realized.frequency_ghz,
            "realized_offset_mv": realized.offset_mv,
            "realized_voltage_volts": realized.voltage_volts,
            "fault_probability": {
                name: probabilities[name] for name in sorted(probabilities)
            },
        }

    def run(self, telemetry: Telemetry) -> List[Dict[str, Any]]:
        return [
            self.probe_point(frequency, offset, telemetry)
            for frequency, offset in self.points
        ]


@dataclass(frozen=True)
class ExploreInjectionJob(JobSpec):
    """A shard of single-fault replays of the RSA-CRT victim.

    Pure arithmetic: the key and golden signature derive
    deterministically from the spec (the FuzzJob pattern — the spec
    stays tiny, the fingerprint still covers the whole replay) and are
    memoized once per process, so every shard after the first in a
    worker reuses them.  Each (op_index, model) pair replays the
    signature with exactly that operation corrupted, in closed form from
    the golden trace (:func:`~repro.explore.victim.replay_with_fault`).
    The verdict is one of ``masked`` (the signature survived),
    ``exploitable`` (Bellcore factoring recovered the key's primes) or
    ``corrupted`` (wrong but unexploitable).
    """

    kind: ClassVar[str] = "explore-injection"

    key_bits: int
    key_seed: int
    message: int
    #: (op_index, fault_model) pairs to replay.
    reps: Tuple[Tuple[int, str], ...]
    seed: int = 0

    def seed_path(self) -> Tuple[str, ...]:
        first = self.reps[0] if self.reps else (0, "-")
        return ("explore", "inject", f"reps@{first[0]}/{first[1]}")

    def run(self, telemetry: Telemetry) -> List[Dict[str, Any]]:
        from repro.attacks.rsa_crt import RSAKey, bellcore_extract
        from repro.explore.faultspace import corruptor
        from repro.explore.victim import replay_with_fault, trace_victim

        key = RSAKey.generate(self.key_bits, seed=self.key_seed)
        trace = trace_victim(key, self.message)
        verdicts: List[Dict[str, Any]] = []
        for op_index, model in self.reps:
            signature = replay_with_fault(trace, op_index, corruptor(model))
            if signature == trace.golden_signature:
                verdict = "masked"
            else:
                result = bellcore_extract(key.n, key.e, self.message, signature)
                if result is not None and result.factors() == tuple(
                    sorted((key.p, key.q))
                ):
                    verdict = "exploitable"
                else:
                    verdict = "corrupted"
            verdicts.append(
                {"op_index": op_index, "model": model, "verdict": verdict}
            )
        return verdicts


@dataclass
class JobResult:
    """What one executed job hands back to the session."""

    fingerprint: str
    payload: Any
    #: Counter increments observed while the job ran, merged into the
    #: session registry (this is how per-worker telemetry survives the
    #: process boundary).
    counters: Dict[str, int]
    #: Which attempt produced this result (1 = first try).  Retried
    #: attempts replay the job's exact seed stream, so the payload is
    #: independent of this number — it exists for supervision
    #: bookkeeping and run reports only, and is therefore deliberately
    #: *not* part of any fingerprint.
    attempts: int = 1
    #: Histogram snapshots (:meth:`repro.telemetry.registry.Histogram.marshal`)
    #: observed while the job ran — the rest of the worker telemetry,
    #: marshalled home alongside the counters so percentile columns
    #: survive the process boundary.
    histograms: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)
    #: Deterministic span records for this attempt (job span + phases;
    #: see :mod:`repro.observe.spans`) and their wall-clock sidecar,
    #: kept strictly apart so the session's merged timeline stays
    #: byte-identical across executors.
    spans: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    span_wall: Dict[str, Dict[str, Any]] = dataclasses.field(default_factory=dict)


def execute_job(job: JobSpec, *, span_context=None, attempt: int = 1) -> JobResult:
    """Worker entry point: run one job under fresh telemetry.

    Top-level by design so :class:`concurrent.futures.ProcessPoolExecutor`
    can pickle it by reference; the job spec itself travels by value.
    ``span_context`` is the session's propagated trace position
    (:class:`repro.observe.spans.SpanContext`); the attempt runs under a
    fresh :class:`~repro.observe.spans.SpanRecorder` whose buffers ride
    home in the result.

    An exception escaping the job (including an invariant violation) is
    re-raised unchanged, but first the job's trace tail is frozen into a
    flight dump when ``REPRO_FLIGHT_DIR`` selects a directory — in a
    process-pool worker the traceback alone crosses the boundary, the
    dump preserves the scene.  Flight dumps (this one and a fuzz case's
    violation dump) are the only readers of the job's trace events, so
    the job records the last ``FLIGHT_CAPACITY`` of them when a
    directory is set and none otherwise.
    """
    from repro.observe.flight import FLIGHT_CAPACITY, flight_dir_from_env
    from repro.observe.spans import SpanRecorder

    traced = flight_dir_from_env() is not None
    telemetry = Telemetry(max_events=FLIGHT_CAPACITY if traced else 0)
    recorder = SpanRecorder()
    recorder.begin_job(
        fingerprint=job.fingerprint(),
        kind=job.kind,
        attempt=attempt,
        context=span_context,
    )
    telemetry.spans = recorder
    try:
        payload = job.run(telemetry)
    except Exception as error:
        from repro.observe.flight import dump_job_failure

        dump_job_failure(job, telemetry, error)
        raise
    counters = {
        counter.name: int(counter.value)
        for counter in telemetry.registry.counters()
        if counter.value
    }
    histograms = {
        histogram.name: histogram.marshal()
        for histogram in telemetry.registry.histograms()
        if histogram.count
    }
    recorder.finish_job()
    spans, span_wall = recorder.export()
    return JobResult(
        fingerprint=job.fingerprint(),
        payload=payload,
        counters=counters,
        histograms=histograms,
        spans=spans,
        span_wall=span_wall,
    )
