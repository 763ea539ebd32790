"""Programmatic regeneration of the paper's experiments.

Every table and figure can be reproduced through one function call, so
downstream users can embed the experiments in their own pipelines
(notebooks, CI, parameter studies) without going through pytest.  The
benchmark targets under ``benchmarks/`` call these functions and add the
shape assertions and on-disk artifacts.

All heavy lifting is submitted through the campaign engine
(:mod:`repro.engine`): characterization sweeps are sharded into
per-frequency row jobs, attack campaigns and the SPEC overhead run are
self-contained job specs, and everything draws its randomness from named
seed streams keyed by job identity — so results are identical whether
the engine runs serial or across a process pool, and repeated calls are
served from the engine's result cache.

All functions are deterministic for a given seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.attacks import (
    AttackOutcome,
    RSAKey,
    VoltJockeyAttack,
    VoltJockeyConfig,
)
from repro.bench.runner import OverheadReport
from repro.core import (
    CharacterizationResult,
    MicrocodeGuard,
    PollingCountermeasure,
    install_msr_clamp,
)
from repro.cpu import COMET_LAKE, PAPER_MODEL_TUPLE, CPUModel
from repro.engine import (
    AttackCampaignJob,
    EngineSession,
    OverheadJob,
    get_session,
    seed_stream,
)
from repro.errors import ConfigurationError
from repro.testbench import Machine

#: Seed used by all canonical reproductions (matches the benchmarks).
CANONICAL_SEED = 5

#: Attack attempts per defense in the comparison harness.
COMPARISON_ATTEMPTS = 40

#: The attacks mounted per (CPU, defense) cell of the prevention matrix.
PREVENTION_ATTACKS = ("imul", "plundervolt", "v0ltpwn")

#: Victim secrets targeted by the prevention campaigns.  The values match
#: the :class:`~repro.engine.AttackCampaignJob` defaults (``rsa_key_seed``
#: and ``aes_key_hex``), so the recovered secrets in the matrix can be
#: checked against them.  ``PREVENTION_RSA_KEY`` is built on first use
#: (see :func:`__getattr__`).
PREVENTION_AES_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def __getattr__(name: str):
    """Build ``PREVENTION_RSA_KEY`` on first access.

    It is a 512-bit key generation, which the figure reproductions mount
    no attack to need.  The key comes from the memoized
    :meth:`RSAKey.generate`, so it is the very object the attack jobs
    sign with, and it is kept as a module global once built.
    """
    if name == "PREVENTION_RSA_KEY":
        key = RSAKey.generate(512, seed=42)
        globals()[name] = key
        return key
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def characterization(
    model: CPUModel, *, seed: int = CANONICAL_SEED
) -> CharacterizationResult:
    """Figs. 2-4: the full Algo 2 sweep for one CPU model.

    Served from the engine's result cache: repeated calls with the same
    (model, seed) return the *same object*.  ``clear_characterization_cache``
    (or ``get_session().clear_cache()``) resets it explicitly — the cache
    is bounded and never leaks across sessions the way the old
    module-global dict did.
    """
    return get_session().characterize(model, seed=seed)


def clear_characterization_cache() -> None:
    """Explicitly drop every cached sweep (and campaign) result."""
    get_session().clear_cache()


def _unsafe_json(result: CharacterizationResult) -> str:
    """The characterized unsafe set as canonical JSON for job specs."""
    return json.dumps(result.unsafe_states.to_dict(), sort_keys=True)


def protected_machine(
    model: CPUModel, *, seed: int = 11, characterization_seed: int = CANONICAL_SEED
) -> Tuple[Machine, PollingCountermeasure]:
    """A machine with the polling countermeasure deployed."""
    machine_seed = seed_stream(
        seed, "experiments", "protected-machine", model.codename
    ).integer()
    machine = Machine.build(model, seed=machine_seed)
    module = PollingCountermeasure(
        machine, characterization(model, seed=characterization_seed).unsafe_states
    )
    machine.modules.insmod(module)
    return machine, module


def table2_overhead(
    *, model: CPUModel = COMET_LAKE, seed: int = 3
) -> OverheadReport:
    """Table 2: SPEC2017 overhead of the polling module (Comet Lake in
    the paper)."""
    job = OverheadJob(
        codename=model.codename,
        seed=seed,
        unsafe_json=_unsafe_json(characterization(model)),
    )
    return get_session().run_job(job)


@dataclass
class PreventionCell:
    """One (CPU, defense, attack) cell of the prevention matrix."""

    codename: str
    protected: bool
    outcome: AttackOutcome


@dataclass
class PreventionMatrix:
    """The Sec. 4.3 evaluation across CPUs, defenses and attacks."""

    cells: List[PreventionCell] = field(default_factory=list)

    def outcomes(self, *, codename: Optional[str] = None, protected: Optional[bool] = None):
        """Filter cells by CPU and/or defense state."""
        selected = self.cells
        if codename is not None:
            selected = [c for c in selected if c.codename == codename]
        if protected is not None:
            selected = [c for c in selected if c.protected == protected]
        return selected

    @property
    def protected_faults(self) -> int:
        """Total victim faults across all protected cells (claim: 0)."""
        return sum(c.outcome.faults_observed for c in self.outcomes(protected=True))


def _attack_jobs(
    model: CPUModel, attacks, protections, seed: int
) -> List[AttackCampaignJob]:
    """The campaign cells of one CPU, defense state outermost.

    Every cell attacks at the base frequency.  The imul sweep straddles
    the characterized boundary there, and a protected cell's polling
    module guards the characterized unsafe set.
    """
    result = characterization(model)
    base = model.frequency_table.base_ghz
    boundary = int(result.unsafe_states.boundary_mv(base))
    offsets = (
        boundary + 20, boundary - 5, boundary - 10,
        boundary - 15, boundary - 20, -300,
    )
    unsafe_json = _unsafe_json(result)
    return [
        AttackCampaignJob(
            codename=model.codename,
            attack=attack,
            protected=protected,
            seed=seed,
            unsafe_json=unsafe_json if protected else None,
            offsets_mv=offsets if attack == "imul" else None,
            frequency_ghz=base,
        )
        for protected in protections
        for attack in attacks
    ]


def attack_job(
    model: CPUModel, attack: str, *, protected: bool, seed: int = 11
) -> AttackCampaignJob:
    """One (CPU, defense state, attack) cell of the Sec. 4.3 campaign."""
    return _attack_jobs(model, (attack,), (protected,), seed)[0]


def prevention_jobs(
    *, seed: int = 11, include_aes: bool = True, codename: Optional[str] = None
) -> List[AttackCampaignJob]:
    """The Sec. 4.3 campaign expressed as engine job specs.

    One self-contained job per (CPU, defense state, attack): the
    characterized unsafe set travels inside protected specs, so the jobs
    can be sharded across worker processes (``repro campaign --workers``)
    and still reproduce the serial matrix byte for byte.  ``codename``
    keeps one CPU's cells and characterizes only that CPU.

    Raises
    ------
    ConfigurationError
        If ``codename`` is not one of the paper's three CPUs: an empty
        campaign would report the zero-fault claim as met.
    """
    paper_codenames = [model.codename for model in PAPER_MODEL_TUPLE]
    if codename is not None and codename not in paper_codenames:
        raise ConfigurationError(
            f"the prevention campaign covers the paper CPUs only "
            f"({', '.join(paper_codenames)}), not {codename!r}"
        )
    jobs: List[AttackCampaignJob] = []
    for model in PAPER_MODEL_TUPLE:
        if codename is not None and model.codename != codename:
            continue
        attacks = list(PREVENTION_ATTACKS)
        if include_aes and model.codename == "Comet Lake":
            attacks.append("aes-dfa")
        jobs.extend(_attack_jobs(model, attacks, (False, True), seed))
    return jobs


def prevention_matrix(
    *, seed: int = 11, include_aes: bool = True, session: Optional[EngineSession] = None
) -> PreventionMatrix:
    """Sec. 4.3: attack campaigns vs the polling module on all three CPUs."""
    session = session or get_session()
    jobs = prevention_jobs(seed=seed, include_aes=include_aes)
    outcomes = session.run_jobs(jobs)
    matrix = PreventionMatrix()
    for job, outcome in zip(jobs, outcomes):
        matrix.cells.append(PreventionCell(job.codename, job.protected, outcome))
    return matrix


@dataclass(frozen=True)
class DeploymentOutcome:
    """Adaptive frequency-jump attack vs one deployment depth."""

    deployment: str
    outcome: AttackOutcome


def maximal_safe_deployments(*, seed: int = 9) -> List[DeploymentOutcome]:
    """Sec. 5: the adaptive attack vs polling / microcode / MSR clamp."""
    result = characterization(COMET_LAKE)
    maximal = result.maximal_safe_offset_mv()
    cross_offset = int(result.unsafe_states.boundary_mv(3.4)) - 10
    outcomes = []
    for deployment in ("polling only", "polling + microcode (5.1)", "polling + MSR clamp (5.2)"):
        machine, _ = protected_machine(COMET_LAKE, seed=seed)
        if "microcode" in deployment:
            MicrocodeGuard(maximal).apply(machine.processor)
        elif "clamp" in deployment:
            install_msr_clamp(machine.processor, maximal)
        outcome = VoltJockeyAttack(
            machine,
            VoltJockeyConfig(0.8, 3.4, offset_mv=cross_offset, repetitions=3),
        ).mount()
        outcomes.append(DeploymentOutcome(deployment, outcome))
    return outcomes


@dataclass
class DefenseComparison:
    """Sec. 1/4.1: the three philosophies measured on the same machine."""

    #: Access control: were the attack and the benign request blocked?
    sa00289_blocks_attack: bool = False
    sa00289_blocks_benign: bool = False
    #: Minefield: verdict counts without and with single-stepping.
    minefield_detected_plain: int = 0
    minefield_exploited_plain: int = 0
    minefield_detected_stepped: int = 0
    minefield_exploited_stepped: int = 0
    minefield_overhead: float = 0.0
    #: Polling: benign availability and the attack's applied end state.
    polling_benign_accepted: bool = False
    polling_benign_applied_mv: float = 0.0
    polling_attack_applied_mv: float = 0.0
    polling_overhead: float = 0.0


def defense_comparison(*, seed: int = 41, attempts: int = COMPARISON_ATTEMPTS) -> DefenseComparison:
    """Run the three-philosophy comparison (see the matching benchmark)."""
    from repro.defenses import AccessControlDefense, MinefieldDefense, WindowVerdict
    from repro.faults.injector import FaultInjector
    from repro.faults.margin import FaultModel
    from repro.sgx import EnclaveHost

    comparison = DefenseComparison()
    stream = seed_stream(seed, "experiments", "defense-comparison")

    # -- Intel SA-00289 ------------------------------------------------------
    machine = Machine.build(COMET_LAKE, seed=stream.child("sa00289").integer())
    host = EnclaveHost(machine)
    access = AccessControlDefense(machine, host)
    access.deploy()
    host.create_enclave("app")
    comparison.sa00289_blocks_attack = not machine.write_voltage_offset(-250)
    comparison.sa00289_blocks_benign = not machine.write_voltage_offset(-30)

    # -- Minefield -------------------------------------------------------------
    fault_model = FaultModel(COMET_LAKE)
    injector = FaultInjector(fault_model, stream.child("minefield").rng())
    vcrit = fault_model.critical_voltage(2.0)
    conditions = type(fault_model.conditions_for_offset(2.0, 0.0))(
        2.0, vcrit - 0.003, -999
    )
    minefield = MinefieldDefense(density=2.0, mine_sensitivity_boost=2.0)
    minefield.deploy()
    comparison.minefield_overhead = minefield.overhead_fraction()
    for stepped in (False, True):
        for _ in range(attempts):
            verdict = minefield.run_protected_window(
                injector, conditions, 500_000, single_stepped=stepped
            )
            if verdict is WindowVerdict.DETECTED:
                if stepped:
                    comparison.minefield_detected_stepped += 1
                else:
                    comparison.minefield_detected_plain += 1
            elif verdict is WindowVerdict.EXPLOITED:
                if stepped:
                    comparison.minefield_exploited_stepped += 1
                else:
                    comparison.minefield_exploited_plain += 1

    # -- Plug Your Volt (polling) -------------------------------------------------
    machine, module = protected_machine(COMET_LAKE, seed=seed)
    host = EnclaveHost(machine)
    host.create_enclave("app")
    comparison.polling_benign_accepted = machine.write_voltage_offset(-30)
    machine.advance(3e-3)
    comparison.polling_benign_applied_mv = machine.processor.core(0).applied_offset_mv(
        machine.now
    )
    machine.write_voltage_offset(-250)
    machine.advance(3e-3)
    comparison.polling_attack_applied_mv = machine.processor.core(0).applied_offset_mv(
        machine.now
    )
    comparison.polling_overhead = module.duty_cycle() / len(machine.processor.cores)
    return comparison
