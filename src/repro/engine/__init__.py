"""The campaign engine: the control plane of every experiment path.

The paper's compute shape is a handful of long campaigns — the Algo 2
characterization sweep (thousands of (frequency, offset) cells per CPU,
Figs. 2-4), the attack/defense prevention matrix (Sec. 4.3) and the SPEC
overhead run (Table 2).  This package turns each of those from a
hand-rolled serial loop into

* a frozen, hashable :class:`~repro.engine.jobs.JobSpec` with a
  content-hash fingerprint,
* a named deterministic seed stream
  (:mod:`repro.engine.seeds`) keyed by the job's identity,
* an :class:`~repro.engine.executors.Executor` — serial or
  process-pool — that runs job batches and reports per-worker telemetry
  counters home,
* and a persistent :class:`~repro.engine.cache.ResultCache` addressed by
  job fingerprint, written as each result lands, so a killed campaign
  rerun over the same ``REPRO_CACHE_DIR`` resumes where it stopped.

:class:`~repro.engine.session.EngineSession` ties the four together; the
experiment API, the CLI and both conftests share one default session via
:func:`~repro.engine.session.get_session`.
"""

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.executors import (
    COORDINATOR_ENV,
    EXECUTOR_ENV,
    EXECUTOR_KINDS,
    WORKERS_ENV,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    executor_from_env,
    make_executor,
)
from repro.engine.resilience import (
    ChaosPolicy,
    Quarantined,
    RetryPolicy,
    SupervisedTask,
    SupervisionStats,
    execute_supervised,
)
from repro.engine.jobs import (
    ATTACK_KINDS,
    RESULT_AFFECTING_ENV,
    AttackCampaignJob,
    BatchCharacterizationJob,
    CharacterizationJob,
    CharacterizationRowJob,
    ExploreInjectionJob,
    ExplorePointJob,
    FuzzJob,
    JobResult,
    JobSpec,
    OverheadJob,
    environment_fingerprint,
    execute_job,
)
from repro.engine.seeds import SeedStream, seed_stream
from repro.engine.session import (
    DEFAULT_SEED,
    EngineSession,
    clear_session_cache,
    get_session,
    reset_session,
    set_session,
)

__all__ = [
    "ATTACK_KINDS",
    "AttackCampaignJob",
    "BatchCharacterizationJob",
    "CacheStats",
    "ChaosPolicy",
    "CharacterizationJob",
    "CharacterizationRowJob",
    "ExploreInjectionJob",
    "ExplorePointJob",
    "DEFAULT_SEED",
    "COORDINATOR_ENV",
    "EXECUTOR_ENV",
    "EXECUTOR_KINDS",
    "EngineSession",
    "Executor",
    "FuzzJob",
    "JobResult",
    "JobSpec",
    "OverheadJob",
    "ParallelExecutor",
    "Quarantined",
    "RESULT_AFFECTING_ENV",
    "ResultCache",
    "RetryPolicy",
    "SeedStream",
    "SerialExecutor",
    "SupervisedTask",
    "SupervisionStats",
    "WORKERS_ENV",
    "clear_session_cache",
    "environment_fingerprint",
    "execute_job",
    "execute_supervised",
    "executor_from_env",
    "get_session",
    "make_executor",
    "reset_session",
    "seed_stream",
    "set_session",
]
