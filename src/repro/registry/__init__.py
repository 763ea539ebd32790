"""repro.registry — content-addressed run registry and perf trajectories.

The observability layer that makes every campaign *re-executable on
demand*: a local sqlite index plus a sha256-addressed blob store under
``REPRO_REGISTRY_DIR`` (default ``~/.repro/registry``), written
automatically by every :class:`~repro.engine.session.EngineSession`
(opt out with ``REPRO_REGISTRY=0``) and queried by the ``repro runs``,
``repro reproduce``, ``repro diff`` and ``repro trajectory`` CLI verbs.

* :class:`RunRegistry` — the index: runs, per-job results, flight
  dumps, bench trajectories;
* :class:`ObjectStore` — the blobs: manifests, pickled job specs,
  pickled payloads, each verified against its address on read;
* :class:`ResultStore` — a fingerprint index over those blobs: the one
  on-disk result format of the engine's disk cache (which is also what
  a killed campaign resumes from) and the coordinator's dedup store;
* :func:`reproduce_run` — re-execute a recorded run and assert
  byte-identity of every result blob;
* :func:`diff_runs` — attribute drift between two runs to code,
  environment, spec, composition or (nondeterministic) results;
* :mod:`repro.registry.trajectory` — registry-backed ``BENCH_*.json``
  perf trajectories with a CI regression gate.

``reproduce``/``diff`` import the engine; the index and store modules do
not, so the engine session can import them without a cycle.
"""

from repro.registry.diff import RunDiff, SpecDrift, diff_runs
from repro.registry.registry import (
    DEFAULT_REGISTRY_DIR,
    INDEX_SCHEMA_VERSION,
    REGISTRY_DIR_ENV,
    REGISTRY_ENV,
    RunRegistry,
    code_fingerprint,
    compute_run_id,
    registry_dir_from_env,
)
from repro.registry.reproduce import (
    JobReproduction,
    ReproduceReport,
    reproduce_run,
)
from repro.registry.store import (
    ObjectStore,
    ResultStore,
    StoreStats,
    encode_object,
    sha256_hex,
)
from repro.registry.trajectory import (
    DEFAULT_MAX_REGRESS,
    TrajectoryCheck,
    check_point,
    extract_metric,
    load_trajectory,
    make_point,
    record_point,
    trajectory_filename,
    write_trajectory,
)

__all__ = [
    "DEFAULT_MAX_REGRESS",
    "DEFAULT_REGISTRY_DIR",
    "INDEX_SCHEMA_VERSION",
    "JobReproduction",
    "ObjectStore",
    "REGISTRY_DIR_ENV",
    "REGISTRY_ENV",
    "ReproduceReport",
    "ResultStore",
    "RunDiff",
    "RunRegistry",
    "SpecDrift",
    "StoreStats",
    "TrajectoryCheck",
    "check_point",
    "code_fingerprint",
    "compute_run_id",
    "diff_runs",
    "encode_object",
    "extract_metric",
    "load_trajectory",
    "make_point",
    "record_point",
    "registry_dir_from_env",
    "reproduce_run",
    "sha256_hex",
    "trajectory_filename",
    "write_trajectory",
]
