"""repro.registry — content-addressed run registry and perf trajectories.

The observability layer that makes every campaign *re-executable on
demand*: a local sqlite index plus a sha256-addressed blob store under
``REPRO_REGISTRY_DIR`` (default ``~/.repro/registry``), written
automatically by every :class:`~repro.engine.session.EngineSession`
(opt out with ``REPRO_REGISTRY=0``) and queried by the ``repro runs``,
``repro reproduce``, ``repro diff`` and ``repro spans`` CLI verbs.

* :class:`RunRegistry` — the index: runs, per-job results, flight
  dumps, span timelines;
* :class:`ObjectStore` — the blobs: manifests, pickled job specs,
  pickled payloads, each verified against its address on read;
* :class:`ResultStore` — a fingerprint index over those blobs: the one
  on-disk result format of the engine's disk cache (which is also what
  a killed campaign resumes from) and the coordinator's dedup store;
* :func:`repro.registry.reproduce.reproduce_run` — re-execute a
  recorded run and assert byte-identity of every result blob;
* :func:`repro.registry.diff.diff_runs` — attribute drift between two
  runs to code, environment, spec, composition or (nondeterministic)
  results;
* :mod:`repro.registry.trajectory` — the committed
  ``benchmarks/trajectories/BENCH_*.json`` perf trajectories and their
  CI regression gate (no registry involved).

The package re-exports only the index and the store, so importing any
``repro.registry`` module stays light; ``reproduce``, ``diff`` and
``trajectory`` are imported from their own modules where they are used.
``reproduce``/``diff`` import the engine; the index and store modules do
not, so the engine session can import them without a cycle.
"""

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
from repro.registry.store import (
    ObjectStore,
    ResultStore,
    StoreStats,
    encode_object,
    sha256_hex,
)

__all__ = [
    "DEFAULT_REGISTRY_DIR",
    "INDEX_SCHEMA_VERSION",
    "ObjectStore",
    "REGISTRY_DIR_ENV",
    "REGISTRY_ENV",
    "ResultStore",
    "RunRegistry",
    "StoreStats",
    "code_fingerprint",
    "compute_run_id",
    "encode_object",
    "registry_dir_from_env",
    "sha256_hex",
]
