"""The local run registry: sqlite index + content-addressed blob store.

A :class:`RunRegistry` lives in one directory (``REPRO_REGISTRY_DIR``,
default ``~/.repro/registry``)::

    <dir>/index.sqlite            # runs / results / flights / spans
    <dir>/objects/<sha[:2]>/<sha> # manifests, job specs, result payloads

Recording is two-phase and crash-safe by construction:

1. **Staging** — as campaign jobs complete, the engine session pickles
   each job spec and payload into the blob store
   (:meth:`stage_result`).  Blob publishes are atomic (temp + rename);
   a SIGKILL here leaves orphaned-but-valid objects and *no* index rows.
2. **Committing** — :meth:`record_run` writes the run row, its result
   rows and its flight-dump rows in one sqlite transaction.  sqlite's
   journal makes the commit atomic, so the index is consistent at every
   instant: a run either appears completely or not at all.

Run ids are *content addresses over provenance*: the sha256 of the
canonical identity of what ran — schema, code fingerprint, the resolved
result-affecting environment, and the ordered job fingerprints (each of
which already folds in the job spec, its seed-stream path and the env,
see :meth:`repro.engine.jobs.JobSpec.fingerprint`).  Re-recording the
same campaign therefore lands on the same run id (idempotent), and two
different run ids *must* differ in at least one attributable input —
the property ``repro diff`` exploits.

This module deliberately imports nothing from :mod:`repro.engine`, so
the engine session can depend on it without a cycle; re-execution lives
in :mod:`repro.registry.reproduce`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.errors import RegistryError
from repro.registry.store import ObjectStore

#: Environment switch: ``REPRO_REGISTRY=0`` disables automatic recording.
REGISTRY_ENV = "REPRO_REGISTRY"

#: Environment variable naming the registry directory.
REGISTRY_DIR_ENV = "REPRO_REGISTRY_DIR"

#: Default registry location when the environment names none.
DEFAULT_REGISTRY_DIR = "~/.repro/registry"

#: Index schema tag; bumped on incompatible table changes.
INDEX_SCHEMA_VERSION = 1

#: Run row status values.
RUN_STATUS_COMPLETE = "complete"
RUN_STATUS_QUARANTINED = "quarantined"

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    created_at TEXT NOT NULL,
    status TEXT NOT NULL,
    schema INTEGER NOT NULL,
    manifest_sha TEXT NOT NULL,
    code_json TEXT NOT NULL,
    env_json TEXT NOT NULL,
    codenames_json TEXT NOT NULL,
    jobs_total INTEGER NOT NULL,
    jobs_executed INTEGER NOT NULL,
    jobs_cached INTEGER NOT NULL,
    jobs_resumed INTEGER NOT NULL,
    jobs_quarantined INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    run_id TEXT NOT NULL,
    position INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    kind TEXT NOT NULL,
    seed_path TEXT NOT NULL,
    source TEXT NOT NULL,
    spec_sha TEXT,
    payload_sha TEXT,
    identity_json TEXT,
    PRIMARY KEY (run_id, fingerprint)
);
CREATE TABLE IF NOT EXISTS flights (
    run_id TEXT NOT NULL,
    path TEXT NOT NULL,
    sha256 TEXT NOT NULL,
    reason TEXT NOT NULL,
    PRIMARY KEY (run_id, path)
);
CREATE TABLE IF NOT EXISTS spans (
    run_id TEXT PRIMARY KEY,
    recorded_at TEXT NOT NULL,
    trace_id TEXT,
    span_count INTEGER NOT NULL,
    timeline_sha TEXT NOT NULL
);
"""


def registry_dir_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> Optional[Path]:
    """The registry directory the environment selects, or ``None``.

    ``REPRO_REGISTRY=0`` opts out entirely; otherwise
    ``REPRO_REGISTRY_DIR`` (or the ``~/.repro/registry`` default) names
    the directory.
    """
    env = os.environ if environ is None else environ
    if env.get(REGISTRY_ENV, "").strip() == "0":
        return None
    raw = env.get(REGISTRY_DIR_ENV, "").strip()
    return Path(raw).expanduser() if raw else Path(DEFAULT_REGISTRY_DIR).expanduser()


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def compute_run_id(manifest: Dict[str, Any]) -> str:
    """The content-addressed run id for a run manifest.

    Folds exactly the *deterministic provenance* of the run: manifest
    schema, code fingerprint, the resolved result-affecting environment
    and the ordered job fingerprints.  Wall times, cache-vs-executed
    sourcing and metric snapshots are excluded on purpose — they describe
    how the run went, not what it was, and must not split the address of
    otherwise-identical campaigns.
    """
    env = manifest.get("env", {})
    identity = {
        "schema": manifest.get("schema"),
        "code": manifest.get("code"),
        "env": env.get("result_affecting", {}),
        "jobs": [
            [job.get("kind"), job.get("fingerprint")]
            for batch in manifest.get("batches", [])
            for job in batch.get("jobs", [])
        ],
    }
    return hashlib.sha256(_canonical_json(identity).encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@lru_cache(maxsize=1)
def code_fingerprint() -> Dict[str, Optional[str]]:
    """The code identity recorded in every schema-3 manifest.

    ``version`` is always present; ``describe`` is ``git describe
    --always --dirty`` when the checkout has git available (cached for
    the process — manifests are written far more often than code
    changes mid-process).
    """
    import repro

    describe: Optional[str] = None
    try:
        import subprocess

        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(repro.__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if completed.returncode == 0:
            describe = completed.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        describe = None
    return {"version": repro.__version__, "describe": describe}


def _codenames_of(rows: Sequence[Dict[str, Any]]) -> List[str]:
    names = set()
    for row in rows:
        path = row.get("seed_path") or []
        # Seed paths are ("characterization"|"campaign"|..., codename, ...).
        if len(path) >= 2:
            names.add(str(path[1]))
    return sorted(names)


class RunRegistry:
    """One registry directory: index database plus object store."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory).expanduser()
        self.store = ObjectStore(self.directory)
        self._ensure_schema()

    @classmethod
    def from_env(
        cls, environ: Optional[Dict[str, str]] = None
    ) -> Optional["RunRegistry"]:
        """The environment-selected registry, or ``None`` when opted out."""
        directory = registry_dir_from_env(environ)
        return cls(directory) if directory is not None else None

    # -- index plumbing ----------------------------------------------------------

    def _db_path(self) -> Path:
        return self.directory / "index.sqlite"

    def _connect(self) -> sqlite3.Connection:
        self.directory.mkdir(parents=True, exist_ok=True)
        connection = sqlite3.connect(self._db_path(), timeout=30.0)
        connection.row_factory = sqlite3.Row
        return connection

    def _ensure_schema(self) -> None:
        with self._connect() as db:
            db.executescript(_TABLES)
            db.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("index_schema", str(INDEX_SCHEMA_VERSION)),
            )
            row = db.execute(
                "SELECT value FROM meta WHERE key = 'index_schema'"
            ).fetchone()
        if row is not None and int(row["value"]) != INDEX_SCHEMA_VERSION:
            raise RegistryError(
                f"registry index schema {row['value']} at {self.directory} "
                f"!= supported {INDEX_SCHEMA_VERSION}"
            )

    # -- staging (phase 1) -------------------------------------------------------

    def stage_result(
        self,
        *,
        kind: str,
        fingerprint: str,
        seed_path: Sequence[str],
        source: str,
        identity: Optional[Dict[str, Any]] = None,
        spec_bytes: Optional[bytes] = None,
        payload_bytes: Optional[bytes] = None,
    ) -> Dict[str, Any]:
        """Publish one job's blobs and return its pending result row.

        Blob writes happen *now* (atomically, deduplicated); the row is
        returned to the caller to pass to :meth:`record_run`, which is
        the only place index rows are born.  Quarantined jobs stage with
        no payload bytes.
        """
        spec_sha = self.store.put_bytes(spec_bytes) if spec_bytes else None
        payload_sha = (
            self.store.put_bytes(payload_bytes) if payload_bytes else None
        )
        return {
            "fingerprint": fingerprint,
            "kind": kind,
            "seed_path": list(seed_path),
            "source": source,
            "spec_sha": spec_sha,
            "payload_sha": payload_sha,
            "identity": identity,
        }

    # -- committing (phase 2) ----------------------------------------------------

    def record_run(
        self,
        manifest: Dict[str, Any],
        rows: Sequence[Dict[str, Any]],
        *,
        flights: Iterable[Dict[str, Any]] = (),
    ) -> str:
        """Commit one run: manifest blob + all index rows, atomically.

        Returns the content-addressed run id.  Re-recording the same
        campaign is idempotent (same id, rows replaced in place).
        """
        run_id = manifest.get("run_id") or compute_run_id(manifest)
        manifest = dict(manifest, run_id=run_id)
        manifest_sha = self.store.put_bytes(
            json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
        )
        by_source: Dict[str, int] = {}
        for row in rows:
            by_source[row["source"]] = by_source.get(row["source"], 0) + 1
        status = (
            RUN_STATUS_QUARANTINED
            if by_source.get("quarantined")
            else RUN_STATUS_COMPLETE
        )
        env = manifest.get("env", {})
        with self._connect() as db:
            db.execute(
                "INSERT OR REPLACE INTO runs (run_id, created_at, status, "
                "schema, manifest_sha, code_json, env_json, codenames_json, "
                "jobs_total, jobs_executed, jobs_cached, jobs_resumed, "
                "jobs_quarantined) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    _utc_now(),
                    status,
                    int(manifest.get("schema", 0)),
                    manifest_sha,
                    _canonical_json(manifest.get("code", {})),
                    _canonical_json(env.get("result_affecting", {})),
                    _canonical_json(_codenames_of(rows)),
                    len(rows),
                    # Remote execution is still execution, and a fleet
                    # dedup hit is still a cache hit — the fixed runs
                    # columns keep their conservation law while the
                    # results table retains the raw per-job source for
                    # the by-origin breakdown in describe().
                    by_source.get("executed", 0) + by_source.get("remote", 0),
                    by_source.get("cache", 0) + by_source.get("remote-cache", 0),
                    # jobs_resumed: kept so older indexes open unchanged;
                    # a resumed campaign's jobs are cache hits now.
                    0,
                    by_source.get("quarantined", 0),
                ),
            )
            db.execute("DELETE FROM results WHERE run_id = ?", (run_id,))
            for position, row in enumerate(rows):
                db.execute(
                    "INSERT OR REPLACE INTO results (run_id, position, "
                    "fingerprint, kind, seed_path, source, spec_sha, "
                    "payload_sha, identity_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id,
                        position,
                        row["fingerprint"],
                        row["kind"],
                        _canonical_json(row["seed_path"]),
                        row["source"],
                        row.get("spec_sha"),
                        row.get("payload_sha"),
                        _canonical_json(row["identity"])
                        if row.get("identity") is not None
                        else None,
                    ),
                )
            for flight in flights:
                db.execute(
                    "INSERT OR REPLACE INTO flights (run_id, path, sha256, "
                    "reason) VALUES (?, ?, ?, ?)",
                    (
                        run_id,
                        str(flight["path"]),
                        flight["sha256"],
                        flight.get("reason", "unknown"),
                    ),
                )
        return run_id

    # -- querying ----------------------------------------------------------------

    def resolve(self, run_id_or_prefix: str) -> str:
        """The full run id for an exact id or unique prefix."""
        prefix = run_id_or_prefix.strip()
        if not prefix:
            raise RegistryError("empty run id")
        with self._connect() as db:
            rows = db.execute(
                "SELECT run_id FROM runs WHERE run_id LIKE ? ORDER BY run_id",
                (prefix + "%",),
            ).fetchall()
        if not rows:
            raise RegistryError(
                f"no run matching {prefix!r} in registry {self.directory}"
            )
        if len(rows) > 1:
            matches = ", ".join(row["run_id"][:12] for row in rows[:5])
            raise RegistryError(
                f"run id prefix {prefix!r} is ambiguous ({matches}, …)"
            )
        return rows[0]["run_id"]

    def runs(
        self,
        *,
        codename: Optional[str] = None,
        status: Optional[str] = None,
        since: Optional[str] = None,
        fingerprint: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Run rows, newest first, filtered by the given criteria."""
        query = "SELECT * FROM runs"
        clauses: List[str] = []
        params: List[Any] = []
        if status:
            clauses.append("status = ?")
            params.append(status)
        if since:
            clauses.append("created_at >= ?")
            params.append(since)
        if codename:
            clauses.append("codenames_json LIKE ?")
            params.append(f'%"{codename}"%')
        if fingerprint:
            clauses.append(
                "run_id IN (SELECT run_id FROM results WHERE fingerprint LIKE ?)"
            )
            params.append(fingerprint + "%")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        # created_at has one-second resolution; within a second the row
        # inserted last (INSERT OR REPLACE re-inserts) is the newest.
        query += " ORDER BY created_at DESC, rowid DESC"
        if limit:
            query += f" LIMIT {int(limit)}"
        with self._connect() as db:
            rows = db.execute(query, params).fetchall()
        return [self._run_row(row) for row in rows]

    @staticmethod
    def _run_row(row: sqlite3.Row) -> Dict[str, Any]:
        record = dict(row)
        record["code"] = json.loads(record.pop("code_json"))
        record["env"] = json.loads(record.pop("env_json"))
        record["codenames"] = json.loads(record.pop("codenames_json"))
        return record

    def get_run(self, run_id_or_prefix: str) -> Dict[str, Any]:
        """One run row (resolved by id or unique prefix)."""
        run_id = self.resolve(run_id_or_prefix)
        with self._connect() as db:
            row = db.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        return self._run_row(row)

    def manifest(self, run_id_or_prefix: str) -> Dict[str, Any]:
        """The stored run manifest for a run (verified bytes)."""
        run = self.get_run(run_id_or_prefix)
        return json.loads(self.store.get_bytes(run["manifest_sha"]))

    def results_for(self, run_id_or_prefix: str) -> List[Dict[str, Any]]:
        """Result rows for a run, in campaign order."""
        run_id = self.resolve(run_id_or_prefix)
        with self._connect() as db:
            rows = db.execute(
                "SELECT * FROM results WHERE run_id = ? ORDER BY position",
                (run_id,),
            ).fetchall()
        out = []
        for row in rows:
            record = dict(row)
            record["seed_path"] = json.loads(record["seed_path"])
            raw_identity = record.pop("identity_json")
            record["identity"] = (
                json.loads(raw_identity) if raw_identity else None
            )
            out.append(record)
        return out

    def flights_for(self, run_id_or_prefix: str) -> List[Dict[str, Any]]:
        """Flight-dump rows registered under a run."""
        run_id = self.resolve(run_id_or_prefix)
        with self._connect() as db:
            rows = db.execute(
                "SELECT * FROM flights WHERE run_id = ? ORDER BY path", (run_id,)
            ).fetchall()
        return [dict(row) for row in rows]

    # -- span timelines ----------------------------------------------------------

    def record_spans(
        self, run_id: str, timeline: Dict[str, Any]
    ) -> str:
        """Store a run's merged span timeline; returns its blob sha.

        The timeline is a :meth:`repro.observe.spans.FleetTimeline.to_dict`
        payload: deterministic span records plus the labelled wall-clock
        sidecar.  One timeline per run id (re-recording replaces it —
        same idempotence as :meth:`record_run`).
        """
        timeline_sha = self.store.put_bytes(
            json.dumps(timeline, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
        )
        with self._connect() as db:
            db.execute(
                "INSERT OR REPLACE INTO spans (run_id, recorded_at, trace_id, "
                "span_count, timeline_sha) VALUES (?, ?, ?, ?, ?)",
                (
                    run_id,
                    _utc_now(),
                    timeline.get("trace_id"),
                    len(timeline.get("spans", [])),
                    timeline_sha,
                ),
            )
        return timeline_sha

    def spans_for(self, run_id_or_prefix: str) -> Optional[Dict[str, Any]]:
        """The stored span timeline for a run, or ``None`` if unrecorded."""
        run_id = self.resolve(run_id_or_prefix)
        with self._connect() as db:
            row = db.execute(
                "SELECT timeline_sha FROM spans WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            return None
        return json.loads(self.store.get_bytes(row["timeline_sha"]))

    # -- summary -----------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for ``repro status --registry``."""
        with self._connect() as db:
            runs = db.execute(
                "SELECT COUNT(*) AS n, "
                "SUM(jobs_total) AS jobs, "
                "SUM(jobs_executed) AS executed, "
                "SUM(jobs_cached) AS cached, "
                "SUM(jobs_quarantined) AS quarantined "
                "FROM runs"
            ).fetchone()
            flights = db.execute("SELECT COUNT(*) AS n FROM flights").fetchone()
            origin_rows = db.execute(
                "SELECT source, COUNT(*) AS n FROM results GROUP BY source"
            ).fetchall()
        objects, size = self.store.census()
        jobs = int(runs["jobs"] or 0)
        cached = int(runs["cached"] or 0)
        by_origin = {row["source"]: int(row["n"]) for row in origin_rows}
        return {
            "directory": str(self.directory),
            "runs": int(runs["n"] or 0),
            "jobs": {
                "total": jobs,
                "executed": int(runs["executed"] or 0),
                "cached": cached,
                "quarantined": int(runs["quarantined"] or 0),
            },
            "dedup_hit_rate": (cached / jobs) if jobs else 0.0,
            # Raw per-job sources ("executed", "cache", "remote",
            # "remote-cache", ...) and the local/remote split of dedup
            # hits, so fleet-wide cache effectiveness is measurable.
            "by_origin": by_origin,
            "dedup_hits": {
                "local": by_origin.get("cache", 0),
                "remote": by_origin.get("remote-cache", 0),
            },
            "objects": objects,
            "store_bytes": size,
            "flights": int(flights["n"] or 0),
        }
