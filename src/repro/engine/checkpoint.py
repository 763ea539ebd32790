"""Campaign checkpointing: persist completed results, resume, converge.

A :class:`CampaignCheckpoint` is a directory the engine session writes
every completed :class:`~repro.engine.jobs.JobResult` into *as it
lands* (via the executor's per-job progress callback), so a campaign
killed at any instant — SIGKILL included — can be resumed with
``repro campaign --resume <dir>`` and only re-executes the jobs that
had not finished.  Because every job's payload depends only on its own
fingerprint-addressed seed stream, a resumed campaign *provably
converges* to the uninterrupted run: served-from-checkpoint payloads
are byte-identical to freshly computed ones.

Layout::

    <dir>/checkpoint.json            # metadata: schema, counts, quarantine list
    <dir>/results.jsonl              # fingerprint index, one line per job
    <dir>/objects/<sha[:2]>/<sha>    # the payload blobs

The entries are a :class:`~repro.registry.store.ResultStore`, the same
on-disk result format as the result cache's disk layer and the
coordinator's store.  A payload torn at kill time fails its sha256, is
set aside as ``.corrupt`` and simply recomputed on resume; a kill
between a blob and its index line leaves an orphan blob that counts as
not completed.  The metadata flush is atomic too (write-temp + rename),
so there is no instant at which a crash can corrupt the checkpoint
itself.  Schema-1 checkpoints (one pickle file per entry) are refused
rather than resumed as empty.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.engine.jobs import JobResult
from repro.errors import ObserveError
from repro.registry.store import ResultStore, encode_object

#: Metadata schema tag; stale checkpoints fail loudly instead of
#: resuming wrongly.
CHECKPOINT_SCHEMA_VERSION = 2

#: Metadata discriminator.
CHECKPOINT_KIND = "campaign-checkpoint"

#: Metadata file name inside the checkpoint directory.
MANIFEST_NAME = "checkpoint.json"


class CampaignCheckpoint:
    """One resumable campaign's persisted progress."""

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        flush_every: int = 1,
    ) -> None:
        self.directory = Path(directory)
        self.flush_every = max(1, int(flush_every))
        #: The persisted results: fingerprint index plus payload blobs.
        self.store = ResultStore(self.directory)
        self._recorded_since_flush = 0
        #: Quarantine records carried across resumes (run-report fodder).
        self.quarantined: List[Dict[str, Any]] = []
        self._load_manifest()

    # -- metadata ----------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            raise ObserveError(
                f"unreadable campaign checkpoint manifest at {path}"
            ) from error
        if not isinstance(manifest, dict) or manifest.get("kind") != CHECKPOINT_KIND:
            raise ObserveError(f"{path} is not a campaign checkpoint manifest")
        if manifest.get("schema") != CHECKPOINT_SCHEMA_VERSION:
            raise ObserveError(
                f"campaign checkpoint schema {manifest.get('schema')!r} != "
                f"{CHECKPOINT_SCHEMA_VERSION}"
            )
        self.quarantined = list(manifest.get("quarantined", []))

    def flush(self) -> Path:
        """Atomically publish the metadata file; returns its path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "kind": CHECKPOINT_KIND,
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "completed": self.completed_count(),
            "quarantined": self.quarantined,
        }
        path = self._manifest_path()
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        tmp.replace(path)
        self._recorded_since_flush = 0
        return path

    # -- recording ---------------------------------------------------------------

    def record(self, result: JobResult) -> None:
        """Persist one completed result (called as each job lands).

        The entry publish itself is atomic and immediate — a kill right
        after this call loses nothing; the metadata flush is merely
        batched (``flush_every``) because correctness never depends on
        it (resume trusts the integrity-checked entries, not the
        manifest's counters).
        """
        self.store.put(result.fingerprint, encode_object(result.payload))
        self._recorded_since_flush += 1
        if self._recorded_since_flush >= self.flush_every:
            self.flush()

    def record_quarantine(self, info: Dict[str, Any]) -> None:
        """Persist one quarantine record (poison jobs re-run on resume)."""
        self.quarantined.append(dict(info))
        self.flush()

    # -- resume ------------------------------------------------------------------

    def get(self, fingerprint: str, default: Any = None) -> Any:
        """The checkpointed payload for a job, or ``default``.

        A torn entry (killed mid-write before the atomic rename, or
        corrupted on disk afterwards) fails integrity verification, is
        quarantined and reads as absent — the session then simply
        re-executes that job.
        """
        return self.store.load(fingerprint, default)

    def completed_count(self) -> int:
        """How many distinct results the entry index holds."""
        return len(self.store)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for CLI output and run manifests."""
        return {
            "directory": str(self.directory),
            "completed": self.completed_count(),
            "quarantined": len(self.quarantined),
        }
