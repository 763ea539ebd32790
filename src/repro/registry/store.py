"""Content-addressed blob store, and the fingerprint index over it.

Every blob — a pickled job payload, a pickled job spec, a run manifest —
is stored once under the sha256 of its bytes::

    <root>/objects/<sha256[:2]>/<sha256>

The address *is* the integrity check: a read hashes the bytes it got and
compares them with the name they were filed under.  Writes publish
atomically (write a temp file, ``rename`` into place), so a SIGKILL
mid-write leaves at worst an ignored ``*.tmp.*`` file, never a
half-object at a valid address.  Because addresses are content hashes,
the store deduplicates for free: putting bytes that are already present
touches nothing and is counted as a dedup hit (surfaced by
``repro status --registry``).

Two handles read the blobs, and differ in what a damaged one means.
:class:`ObjectStore` serves the run registry and raises
:class:`~repro.errors.RegistryIntegrityError`: a run record fails
loudly.  :class:`ResultStore` adds a fingerprint index and is the one
on-disk result format of the engine's disk cache and the coordinator;
there a damaged blob is quarantined and reads as a miss, so the caller
recomputes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import RegistryIntegrityError

#: Subdirectory of the registry root that holds the blobs.
OBJECTS_DIR = "objects"

#: Fingerprint index beside ``objects/``: one JSON line per entry.
INDEX_NAME = "results.jsonl"


def sha256_hex(blob: bytes) -> str:
    """The store address for ``blob``."""
    return hashlib.sha256(blob).hexdigest()


def encode_object(payload: Any) -> bytes:
    """Canonical pickle bytes for a payload (the bytes that get hashed).

    Uses the highest protocol, matching the byte-identity contract the
    engine benchmarks already pin (``pickle.dumps(a) == pickle.dumps(b)``
    for equal seeded results).
    """
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class StoreStats:
    """Write-side effectiveness counters for one store handle."""

    puts: int = 0
    writes: int = 0
    dedup_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "puts": self.puts,
            "writes": self.writes,
            "dedup_hits": self.dedup_hits,
        }


@dataclass
class ObjectStore:
    """sha256-addressed blob store under ``<root>/objects/``."""

    root: Union[str, Path]
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def objects_root(self) -> Path:
        return Path(self.root) / OBJECTS_DIR

    def path(self, sha: str) -> Path:
        """Where the blob addressed ``sha`` lives (present or not)."""
        return self.objects_root / sha[:2] / sha

    # -- writing -----------------------------------------------------------------

    def put_bytes(self, blob: bytes) -> str:
        """Store ``blob``; returns its sha256 address.

        Idempotent: an address that already exists is left untouched
        (content-addressing makes overwrites meaningless) and counted as
        a dedup hit.
        """
        sha = sha256_hex(blob)
        self.stats.puts += 1
        path = self.path(sha)
        if path.exists():
            self.stats.dedup_hits += 1
            return sha
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{sha}.tmp.{os.getpid()}")
        tmp.write_bytes(blob)
        tmp.replace(path)
        self.stats.writes += 1
        return sha

    # -- reading -----------------------------------------------------------------

    def read(self, sha: str) -> Optional[bytes]:
        """The verified bytes stored at ``sha``, or ``None`` if absent.

        Raises :class:`RegistryIntegrityError` when the bytes no longer
        hash to their address.
        """
        try:
            blob = self.path(sha).read_bytes()
        except OSError:
            return None
        if sha256_hex(blob) != sha:
            raise RegistryIntegrityError(
                f"registry object {sha[:12]}… failed content verification "
                "(bytes do not hash to their address — tampered or torn)",
                sha256=sha,
            )
        return blob

    def get_bytes(self, sha: str) -> bytes:
        """The verified bytes stored at ``sha``.

        Raises :class:`RegistryIntegrityError` when the object is
        missing or its bytes no longer hash to their address.
        """
        blob = self.read(sha)
        if blob is None:
            raise RegistryIntegrityError(
                f"registry object {sha[:12]}… is missing ({self.path(sha)})",
                sha256=sha,
            )
        return blob

    def get(self, sha: str) -> Any:
        """Unpickle the verified object stored at ``sha``."""
        return pickle.loads(self.get_bytes(sha))

    # -- accounting --------------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        root = self.objects_root
        if not root.exists():
            return iter(())
        return (
            entry
            for bucket in sorted(root.iterdir())
            if bucket.is_dir()
            for entry in sorted(bucket.iterdir())
            if entry.is_file()
            and ".tmp." not in entry.name
            and not entry.name.endswith(".corrupt")
        )

    def census(self) -> Tuple[int, int]:
        """(object count, total bytes) currently on disk."""
        count = 0
        size = 0
        for entry in self._entries():
            try:
                size += entry.stat().st_size
                count += 1
            except OSError:
                continue
        return count, size


@dataclass
class ResultStoreStats:
    """Effectiveness counters surfaced on the coordinator's ``/v1/status``."""

    stored: int = 0
    hits: int = 0
    misses: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _index_line(fingerprint: str, sha: str) -> bytes:
    entry = {"fingerprint": fingerprint, "sha256": sha}
    return (json.dumps(entry, sort_keys=True) + "\n").encode()


class ResultStore:
    """Job fingerprint → payload bytes: blobs plus ``results.jsonl``.

    The index is append-only, one JSON line per entry, the last line for
    a fingerprint winning.  The read contract:

    * ``get`` and ``in`` agree on exactly which entries exist.
    * A blob that fails verification is counted as ``corrupt``, renamed
      to ``<sha>.corrupt`` and reads as a miss.  The quarantine is
      terminal; a later :meth:`put` of the same payload republishes it.
    * A lookup that misses re-reads the index tail first, so a reader
      sees the entries another process appended after it opened the
      directory.
    * :meth:`put` publishes the blob before its index line: a kill
      between the two leaves an orphan blob, which reads as a miss.

    Not thread-safe: the coordinator serializes access under its own
    lock.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.objects = ObjectStore(self.root)
        self.stats = ResultStoreStats()
        # Oldest entry first: the order trim() evicts in.
        self._index: Dict[str, str] = {}
        # How much of which index file has been parsed into _index.
        self._inode: Optional[int] = None
        self._offset = 0
        self._refresh()

    @property
    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    # -- the index ---------------------------------------------------------------

    def _refresh(self) -> None:
        """Parse the index lines appended since the last read.

        An index file replaced by :meth:`trim` or :meth:`clear` is
        re-read from the start.  An unterminated tail line (a torn or
        in-flight append) waits for the next read; a line that does not
        parse is skipped.
        """
        try:
            with open(self.index_path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if stat.st_ino != self._inode or stat.st_size < self._offset:
                    self._index.clear()
                    self._inode, self._offset = stat.st_ino, 0
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return
        end = chunk.rfind(b"\n") + 1
        self._offset += end
        for line in chunk[:end].decode("utf-8", "replace").splitlines():
            try:
                entry = json.loads(line)
                fingerprint, sha = entry["fingerprint"], entry["sha256"]
            except (ValueError, TypeError, KeyError):
                continue
            if isinstance(fingerprint, str) and isinstance(sha, str):
                self._index[fingerprint] = sha

    def _append(self, fingerprint: str, sha: str) -> None:
        line = _index_line(fingerprint, sha)
        with open(self.index_path, "a+b") as handle:
            stat = os.fstat(handle.fileno())
            if stat.st_size:
                handle.seek(stat.st_size - 1)
                if handle.read(1) != b"\n":
                    line = b"\n" + line  # seal off a torn tail line
            handle.write(line)
        self._index[fingerprint] = sha

    def _rewrite(self) -> None:
        """Atomically replace the index file with the in-memory index."""
        data = b"".join(_index_line(fp, sha) for fp, sha in self._index.items())
        tmp = self.index_path.with_name(f"{INDEX_NAME}.tmp.{os.getpid()}")
        tmp.write_bytes(data)
        tmp.replace(self.index_path)
        self._inode, self._offset = self.index_path.stat().st_ino, len(data)

    def _sha(self, fingerprint: str) -> Optional[str]:
        sha = self._index.get(fingerprint)
        if sha is None:
            self._refresh()
            sha = self._index.get(fingerprint)
        return sha

    # -- reading -----------------------------------------------------------------

    def _quarantine(self, sha: str) -> None:
        """Set a damaged blob aside as ``<sha>.corrupt``; never load it."""
        self.stats.corrupt += 1
        path = self.objects.path(sha)
        try:
            path.replace(path.with_name(f"{sha}.corrupt"))
        except OSError:
            pass

    def _read(self, fingerprint: str) -> Optional[bytes]:
        """The verified blob for ``fingerprint``, or ``None`` on a miss."""
        sha = self._sha(fingerprint)
        if sha is None:
            return None
        try:
            return self.objects.read(sha)
        except RegistryIntegrityError:
            self._quarantine(sha)
            return None

    def get(self, fingerprint: str) -> Optional[bytes]:
        """The stored payload bytes for ``fingerprint``, or ``None``.

        Counts a hit or miss — the coordinator's dedup effectiveness is
        exactly the hit rate of this method.
        """
        blob = self._read(fingerprint)
        if blob is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return blob

    def load(self, fingerprint: str, default: Any = None) -> Any:
        """The unpickled payload for ``fingerprint``, or ``default``.

        A blob that verifies but no longer unpickles (a class that no
        longer exists) is quarantined too, rather than missing forever.
        """
        blob = self.get(fingerprint)
        if blob is None:
            return default
        try:
            return pickle.loads(blob)
        except Exception:
            self._quarantine(self._index[fingerprint])
            return default

    def __contains__(self, fingerprint: str) -> bool:
        return self._read(fingerprint) is not None

    def __len__(self) -> int:
        return len(self._index)

    def blob_path(self, fingerprint: str) -> Optional[Path]:
        """The file holding ``fingerprint``'s blob, if it is indexed."""
        sha = self._sha(fingerprint)
        return None if sha is None else self.objects.path(sha)

    # -- writing -----------------------------------------------------------------

    def put(self, fingerprint: str, blob: bytes) -> str:
        """Store one result's payload bytes under its job fingerprint.

        Idempotent: re-putting an indexed payload appends nothing (and
        republishes its blob if it was quarantined).  A different
        payload for the same fingerprint appends a line that supersedes
        the old one.  Returns the payload's sha256 address.
        """
        sha = self.objects.put_bytes(blob)
        if self._index.get(fingerprint) != sha:
            self._append(fingerprint, sha)
            self.stats.stored += 1
        return sha

    def trim(self, max_entries: int) -> int:
        """Evict the oldest entries beyond ``max_entries``; returns how many.

        The shortened index is published before the blobs that no
        surviving entry references are deleted, so a kill in between
        leaves only orphan blobs.
        """
        self._refresh()
        excess = len(self._index) - max_entries
        if excess <= 0:
            return 0
        evicted = [self._index.pop(fp) for fp in list(self._index)[:excess]]
        self._rewrite()
        kept = set(self._index.values())
        for sha in set(evicted) - kept:
            self.objects.path(sha).unlink(missing_ok=True)
        return excess

    def clear(self) -> None:
        """Delete the index and every blob it names, quarantined ones too."""
        self._refresh()
        for sha in set(self._index.values()):
            path = self.objects.path(sha)
            path.unlink(missing_ok=True)
            path.with_name(f"{sha}.corrupt").unlink(missing_ok=True)
        self.index_path.unlink(missing_ok=True)
        self._index.clear()
        self._inode, self._offset = None, 0
