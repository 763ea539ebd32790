"""Content-addressed result cache for campaign jobs.

Keys are job fingerprints (sha256 of the canonical job identity, see
:meth:`repro.engine.jobs.JobSpec.fingerprint`); values are the job
payloads (``CharacterizationResult``, ``AttackOutcome``,
``OverheadReport`` — anything picklable).

Two layers:

* an in-process LRU dict with a hard ``max_entries`` bound — this is the
  replacement for the old module-global ``_CHARACTERIZATION_CACHE`` that
  leaked across tests and could never be cleared or bounded;
* an optional on-disk layer (``directory`` argument, or the
  ``REPRO_CACHE_DIR`` environment variable) that persists results across
  processes, so repeated CLI invocations share sweeps.  It is a
  :class:`repro.registry.store.ResultStore`, the one on-disk result
  format the coordinator uses too.  The engine session writes each
  result here as it lands, so the disk layer is also a campaign's
  checkpoint: a killed campaign rerun with the same directory serves
  every job that had finished.  A blob
  torn by a killed process (or by a chaos injection, see
  :class:`repro.engine.resilience.ChaosPolicy`) fails its sha256, is
  quarantined as ``<sha>.corrupt`` (counted in ``stats.corrupt``) and
  reads as a miss, so ``__contains__`` and :meth:`get` agree on exactly
  which entries exist.  ``max_disk_entries`` (or
  ``REPRO_CACHE_MAX_DISK``) bounds the layer, evicting the oldest index
  entries on ``put``.

A cache hit on the in-memory layer returns the *same object* — callers
that relied on ``characterization(model) is characterization(model)``
keep that identity.  Disk hits return an equal, freshly unpickled copy
and are promoted into memory.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.registry.store import ResultStore

#: Default in-memory entry bound, sized so one session's traffic fits.
#: Measured stores (seed 5): the paper reproduction 126, a 256-bit
#: open + protected explore pair 200 and a 1024-bit pair 754, all
#: executed once and never evicted.  An explore shard payload is under
#: 1 KB pickled; the largest payload, one CPU's folded
#: ``CharacterizationResult``, is 1.1-1.7 MB in memory (0.15-0.23 MB
#: pickled), and the paper reproduction holds three of them.
DEFAULT_MAX_ENTRIES = 1024

#: Environment variable naming the persistent cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the on-disk entry count.
CACHE_MAX_DISK_ENV = "REPRO_CACHE_MAX_DISK"

_SENTINEL = object()


@dataclass
class CacheStats:
    """Counters describing cache effectiveness for one session."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    stores: int = 0
    disk_evictions: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict:
        """JSON-safe dump for bench artifacts and ``repro campaign``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_evictions": self.disk_evictions,
            "corrupt": self.corrupt,
        }


@dataclass
class ResultCache:
    """Bounded LRU mapping job fingerprints to result payloads."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    directory: Optional[Union[str, Path]] = None
    max_disk_entries: Optional[int] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        if self.max_disk_entries is not None and self.max_disk_entries < 1:
            raise ConfigurationError("max_disk_entries must be at least 1")
        #: The disk tier, when the cache has a directory.
        self.disk: Optional["ResultStore"] = None
        if self.directory is not None:
            # The disk tier is the registry's result store; a memory-only
            # cache never loads repro.registry.
            from repro.registry.store import ResultStore

            self.directory = Path(self.directory)
            self.disk = ResultStore(self.directory)
        self._memory: "OrderedDict[str, Any]" = OrderedDict()

    @classmethod
    def from_env(cls, *, max_entries: int = DEFAULT_MAX_ENTRIES) -> "ResultCache":
        """A cache following ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_DISK``."""
        directory = os.environ.get(CACHE_DIR_ENV) or None
        max_disk: Optional[int] = None
        raw = os.environ.get(CACHE_MAX_DISK_ENV)
        if raw:
            try:
                max_disk = int(raw)
            except ValueError as error:
                raise ConfigurationError(
                    f"{CACHE_MAX_DISK_ENV} must be an integer, got {raw!r}"
                ) from error
        return cls(
            max_entries=max_entries, directory=directory, max_disk_entries=max_disk
        )

    # -- lookup ------------------------------------------------------------------

    def get(self, fingerprint: str, default: Any = None) -> Any:
        """The cached payload for a fingerprint, or ``default``."""
        value = self._memory.get(fingerprint, _SENTINEL)
        if value is not _SENTINEL:
            self._memory.move_to_end(fingerprint)
            self.stats.hits += 1
            return value
        if self.disk is not None:
            value = self.disk.load(fingerprint, _SENTINEL)
            self.stats.corrupt = self.disk.stats.corrupt
            if value is not _SENTINEL:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._store_memory(fingerprint, value)
                return value
        self.stats.misses += 1
        return default

    def __contains__(self, fingerprint: str) -> bool:
        if fingerprint in self._memory:
            return True
        if self.disk is None:
            return False
        # The disk tier verifies (and quarantines) rather than testing
        # bare existence, so ``in`` and get() agree on torn entries.
        found = fingerprint in self.disk
        self.stats.corrupt = self.disk.stats.corrupt
        return found

    def __len__(self) -> int:
        return len(self._memory)

    # -- storage ---------------------------------------------------------------

    def _store_memory(self, fingerprint: str, payload: Any) -> None:
        self._memory[fingerprint] = payload
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def put(self, fingerprint: str, payload: Any) -> None:
        """Store a payload under its fingerprint (memory + disk)."""
        self._store_memory(fingerprint, payload)
        self.stats.stores += 1
        if self.disk is None:
            return
        from repro.registry.store import encode_object

        self.disk.put(fingerprint, encode_object(payload))
        if self.max_disk_entries is not None:
            self.stats.disk_evictions += self.disk.trim(self.max_disk_entries)

    def clear(self) -> None:
        """Drop every entry, memory and disk (including quarantined blobs)."""
        self._memory.clear()
        if self.disk is not None:
            self.disk.clear()
