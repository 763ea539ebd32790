"""One store contract for every on-disk result holder.

The engine's disk cache and the coordinator's dedup store both persist
results in the same :class:`~repro.registry.store.ResultStore`.  Each
case below runs once per holder, through the holder's own API, so they
cannot drift apart on what a torn blob, an orphan blob, a torn index
line or a concurrent writer means.  The ``session`` holder writes
through :class:`~repro.engine.EngineSession`'s per-job landing path —
the write a killed campaign resumes from — rather than ``cache.put``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import pytest

from repro.engine import EngineSession, ResultCache, SerialExecutor
from repro.engine.jobs import JobSpec
from repro.registry.store import ResultStore, encode_object
from repro.serve import Coordinator

MISS = object()


@dataclass
class Holder:
    """One result holder, seen through its own API."""

    put: Callable[[str, Any], None]
    get: Callable[[str], Any]
    contains: Callable[[str], bool]
    store: ResultStore
    corrupt: Callable[[], int]


def _cache(root) -> Holder:
    cache = ResultCache(directory=root)
    return Holder(
        put=cache.put,
        get=lambda fp: cache.get(fp, MISS),
        contains=cache.__contains__,
        store=cache.disk,
        corrupt=lambda: cache.stats.corrupt,
    )


@dataclass(frozen=True)
class _Landing(JobSpec):
    """A job whose fingerprint and payload are given outright."""

    kind: ClassVar[str] = "store-contract"

    key: str
    value: Any

    def fingerprint(self) -> str:
        return self.key

    def seed_path(self):
        return ("store-contract", self.key)

    def run(self, telemetry) -> Any:
        return self.value


def _session(root) -> Holder:
    session = EngineSession(
        executor=SerialExecutor(),
        cache=ResultCache(directory=root),
        registry=None,
    )
    cache = session.cache
    return Holder(
        put=lambda fp, value: session.run_jobs([_Landing(fp, value)]),
        get=lambda fp: cache.get(fp, MISS),
        contains=cache.__contains__,
        store=cache.disk,
        corrupt=lambda: cache.stats.corrupt,
    )


def _coordinator(root) -> Holder:
    store = Coordinator(root).store

    def get(fp):
        blob = store.get(fp)
        return MISS if blob is None else pickle.loads(blob)

    return Holder(
        put=lambda fp, value: store.put(fp, encode_object(value)),
        get=get,
        contains=store.__contains__,
        store=store,
        corrupt=lambda: store.stats.corrupt,
    )


@pytest.fixture(
    params=[_cache, _session, _coordinator],
    ids=["cache", "session", "coordinator"],
)
def make(request, tmp_path):
    return lambda: request.param(tmp_path / "store")


PAYLOAD = {"rows": [1, 2, 3], "label": "sky-lake"}


def test_round_trip_across_instances(make):
    make().put("f1", PAYLOAD)
    reader = make()
    assert reader.contains("f1")
    assert reader.get("f1") == PAYLOAD
    assert len(reader.store) == 1


def test_torn_blob_is_quarantined_then_recovered_by_reput(make):
    writer = make()
    writer.put("f1", PAYLOAD)
    blob = writer.store.blob_path("f1")
    blob.write_bytes(blob.read_bytes()[:7])

    reader = make()
    assert reader.get("f1") is MISS
    assert not reader.contains("f1")
    assert reader.corrupt() == 1
    assert not blob.exists()
    assert blob.with_name(blob.name + ".corrupt").exists()
    # Terminal: the quarantined blob is never counted or read again.
    assert reader.get("f1") is MISS
    assert reader.corrupt() == 1

    reader.put("f1", PAYLOAD)
    assert blob.exists()
    assert make().get("f1") == PAYLOAD


def test_orphan_blob_without_index_line_is_a_miss(make):
    # A kill between the blob publish and the index append.
    holder = make()
    holder.store.objects.put_bytes(encode_object(PAYLOAD))
    reader = make()
    assert reader.get("f1") is MISS
    assert not reader.contains("f1")
    assert reader.corrupt() == 0


def test_torn_index_tail_line_is_ignored(make):
    writer = make()
    writer.put("f1", PAYLOAD)
    with writer.store.index_path.open("ab") as handle:
        handle.write(b'{"fingerprint": "f2", "sha2')
    reader = make()
    assert reader.get("f1") == PAYLOAD
    assert reader.get("f2") is MISS
    assert len(reader.store) == 1
    # The next append seals the torn line off instead of gluing onto it.
    reader.put("f3", [3])
    fresh = make()
    assert fresh.get("f3") == [3]
    assert fresh.get("f1") == PAYLOAD
    assert len(fresh.store) == 2


def test_reader_opened_before_a_put_sees_the_entry(make):
    reader = make()
    assert reader.get("f1") is MISS
    make().put("f1", PAYLOAD)
    assert reader.contains("f1")
    assert reader.get("f1") == PAYLOAD
