"""The campaign engine: seed streams, job specs, cache, executors, session.

The engine's central contract is *executor interchangeability*: because
every job draws its randomness from a named seed stream keyed by its own
identity, sharding work across a process pool must reproduce the serial
output byte for byte.  The tests here pin that contract for all three
paper CPU models, plus the cache semantics (identity on hit, bounded
LRU, optional disk layer) and the per-worker telemetry merge.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.characterization import CharacterizationConfig
from repro.cpu import COMET_LAKE, KABY_LAKE_R, PAPER_MODEL_TUPLE, SKY_LAKE
from repro.engine import (
    ATTACK_KINDS,
    AttackCampaignJob,
    CharacterizationJob,
    CharacterizationRowJob,
    EngineSession,
    OverheadJob,
    ParallelExecutor,
    ResultCache,
    SeedStream,
    SerialExecutor,
    execute_job,
    executor_from_env,
    get_session,
    make_executor,
    seed_stream,
)
from repro.errors import ConfigurationError


COARSE = CharacterizationConfig(
    offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10
)


class TestSeedStreams:
    def test_same_path_same_seed(self):
        assert seed_stream(5, "a", "b").integer() == seed_stream(5, "a", "b").integer()

    def test_different_path_different_seed(self):
        values = {
            seed_stream(5).integer(),
            seed_stream(5, "a").integer(),
            seed_stream(5, "b").integer(),
            seed_stream(5, "a", "b").integer(),
            seed_stream(7, "a").integer(),
        }
        assert len(values) == 5

    def test_child_equals_flat_path(self):
        assert (
            seed_stream(5, "x").child("y", "z").integer()
            == seed_stream(5, "x", "y", "z").integer()
        )

    def test_root_stream_matches_plain_seedsequence(self):
        # The empty path must behave exactly like SeedSequence(root), so
        # code that used np.random.default_rng(seed) keeps its stream.
        ours = seed_stream(5).sequence.generate_state(4)
        plain = np.random.SeedSequence(5).generate_state(4)
        assert list(ours) == list(plain)

    def test_rng_reproducible(self):
        a = seed_stream(5, "noise").rng().normal(size=8)
        b = seed_stream(5, "noise").rng().normal(size=8)
        assert list(a) == list(b)

    def test_integer_fits_default_width(self):
        for name in ("a", "b", "c", "d"):
            value = seed_stream(5, name).integer()
            assert 0 <= value < 2**31

    def test_stream_is_value_like(self):
        assert seed_stream(5, "a") == seed_stream(5, "a")
        assert hash(SeedStream(5, ("a",))) == hash(SeedStream(5, ("a",)))


class TestJobSpecs:
    def test_jobs_hashable_and_equal_by_value(self):
        a = CharacterizationJob(codename="Comet Lake", config=COARSE, seed=5)
        b = CharacterizationJob(codename="Comet Lake", config=COARSE, seed=5)
        assert a == b
        assert hash(a) == hash(b)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_covers_every_field(self):
        base = CharacterizationJob(codename="Comet Lake", config=COARSE, seed=5)
        other_seed = CharacterizationJob(codename="Comet Lake", config=COARSE, seed=6)
        other_model = CharacterizationJob(codename="Sky Lake", config=COARSE, seed=5)
        other_config = CharacterizationJob(
            codename="Comet Lake", config=CharacterizationConfig(), seed=5
        )
        fingerprints = {
            j.fingerprint() for j in (base, other_seed, other_model, other_config)
        }
        assert len(fingerprints) == 4

    def test_fingerprints_differ_across_job_kinds(self):
        row = CharacterizationRowJob(
            codename="Comet Lake", frequency_ghz=2.0, config=COARSE, seed=5
        )
        sweep = CharacterizationJob(codename="Comet Lake", config=COARSE, seed=5)
        assert row.fingerprint() != sweep.fingerprint()

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError):
            AttackCampaignJob(
                codename="Comet Lake", attack="rowhammer", protected=False, seed=1
            )
        assert "rowhammer" not in ATTACK_KINDS

    def test_protected_job_requires_unsafe_set(self):
        with pytest.raises(ConfigurationError):
            AttackCampaignJob(
                codename="Comet Lake", attack="imul", protected=True, seed=1
            )

    def test_row_jobs_cover_every_frequency(self):
        sweep = CharacterizationJob(codename="Sky Lake", config=COARSE, seed=5)
        rows = sweep.row_jobs()
        assert [r.frequency_ghz for r in rows] == COARSE.frequency_list(SKY_LAKE)
        assert all(r.seed == 5 and r.codename == "Sky Lake" for r in rows)

    def test_execute_job_reports_counters(self):
        row = CharacterizationRowJob(
            codename="Comet Lake", frequency_ghz=2.0, config=COARSE, seed=5
        )
        result = execute_job(row)
        assert result.fingerprint == row.fingerprint()
        assert result.payload  # one CellResult per offset
        assert result.counters.get("faults.windows", 0) > 0


#: An unsafe-state set in ``UnsafeStateSet.to_dict()`` JSON for the pins.
PIN_UNSAFE = (
    '{"crash": {"20": [-150]}, "system": "Sky Lake", '
    '"unsafe": {"20": [-150, -140]}}'
)


def _pinned_jobs():
    """One instance of every JobSpec subclass, with nested dataclass,
    tuple and optional fields, and its fingerprint as recorded before
    identities were memoized and ``_canonical`` took its scalar fast
    path (``REPRO_VERIFY`` unset)."""
    from repro.engine import (
        BatchCharacterizationJob,
        ExploreInjectionJob,
        ExplorePointJob,
        FuzzJob,
    )

    config = CharacterizationConfig(
        repetitions=3, frequencies_ghz=(1.0, 2.5), offset_stop_mv=-120
    )
    return [
        (
            CharacterizationRowJob(
                codename="Sky Lake", frequency_ghz=2.5, config=config, seed=5
            ),
            "ef422c3800a0d92cdeee73ede3a2467078c38cd240865ce3b901be8f0c7cddb3",
        ),
        (
            BatchCharacterizationJob(
                codename="Kaby Lake R",
                frequencies_ghz=(1.0, 2.5),
                config=config,
                seed=5,
            ),
            "7fea99ddf0c3616b4d61ad09a26b7c28bfcf6f2a553151ebebefaf78bc1006d1",
        ),
        (
            CharacterizationJob(
                codename="Comet Lake", config=CharacterizationConfig(), seed=7
            ),
            "e26315cd68c0d1445b809a477f86cc69b1592ee88b02d35478294f9e22e0f520",
        ),
        (
            AttackCampaignJob(
                codename="Sky Lake",
                attack="plundervolt",
                protected=True,
                seed=11,
                unsafe_json=PIN_UNSAFE,
                offsets_mv=(-100, -150),
                frequency_ghz=2.0,
            ),
            "fe7471b7165c05137c21e6730820a3bd4c65fb66503a00a018b6125570f04cb2",
        ),
        (
            OverheadJob(codename="Sky Lake", seed=3, unsafe_json=PIN_UNSAFE),
            "e7ae00e0c458b5add6bbb9b12b62e96264ef061a8bdcfa539ad8af89b41af8de",
        ),
        (
            FuzzJob(
                codename="Sky Lake", seed=0, case_index=4, unsafe_json=PIN_UNSAFE
            ),
            "9e0d3675c7f48a0055872e7b8a50d7a6cb9b112c07c9f33256173c61548d9793",
        ),
        (
            ExplorePointJob(
                codename="Sky Lake",
                points=((2.0, -120), (3.2, -200)),
                protect=True,
                seed=5,
                unsafe_json=PIN_UNSAFE,
            ),
            "fb537554184cb1ea1eaad484e9a09a3fd2b753c3489afb91bf2d6e98a174d44d",
        ),
        (
            ExploreInjectionJob(
                key_bits=256,
                key_seed=42,
                message=0xDEADBEEF,
                reps=((0, "flip:0"), (17, "trunc64")),
                seed=5,
            ),
            "e58132847526106f3b84acb0cb2e3da9ec0f0ffe2eb70d10f7f212da8bcf6ae7",
        ),
    ]


class TestFingerprintPins:
    """Job fingerprints address the result cache and the run registry
    (run ids hash them), so they are pinned as literals."""

    @pytest.mark.parametrize(
        "index", range(8), ids=lambda i: type(_pinned_jobs()[i][0]).__name__
    )
    def test_fingerprint_is_pinned(self, index, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        job, expected = _pinned_jobs()[index]
        assert job.fingerprint() == expected
        # A fresh instance whose identity was walked first hashes the same.
        fresh, _ = _pinned_jobs()[index]
        fresh.identity()
        assert fresh.fingerprint() == expected

    def test_every_job_kind_is_pinned(self):
        from repro.engine.jobs import JobSpec

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        pinned = {type(job) for job, _ in _pinned_jobs()}
        shipped = {
            cls for cls in subclasses(JobSpec) if cls.__module__.startswith("repro.")
        }
        assert pinned == shipped

    def test_verify_knob_is_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        job, _ = _pinned_jobs()[-1]
        assert job.fingerprint() == (
            "18253d635d97e5785667b75f36a6c37e41634f1b03a83a16d79ec3bce95b62e9"
        )


class TestIdentityMemo:
    def _job(self):
        return CharacterizationJob(codename="Comet Lake", config=COARSE, seed=5)

    def test_identity_is_walked_once_per_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        job = self._job()
        first = job.identity()
        assert job.identity() is first
        monkeypatch.setenv("REPRO_VERIFY", "1")
        changed = job.identity()
        assert changed is not first
        assert changed["env"] == {"REPRO_VERIFY": "1"}
        assert {k: v for k, v in changed.items() if k != "env"} == {
            k: v for k, v in first.items() if k != "env"
        }

    def test_pickled_spec_leaves_the_identity_home(self):
        job = self._job()
        job.fingerprint()
        spec = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        job.identity()
        assert pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL) == spec
        clone = pickle.loads(spec)
        assert "_identity_memo" not in clone.__dict__
        assert clone.fingerprint() == job.fingerprint()
        assert clone.identity() == job.identity()


class TestResultCache:
    def test_memory_hit_preserves_identity(self):
        cache = ResultCache()
        payload = {"answer": 42}
        cache.put("f1", payload)
        assert cache.get("f1") is payload
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_returns_default(self):
        cache = ResultCache()
        sentinel = object()
        assert cache.get("absent", default=sentinel) is sentinel
        assert cache.stats.misses == 1

    def test_lru_eviction_bound(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes the LRU victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_clear_drops_everything(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.clear()
        assert "a" not in cache
        assert len(cache) == 0

    def test_disk_layer_survives_across_instances(self, tmp_path):
        first = ResultCache(directory=tmp_path)
        first.put("deadbeef", {"rows": [1, 2, 3]})
        second = ResultCache(directory=tmp_path)
        assert second.get("deadbeef") == {"rows": [1, 2, 3]}
        assert second.stats.disk_hits == 1

    def test_torn_disk_write_is_a_miss(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put("cafe", {"rows": [1]})
        writer.disk.blob_path("cafe").write_bytes(b"\x80\x04 not a pickle")
        cache = ResultCache(directory=tmp_path)
        assert cache.get("cafe", default="fallback") == "fallback"

    def test_contains_and_get_agree_on_torn_entry(self, tmp_path):
        """Regression: ``in`` used to test bare file existence, so a torn
        entry was reported present and then missed by ``get()``."""
        writer = ResultCache(directory=tmp_path)
        writer.put("feed", {"rows": [1]})
        entry = writer.disk.blob_path("feed")
        entry.write_bytes(entry.read_bytes()[:10])
        reader = ResultCache(directory=tmp_path)
        assert "feed" not in reader
        assert reader.get("feed", default="fallback") == "fallback"

    def test_torn_entry_quarantined_as_corrupt_file(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put("feed", {"rows": [1]})
        entry = writer.disk.blob_path("feed")
        entry.write_bytes(entry.read_bytes()[:10])
        reader = ResultCache(directory=tmp_path)
        reader.get("feed")
        assert not entry.exists()
        assert entry.with_name(entry.name + ".corrupt").exists()
        assert reader.stats.corrupt == 1
        # Quarantine is terminal: the entry never flaps back.
        assert reader.get("feed", default="gone") == "gone"
        assert reader.stats.corrupt == 1

    def test_flipped_payload_byte_fails_integrity(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put("feed", {"rows": [1, 2, 3]})
        entry = writer.disk.blob_path("feed")
        raw = bytearray(entry.read_bytes())
        raw[-1] ^= 0xFF
        entry.write_bytes(bytes(raw))
        reader = ResultCache(directory=tmp_path)
        assert reader.get("feed", default="fallback") == "fallback"
        assert reader.stats.corrupt == 1

    def test_disk_bound_evicts_oldest(self, tmp_path):
        cache = ResultCache(directory=tmp_path, max_disk_entries=2)
        for index, name in enumerate(("a", "b", "c", "d")):
            cache.put(name, index)
        reader = ResultCache(directory=tmp_path)
        survivors = [name for name in "abcd" if name in reader]
        assert survivors == ["c", "d"]
        assert len(reader.disk) == 2
        assert cache.stats.disk_evictions == 2
        # The evicted payloads' blobs are gone too, not just their lines.
        assert reader.disk.objects.census()[0] == 2

    def test_max_disk_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_MAX_DISK", "7")
        assert ResultCache.from_env().max_disk_entries == 7
        monkeypatch.setenv("REPRO_CACHE_MAX_DISK", "lots")
        with pytest.raises(ConfigurationError):
            ResultCache.from_env()

    def test_stats_dict_carries_integrity_fields(self):
        stats = ResultCache().stats.as_dict()
        assert "corrupt" in stats and "disk_evictions" in stats

    def test_clear_also_removes_disk_entries(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("a", 1)
        cache.clear()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert "a" not in ResultCache(directory=tmp_path)

    def test_clear_also_removes_quarantined_entries(self, tmp_path):
        writer = ResultCache(directory=tmp_path)
        writer.put("a", 1)
        entry = writer.disk.blob_path("a")
        entry.write_bytes(entry.read_bytes()[:-1])
        cache = ResultCache(directory=tmp_path)
        assert "a" not in cache  # quarantines the torn blob...
        assert list(tmp_path.rglob("*.corrupt"))
        cache.clear()
        assert list(tmp_path.rglob("*.corrupt")) == []  # ...then removes it

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=0)
        with pytest.raises(ConfigurationError):
            ResultCache(max_disk_entries=0)


class TestExecutorSelection:
    def test_make_executor_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        parallel = make_executor("process", workers=3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3
        with pytest.raises(ConfigurationError):
            make_executor("threads")

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=0)

    def test_env_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(executor_from_env(), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        executor = executor_from_env()
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 2

    def test_env_bad_workers_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            executor_from_env()


@pytest.fixture(scope="module")
def pool_session():
    """One shared two-worker process-pool session for the parity tests."""
    session = EngineSession(executor=ParallelExecutor(2), cache=ResultCache())
    yield session
    session.close()


class TestSerialParallelParity:
    @pytest.mark.parametrize(
        "model", PAPER_MODEL_TUPLE, ids=lambda m: m.codename
    )
    def test_characterization_byte_identical(self, model, pool_session):
        serial = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        a = serial.characterize(model, seed=5, config=COARSE)
        b = pool_session.characterize(model, seed=5, config=COARSE)
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_campaign_outcomes_byte_identical(self, pool_session):
        jobs = [
            AttackCampaignJob(
                codename=COMET_LAKE.codename,
                attack=attack,
                protected=False,
                seed=11,
                frequency_ghz=COMET_LAKE.frequency_table.base_ghz,
            )
            for attack in ("imul", "plundervolt", "v0ltpwn")
        ]
        serial = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        a = serial.run_jobs(jobs, cache=False)
        b = pool_session.run_jobs(jobs, cache=False)
        # Compare per item: whole-list pickles differ by memoized-string
        # references, not by content.
        for left, right in zip(a, b):
            assert pickle.dumps(left) == pickle.dumps(right)

    def test_worker_counters_match_serial(self, pool_session):
        jobs = CharacterizationJob(
            codename=KABY_LAKE_R.codename, config=COARSE, seed=5
        ).row_jobs()
        serial = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        serial.run_jobs(jobs, cache=False)
        parallel = EngineSession(
            executor=pool_session.executor, cache=ResultCache()
        )
        parallel.run_jobs(jobs, cache=False)
        serial_counters = serial.counters()
        parallel_counters = parallel.counters()
        assert serial_counters["faults.windows"] > 0
        for name in ("faults.windows", "faults.injected", "engine.jobs_executed"):
            assert serial_counters.get(name) == parallel_counters.get(name), name


class TestEngineSession:
    def test_characterize_cached_identity(self):
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        a = session.characterize(SKY_LAKE, seed=5, config=COARSE)
        b = session.characterize(SKY_LAKE, seed=5, config=COARSE)
        assert a is b
        assert session.cache.stats.hits == 1

    def test_cache_invalidation_on_seed_change(self):
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        a = session.characterize(SKY_LAKE, seed=5, config=COARSE)
        b = session.characterize(SKY_LAKE, seed=6, config=COARSE)
        assert a is not b
        assert session.cache.stats.misses == 2

    def test_clear_cache_forces_recompute(self):
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        a = session.characterize(SKY_LAKE, seed=5, config=COARSE)
        session.clear_cache()
        b = session.characterize(SKY_LAKE, seed=5, config=COARSE)
        assert a is not b
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_run_jobs_preserves_input_order_with_mixed_hits(self):
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        jobs = [
            CharacterizationRowJob(
                codename=COMET_LAKE.codename, frequency_ghz=f, config=COARSE, seed=5
            )
            for f in COARSE.frequency_list(COMET_LAKE)[:3]
        ]
        first = session.run_jobs(jobs)
        # Warm cache for job 0 and 2 only; job 1 recomputes.
        session.cache._memory.pop(jobs[1].fingerprint())
        second = session.run_jobs(jobs)
        assert second[0] is first[0] and second[2] is first[2]
        assert pickle.dumps(second[1]) == pickle.dumps(first[1])

    def test_describe_is_json_safe(self):
        import json

        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        payload = json.dumps(session.describe())
        assert "serial" in payload

    def test_overhead_job_through_session(self, comet_characterization):
        import json

        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        job = OverheadJob(
            codename=COMET_LAKE.codename,
            seed=3,
            unsafe_json=json.dumps(
                comet_characterization.unsafe_states.to_dict(), sort_keys=True
            ),
        )
        report = session.run_job(job)
        assert len(report.rows) == 23
        assert 0.0 < report.mean_base_overhead < 0.02
        # Second submission is a cache hit: same object.
        assert session.run_job(job) is report

    def test_default_session_is_shared(self):
        assert get_session() is get_session()


class TestExperimentIntegration:
    def test_characterization_identity_via_api(self):
        from repro.experiments import characterization

        assert characterization(COMET_LAKE) is characterization(COMET_LAKE)

    def test_prevention_jobs_are_self_contained(self):
        from repro.experiments import prevention_jobs

        jobs = prevention_jobs(include_aes=True)
        # 3 CPUs x 2 defense states x 3 attacks, +2 AES cells on Comet Lake.
        assert len(jobs) == 20
        for job in jobs:
            if job.protected:
                assert job.unsafe_json is not None
            # Every job must survive the process-pool boundary.
            assert pickle.loads(pickle.dumps(job)) == job

    def test_prevention_jobs_reject_a_non_paper_cpu(self):
        from repro.experiments import prevention_jobs

        with pytest.raises(ConfigurationError, match="Sky Lake, Kaby Lake R, Comet Lake"):
            prevention_jobs(codename="Ice Lake")
        assert {job.codename for job in prevention_jobs(codename="Sky Lake")} == {
            "Sky Lake"
        }

    def test_environment_defaults_are_serial(self):
        if os.environ.get("REPRO_EXECUTOR", "serial") == "serial":
            assert isinstance(get_session().executor, (SerialExecutor, ParallelExecutor))


class TestEnvironmentFingerprint:
    """Result-affecting REPRO_* knobs are part of every job identity."""

    def _job(self):
        return CharacterizationJob(codename="Comet Lake", config=COARSE, seed=5)

    def test_repro_verify_changes_fingerprint(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        baseline = self._job().fingerprint()
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert self._job().fingerprint() != baseline

    def test_unset_and_empty_are_one_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        baseline = self._job().fingerprint()
        monkeypatch.setenv("REPRO_VERIFY", "")
        assert self._job().fingerprint() == baseline

    def test_changed_knob_misses_the_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        cache = ResultCache(max_entries=8)
        job = self._job()
        cache.put(job.fingerprint(), "payload")
        assert cache.get(job.fingerprint()) == "payload"
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert cache.get(self._job().fingerprint()) is None

    def test_executor_knobs_deliberately_excluded(self, monkeypatch):
        # The parity contract says the executor cannot change results, so
        # REPRO_EXECUTOR/REPRO_WORKERS must not fragment the cache.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        baseline = self._job().fingerprint()
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert self._job().fingerprint() == baseline

    def test_identity_carries_env_section(self):
        from repro.engine import RESULT_AFFECTING_ENV, environment_fingerprint

        identity = self._job().identity()
        assert identity["env"] == environment_fingerprint()
        assert set(identity["env"]) == set(RESULT_AFFECTING_ENV)


class TestFuzzJobs:
    def _job(self, case_index: int = 0):
        from repro.engine import FuzzJob

        return FuzzJob(codename="Sky Lake", seed=0, case_index=case_index)

    def test_fingerprint_covers_case_index(self):
        assert self._job(0).fingerprint() != self._job(1).fingerprint()

    def test_schedule_regenerates_identically(self):
        assert self._job().schedule() == self._job().schedule()

    def test_execute_job_reports_counters(self):
        result = execute_job(self._job())
        assert result.payload["violation"] is None
        assert result.counters, "worker reported no telemetry increments"
        assert all(value > 0 for value in result.counters.values())

    def test_picklable_for_process_pool(self):
        job = self._job()
        assert pickle.loads(pickle.dumps(job)) == job
