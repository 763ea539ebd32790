"""Engine-layer contract of the vectorized batch sweep path.

``BatchCharacterizationJob`` shards carry distinct fingerprints (their
own cache identity) but fold to the same ``CharacterizationResult`` as
the scalar row jobs.  The batch shards are the only path
``EngineSession.characterize`` takes; the row jobs are the oracle these
tests fold and compare against.
"""

from __future__ import annotations

import pickle

import pytest

from repro import experiments
from repro.core.characterization import (
    CharacterizationConfig,
    CharacterizationFramework,
)
from repro.cpu import COMET_LAKE, KABY_LAKE_R
from repro.engine import (
    BatchCharacterizationJob,
    CharacterizationJob,
    CharacterizationRowJob,
    EngineSession,
    ResultCache,
    SerialExecutor,
    execute_job,
)
from repro.engine.jobs import ROWS_PER_BATCH
from repro.errors import ConfigurationError, ReproError

#: Three-row sweep: enough to chunk, cheap enough for a unit test.
SMALL = CharacterizationConfig(
    offset_start_mv=-10,
    offset_stop_mv=-250,
    offset_step_mv=10,
    frequencies_ghz=(0.8, 2.0, 3.4),
)


def _sweep_job(codename=COMET_LAKE.codename, config=SMALL, seed=5):
    return CharacterizationJob(codename=codename, config=config, seed=seed)


class TestFingerprints:
    def test_batch_job_fingerprint_distinct_from_row_and_sweep(self):
        sweep = _sweep_job()
        row = sweep.row_jobs()[0]
        batch = sweep.batch_jobs()[0]
        prints = {sweep.fingerprint(), row.fingerprint(), batch.fingerprint()}
        assert len(prints) == 3

    def test_batch_job_fingerprint_sensitive_to_chunking(self):
        sweep = _sweep_job()
        whole = sweep.batch_jobs(rows_per_job=8)
        split = sweep.batch_jobs(rows_per_job=1)
        assert whole[0].fingerprint() not in {job.fingerprint() for job in split}

    def test_batch_job_seed_path_names_the_frequency_span(self):
        job = BatchCharacterizationJob(
            codename=COMET_LAKE.codename,
            frequencies_ghz=(0.8, 2.0, 3.4),
            config=SMALL,
            seed=5,
        )
        assert job.seed_path() == ("characterization", COMET_LAKE.codename, "batch@8-34")


class TestChunking:
    def test_batch_jobs_cover_every_frequency_in_order(self):
        sweep = _sweep_job(config=CharacterizationConfig())
        expected = CharacterizationConfig().frequency_list(COMET_LAKE)
        for rows_per_job in (1, 3, 8, 64):
            jobs = sweep.batch_jobs(rows_per_job=rows_per_job)
            covered = [f for job in jobs for f in job.frequencies_ghz]
            assert covered == expected
            assert all(
                len(job.frequencies_ghz) <= rows_per_job for job in jobs
            )

    def test_batch_jobs_reject_nonpositive_chunk(self):
        with pytest.raises(ConfigurationError):
            _sweep_job().batch_jobs(rows_per_job=0)

    def test_fold_is_chunking_invariant_and_matches_rows(self):
        """Per-row seed streams make the folded sweep independent of how
        rows are packed into batch jobs — and identical to the scalar
        row-job fold."""
        sweep = _sweep_job()
        scalar = sweep.fold([execute_job(job).payload for job in sweep.row_jobs()])
        folds = []
        for rows_per_job in (1, 2, 8):
            payloads = [
                execute_job(job).payload
                for job in sweep.batch_jobs(rows_per_job=rows_per_job)
            ]
            rows = [row for payload in payloads for row in payload]
            folds.append(sweep.fold(rows))
        for fold in folds:
            assert fold.cells == scalar.cells
            assert fold.crashes == scalar.crashes
            assert fold.unsafe_states.to_dict() == scalar.unsafe_states.to_dict()

    def test_batch_job_counters_match_scalar_row_jobs(self):
        """execute_job merges worker telemetry either way; the totals a
        batch shard reports must equal its rows' summed scalar counters."""
        sweep = _sweep_job(codename=KABY_LAKE_R.codename)
        scalar_totals: dict = {}
        for job in sweep.row_jobs():
            for name, value in execute_job(job).counters.items():
                scalar_totals[name] = scalar_totals.get(name, 0) + value
        batch_totals: dict = {}
        for job in sweep.batch_jobs(rows_per_job=2):
            for name, value in execute_job(job).counters.items():
                batch_totals[name] = batch_totals.get(name, 0) + value
        assert batch_totals == scalar_totals


#: Six shards of ``ROWS_PER_BATCH`` rows over Comet Lake's full F set.
MULTI_SHARD = CharacterizationConfig(
    offset_start_mv=-10, offset_stop_mv=-250, offset_step_mv=10
)


class TestRetiredKnobs:
    """The settings that once chose or shaped the sweep path are gone:
    their environment variables change nothing and ``batch=`` is no
    longer an accepted argument anywhere."""

    @pytest.mark.parametrize(
        "value", ["false", "no", "off", " OFF ", "1", "true", "on", "yes", ""]
    )
    def test_repro_batch_spellings_leave_shards_alone(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        session.characterize(COMET_LAKE, config=SMALL)
        assert session.counters()["engine.jobs_executed"] == len(
            _sweep_job().batch_jobs()
        )

    @pytest.mark.parametrize("value", ["1", "3", "0", "lots"])
    def test_repro_batch_rows_leaves_shard_size_alone(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH_ROWS", value)
        sweep = _sweep_job(config=MULTI_SHARD)
        assert all(
            len(job.frequencies_ghz) == ROWS_PER_BATCH
            for job in sweep.batch_jobs()[:-1]
        )
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        session.characterize(COMET_LAKE, config=MULTI_SHARD)
        assert session.counters()["engine.jobs_executed"] == len(sweep.batch_jobs())

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CharacterizationFramework(COMET_LAKE, config=SMALL).run(
                batch=True
            ),
            lambda: EngineSession(executor=SerialExecutor()).characterize(
                COMET_LAKE, config=SMALL, batch=False
            ),
            lambda: experiments.characterization(COMET_LAKE, batch=False),
            lambda: experiments.prevention_jobs(batch=False),
        ],
        ids=["framework-run", "session-characterize", "characterization", "prevention-jobs"],
    )
    def test_batch_argument_rejected(self, call):
        with pytest.raises(TypeError, match="batch"):
            call()


class TestSessionIntegration:
    def test_characterize_batch_matches_scalar(self):
        sweep = _sweep_job()
        scalar_session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        batch_session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        scalar = sweep.fold(scalar_session.run_jobs(sweep.row_jobs(), cache=False))
        batch = batch_session.characterize(COMET_LAKE, config=SMALL)
        assert scalar.cells == batch.cells
        assert pickle.dumps(scalar.cells) == pickle.dumps(batch.cells)
        assert scalar.unsafe_states.to_dict() == batch.unsafe_states.to_dict()
        # The merged fault counters agree too — only the job bookkeeping
        # (how many shards ran) may differ between the paths.
        scalar_counters = {
            k: v for k, v in scalar_session.counters().items() if k.startswith("faults.")
        }
        batch_counters = {
            k: v for k, v in batch_session.counters().items() if k.startswith("faults.")
        }
        assert scalar_counters == batch_counters

    def test_batch_runs_fewer_jobs_than_scalar(self):
        """The production sweep schedules one job per shard, fewer than
        the one-per-row oracle it replaced."""
        sweep = _sweep_job(config=MULTI_SHARD)
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        session.characterize(COMET_LAKE, config=MULTI_SHARD)
        executed = session.counters()["engine.jobs_executed"]
        assert executed == len(sweep.batch_jobs())
        assert executed < len(sweep.row_jobs())

    def test_cross_path_cache_identity(self):
        """The sweep-level cache slot is keyed by the sweep alone: an
        oracle row-job fold stored there is served verbatim, and the
        batch result lands in the same slot."""
        sweep = _sweep_job()
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        scalar = sweep.fold(session.run_jobs(sweep.row_jobs(), cache=False))
        session.cache.put(sweep.fingerprint(), scalar)
        served = session.characterize(COMET_LAKE, config=SMALL, seed=5)
        assert served is scalar
        assert session.counters()["engine.cache_hits"] == 1

        fresh = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        batch = fresh.characterize(COMET_LAKE, config=SMALL, seed=5)
        assert fresh.cache.get(sweep.fingerprint()) is batch
        assert pickle.dumps(batch.cells) == pickle.dumps(scalar.cells)

    def test_characterize_refuses_partial_batch_sweeps(self, monkeypatch):
        """A quarantined batch shard must fail the sweep loudly — a fold
        of partial rows would be silently wrong."""
        from repro.engine import RetryPolicy
        from repro.engine import jobs as jobs_module

        session = EngineSession(
            executor=SerialExecutor(policy=RetryPolicy(max_attempts=1, backoff_s=0.0)),
            cache=ResultCache(),
        )

        def sabotaged(self, telemetry):
            raise RuntimeError("sabotaged batch shard")

        monkeypatch.setattr(jobs_module.BatchCharacterizationJob, "run", sabotaged)
        with pytest.raises(ReproError, match="quarantine"):
            session.characterize(COMET_LAKE, config=SMALL)

    def test_characterize_ignores_repro_batch_env(self, monkeypatch):
        """No environment variable selects the scalar path: the sweep
        runs as batch shards even with the retired ``REPRO_BATCH=0``
        opt-out set."""
        monkeypatch.setenv("REPRO_BATCH", "0")
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        session.characterize(COMET_LAKE, config=SMALL)
        assert session.counters()["engine.jobs_executed"] == len(
            _sweep_job().batch_jobs()
        )
