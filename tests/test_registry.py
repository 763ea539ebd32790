"""The run registry: content-addressed store, recording, reproduce, diff.

The registry's core promise is the acceptance criterion of this layer:
a campaign recorded on one day can be re-executed from nothing but its
manifest and must reproduce every result blob byte-for-byte — and a
store that has been tampered with (even one flipped bit) must fail the
reproduction loudly, naming the job whose payload no longer matches.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import EngineSession, FuzzJob, SerialExecutor
from repro.engine.jobs import AttackCampaignJob
from repro.errors import RegistryError, RegistryIntegrityError
from repro.registry import (
    ObjectStore,
    RunRegistry,
    check_point,
    code_fingerprint,
    compute_run_id,
    diff_runs,
    encode_object,
    load_trajectory,
    make_point,
    record_point,
    reproduce_run,
    sha256_hex,
    write_trajectory,
)

CODENAMES = ("Sky Lake", "Kaby Lake R", "Comet Lake")


@pytest.fixture
def registry(tmp_path, monkeypatch) -> RunRegistry:
    """A fresh registry that is also the environment-selected one."""
    directory = tmp_path / "registry"
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(directory))
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)
    return RunRegistry(directory)


def _session(registry: RunRegistry) -> EngineSession:
    return EngineSession(executor=SerialExecutor(), registry=registry)


def _fuzz_jobs(count: int = 1):
    return [
        FuzzJob(codename=codename, seed=5, case_index=case, num_actions=5)
        for codename in CODENAMES
        for case in range(count)
    ]


def _record_fuzz_run(registry: RunRegistry) -> str:
    session = _session(registry)
    session.run_jobs(_fuzz_jobs())
    run_id = session.record_run()
    session.close()
    assert run_id is not None
    return run_id


class TestObjectStore:
    def test_round_trip_and_dedup(self, tmp_path):
        store = ObjectStore(tmp_path)
        sha = store.put_bytes(b"hello volt")
        assert store.get_bytes(sha) == b"hello volt"
        again = store.put_bytes(b"hello volt")
        assert again == sha
        assert store.stats.dedup_hits == 1
        count, size = store.census()
        assert count == 1 and size == len(b"hello volt")

    def test_read_verifies_content_hash(self, tmp_path):
        store = ObjectStore(tmp_path)
        sha = store.put_bytes(b"payload")
        path = next((tmp_path / "objects").rglob(sha))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RegistryIntegrityError) as excinfo:
            store.get_bytes(sha)
        assert excinfo.value.sha256 == sha

    def test_missing_object_raises(self, tmp_path):
        store = ObjectStore(tmp_path)
        with pytest.raises(RegistryIntegrityError):
            store.get_bytes("0" * 64)

    def test_orphaned_tmp_file_is_ignored(self, tmp_path):
        store = ObjectStore(tmp_path)
        sha = sha256_hex(b"payload")
        torn = tmp_path / "objects" / sha[:2] / f"{sha}.tmp.999"
        torn.parent.mkdir(parents=True)
        torn.write_bytes(b"pay")  # a write SIGKILL tore mid-stream
        assert store.put_bytes(b"payload") == sha
        assert store.get_bytes(sha) == b"payload"


class TestRunId:
    def test_deterministic_over_provenance(self):
        manifest = {
            "schema": 3,
            "code": {"version": "1.0.0", "describe": "abc"},
            "env": {"result_affecting": {"REPRO_VERIFY": ""}},
            "batches": [{"jobs": [{"kind": "fuzz", "fingerprint": "f" * 64}]}],
        }
        assert compute_run_id(manifest) == compute_run_id(dict(manifest))

    def test_ignores_wall_time_and_sources(self):
        base = {
            "schema": 3,
            "code": {"version": "1.0.0", "describe": None},
            "env": {"result_affecting": {}},
            "batches": [
                {
                    "wall_s": 1.0,
                    "jobs": [
                        {"kind": "fuzz", "fingerprint": "a" * 64, "source": "executed"}
                    ],
                }
            ],
        }
        other = json.loads(json.dumps(base))
        other["batches"][0]["wall_s"] = 99.0
        other["batches"][0]["jobs"][0]["source"] = "cache"
        assert compute_run_id(base) == compute_run_id(other)

    def test_splits_on_job_fingerprint(self):
        base = {
            "schema": 3,
            "code": {},
            "env": {"result_affecting": {}},
            "batches": [{"jobs": [{"kind": "fuzz", "fingerprint": "a" * 64}]}],
        }
        other = json.loads(json.dumps(base))
        other["batches"][0]["jobs"][0]["fingerprint"] = "b" * 64
        assert compute_run_id(base) != compute_run_id(other)

    def test_code_fingerprint_has_version(self):
        import repro

        code = code_fingerprint()
        assert code["version"] == repro.__version__


class TestSessionRecording:
    def test_session_records_automatically_on_close(self, registry):
        session = _session(registry)
        session.run_jobs(_fuzz_jobs())
        session.close()
        runs = registry.runs()
        assert len(runs) == 1
        assert runs[0]["status"] == "complete"
        assert runs[0]["jobs_total"] == len(CODENAMES)
        assert sorted(runs[0]["codenames"]) == sorted(CODENAMES)

    def test_recording_is_idempotent(self, registry):
        session = _session(registry)
        session.run_jobs(_fuzz_jobs())
        first = session.record_run()
        second = session.record_run()
        session.close()
        assert first == second
        assert len(registry.runs()) == 1

    def test_same_campaign_same_run_id(self, registry):
        assert _record_fuzz_run(registry) == _record_fuzz_run(registry)
        assert len(registry.runs()) == 1

    def test_opt_out_disables_recording(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY", "0")
        session = EngineSession(executor=SerialExecutor())
        assert session.registry is None
        session.run_jobs(_fuzz_jobs())
        assert session.record_run() is None
        session.close()

    def test_manifest_is_schema3_with_run_id(self, registry):
        session = _session(registry)
        session.run_jobs(_fuzz_jobs())
        manifest = session.run_manifest()
        session.close()
        assert manifest["schema"] == 3
        assert manifest["run_id"] == compute_run_id(manifest)
        assert manifest["code"]["version"]
        assert "REPRO_VERIFY" in manifest["env"]["result_affecting"]

    def test_stored_manifest_round_trips(self, registry):
        run_id = _record_fuzz_run(registry)
        manifest = registry.manifest(run_id)
        assert manifest["run_id"] == run_id
        assert manifest["schema"] == 3

    def test_filters(self, registry):
        run_id = _record_fuzz_run(registry)
        assert registry.runs(codename="Sky Lake")
        assert not registry.runs(codename="Alder Lake")
        assert registry.runs(status="complete")
        assert not registry.runs(status="quarantined")
        fingerprint = registry.results_for(run_id)[0]["fingerprint"]
        assert registry.runs(fingerprint=fingerprint[:16])
        assert registry.runs(since="2000-01-01")
        assert not registry.runs(since="2999-01-01")

    def test_resolve_prefix(self, registry):
        run_id = _record_fuzz_run(registry)
        assert registry.resolve(run_id[:8]) == run_id
        with pytest.raises(RegistryError):
            registry.resolve("zzz")


class TestReproduce:
    def test_byte_identity_across_all_three_models(self, registry):
        run_id = _record_fuzz_run(registry)
        report = reproduce_run(registry, run_id)
        assert report.ok
        assert report.counts() == {"identical": len(CODENAMES)}
        assert all(job.status == "identical" for job in report.jobs)

    def test_attack_campaign_jobs_reproduce(self, registry):
        session = _session(registry)
        session.run_jobs(
            [
                AttackCampaignJob(
                    codename="Sky Lake", attack="imul", protected=False, seed=5
                )
            ]
        )
        run_id = session.record_run()
        session.close()
        report = reproduce_run(registry, run_id)
        assert report.ok and report.counts() == {"identical": 1}

    def test_tampered_blob_fails_naming_the_job(self, registry):
        run_id = _record_fuzz_run(registry)
        victim = registry.results_for(run_id)[1]
        blob = next(
            (registry.directory / "objects").rglob(victim["payload_sha"])
        )
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0x01  # one flipped bit
        blob.write_bytes(bytes(data))
        report = reproduce_run(registry, run_id)
        assert not report.ok
        assert report.counts()["tampered"] == 1
        rendered = report.render()
        assert victim["fingerprint"][:12] in rendered

    def test_mismatched_payload_fails_with_per_job_diff(self, registry):
        run_id = _record_fuzz_run(registry)
        victim = registry.results_for(run_id)[0]
        # A valid object containing the *wrong* payload: the store's
        # integrity check passes, so reproduction must catch it by
        # re-executing and comparing bytes.
        wrong_sha = registry.store.put_bytes(encode_object({"wrong": True}))
        import sqlite3

        with sqlite3.connect(registry.directory / "index.sqlite") as db:
            db.execute(
                "UPDATE results SET payload_sha = ? WHERE run_id = ? "
                "AND fingerprint = ?",
                (wrong_sha, run_id, victim["fingerprint"]),
            )
        report = reproduce_run(registry, run_id)
        assert not report.ok
        assert report.counts()["mismatch"] == 1
        job = next(j for j in report.jobs if j.status == "mismatch")
        assert job.fingerprint == victim["fingerprint"]
        assert job.detail  # the per-job payload diff
        assert victim["fingerprint"][:12] in report.render()

    def test_cli_reproduce_exit_codes(self, registry, capsys):
        run_id = _record_fuzz_run(registry)
        assert main(["reproduce", run_id[:12]]) == 0
        out = capsys.readouterr().out
        assert "byte-for-byte" in out
        blob = next(
            (registry.directory / "objects").rglob(
                registry.results_for(run_id)[0]["payload_sha"]
            )
        )
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        assert main(["reproduce", run_id[:12]]) == 1

    def test_unknown_run_id_exits_2(self, registry, capsys):
        assert main(["reproduce", "feedfacefeed"]) == 2
        assert "no run matching" in capsys.readouterr().err


class TestCrashSafety:
    def test_sigkill_mid_commit_leaves_index_consistent(self, registry):
        """A SIGKILL inside the commit transaction must roll back cleanly."""
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            sys.path.insert(0, {str(Path("src").resolve())!r})
            from repro.registry.registry import RunRegistry

            registry = RunRegistry({str(registry.directory)!r})
            row = registry.stage_result(
                kind="fuzz",
                fingerprint="f" * 64,
                seed_path=["fuzz", "Sky Lake", "case@0"],
                source="executed",
                spec_bytes=b"spec-bytes",
                payload_bytes=b"payload-bytes",
            )
            db = registry._connect()
            db.execute("BEGIN")
            db.execute(
                "INSERT INTO runs (run_id, created_at, status, schema, "
                "manifest_sha, code_json, env_json, codenames_json, "
                "jobs_total, jobs_executed, jobs_cached, jobs_resumed, "
                "jobs_quarantined) VALUES (?, ?, ?, ?, ?, ?, ?, ?, 1, 1, 0, 0, 0)",
                ("a" * 64, "2026-01-01T00:00:00Z", "complete", 3,
                 row["spec_sha"], "{{}}", "{{}}", "[]"),
            )
            print("MID_TRANSACTION", flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=str(Path(__file__).resolve().parent.parent),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert "MID_TRANSACTION" in completed.stdout
        assert completed.returncode == -signal.SIGKILL
        # The uncommitted run row rolled back; staged blobs survive and
        # verify; the index accepts new work.
        assert registry.runs() == []
        count, _ = registry.store.census()
        assert count == 2  # spec + payload blobs, both valid orphans
        run_id = _record_fuzz_run(registry)
        assert reproduce_run(registry, run_id).ok

    def test_sigkill_before_commit_records_nothing(self, registry):
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            sys.path.insert(0, {str(Path("src").resolve())!r})
            os.environ["REPRO_REGISTRY_DIR"] = {str(registry.directory)!r}
            from repro.engine import EngineSession, FuzzJob, SerialExecutor

            session = EngineSession(executor=SerialExecutor())
            session.run_jobs(
                [FuzzJob(codename="Sky Lake", seed=5, case_index=0, num_actions=5)]
            )
            print("STAGED", flush=True)
            os.kill(os.getpid(), signal.SIGKILL)  # dies before record_run
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            cwd=str(Path(__file__).resolve().parent.parent),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert "STAGED" in completed.stdout
        assert registry.runs() == []
        count, _ = registry.store.census()
        assert count >= 2  # orphaned but valid staged blobs
        # The same campaign records fine afterwards and the orphans are
        # reused as cache hits at the store level (same content hash).
        session = _session(registry)
        session.run_jobs(
            [FuzzJob(codename="Sky Lake", seed=5, case_index=0, num_actions=5)]
        )
        assert session.record_run() is not None
        session.close()


class TestDiff:
    def test_identical_runs(self, registry, capsys):
        run_id = _record_fuzz_run(registry)
        diff = diff_runs(registry, run_id, run_id)
        assert diff.identical
        assert main(["diff", run_id[:12], run_id[:12]]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_spec_drift_names_the_changed_field(self, registry):
        run_a = _record_fuzz_run(registry)
        session = _session(registry)
        session.run_jobs(
            [
                FuzzJob(codename=codename, seed=7, case_index=0, num_actions=5)
                for codename in CODENAMES
            ]
        )
        run_b = session.record_run()
        session.close()
        diff = diff_runs(registry, run_a, run_b)
        assert not diff.identical
        assert diff.code_drift is None
        assert len(diff.spec_drift) == len(CODENAMES)
        assert all("seed" in d.changed_fields for d in diff.spec_drift)
        assert "seed" in diff.render()

    def test_env_drift_attributed_before_results(self, registry, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        run_a = _record_fuzz_run(registry)
        monkeypatch.setenv("REPRO_VERIFY", "1")
        run_b = _record_fuzz_run(registry)
        diff = diff_runs(registry, run_a, run_b)
        assert "REPRO_VERIFY" in diff.env_drift
        # The env change also re-fingerprints every spec (env is part of
        # job identity), and the identity comparison attributes that to
        # the env rung, not to opaque spec drift.
        assert diff.spec_drift
        assert all(d.changed_fields == ["env"] for d in diff.spec_drift)

    def test_composition_drift(self, registry):
        run_a = _record_fuzz_run(registry)
        session = _session(registry)
        session.run_jobs(_fuzz_jobs() + _fuzz_jobs(2)[3:])  # one extra case
        run_b = session.record_run()
        session.close()
        diff = diff_runs(registry, run_a, run_b)
        assert diff.only_in_b and not diff.only_in_a

    def test_cli_diff_json(self, registry, capsys):
        run_id = _record_fuzz_run(registry)
        assert main(["diff", run_id, run_id, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True


class TestTrajectory:
    def test_record_and_ratchet_check(self, registry, tmp_path):
        file = tmp_path / "BENCH_engine_campaign.json"
        for value in (2.0, 1.5, 1.8):
            record_point(
                make_point("engine_campaign", "serial_seconds", value),
                registry=registry,
                file=file,
            )
        assert len(registry.trajectory("engine_campaign")) == 3
        assert len(load_trajectory(file)) == 3
        baseline = load_trajectory(file)
        # The gate ratchets against the *best* point (1.5), not the last.
        ok = check_point(
            baseline,
            make_point("engine_campaign", "serial_seconds", 1.6),
            max_regress=0.10,
        )
        assert ok.ok and ok.baseline_best == 1.5
        regress = check_point(
            baseline,
            make_point("engine_campaign", "serial_seconds", 1.7),
            max_regress=0.10,
        )
        assert not regress.ok

    def test_higher_is_better_direction(self):
        baseline = [make_point("b", "speedup", 3.0, lower_is_better=False)]
        drop = check_point(
            baseline,
            make_point("b", "speedup", 2.0, lower_is_better=False),
            max_regress=0.25,
        )
        assert not drop.ok
        gain = check_point(
            baseline,
            make_point("b", "speedup", 3.5, lower_is_better=False),
            max_regress=0.25,
        )
        assert gain.ok

    def test_committed_baselines_are_nonempty_and_canonical(self):
        trajectories = Path(__file__).resolve().parent.parent / (
            "benchmarks/trajectories"
        )
        for name in ("BENCH_engine_campaign.json", "BENCH_telemetry_overhead.json"):
            path = trajectories / name
            points = load_trajectory(path)
            assert points, f"{name} must ship a non-empty baseline"
            canonical = json.dumps(points, sort_keys=True, indent=2) + "\n"
            assert path.read_text() == canonical, f"{name} is not canonical"
            assert all(
                isinstance(p["value"], float) and p["value"] > 0 for p in points
            )

    def test_synthetic_regression_fails_the_committed_gate(self, capsys):
        """The acceptance check: a 10x regression must fail the CI gate."""
        baseline = "benchmarks/trajectories/BENCH_engine_campaign.json"
        worst = max(p["value"] for p in load_trajectory(baseline))
        code = main(
            [
                "trajectory",
                "check",
                "engine_campaign",
                "--value",
                str(worst * 10),
                "--baseline",
                baseline,
                "--max-regress",
                "1.0",
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_cli_record_check_and_list(self, registry, tmp_path, capsys):
        file = tmp_path / "BENCH_demo.json"
        assert main(
            ["trajectory", "record", "demo", "--value", "2.0",
             "--metric", "wall_s", "--file", str(file)]
        ) == 0
        assert main(
            ["trajectory", "check", "demo", "--value", "2.1",
             "--baseline", str(file)]
        ) == 0
        assert main(
            ["trajectory", "check", "demo", "--value", "9.0",
             "--baseline", str(file)]
        ) == 1
        assert main(["trajectory", "list"]) == 0
        assert "demo" in capsys.readouterr().out

    def test_check_without_baseline_exits_2(self, tmp_path, capsys):
        code = main(
            ["trajectory", "check", "ghost", "--value", "1.0",
             "--baseline", str(tmp_path / "BENCH_ghost.json")]
        )
        assert code == 2
        assert "missing or empty" in capsys.readouterr().err

    def test_artifact_metric_extraction(self, registry, tmp_path, capsys):
        artifact = tmp_path / "bench.json"
        artifact.write_text(json.dumps({"serial_seconds": 1.25, "other": "x"}))
        assert main(
            ["trajectory", "record", "engine_campaign",
             "--from", str(artifact), "--metric", "serial_seconds"]
        ) == 0
        points = registry.trajectory("engine_campaign")
        assert points and points[-1]["value"] == 1.25


class TestCLIRunsAndStatus:
    def test_runs_list_show_and_porcelain(self, registry, capsys):
        run_id = _record_fuzz_run(registry)
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert run_id[:12] in out and "Sky Lake" in out
        assert main(["runs", "list", "--porcelain"]) == 0
        assert capsys.readouterr().out.strip() == run_id
        assert main(["runs", "list", "--cpu", "Alder Lake"]) == 0
        assert "no recorded runs" in capsys.readouterr().out
        assert main(["runs", "show", run_id[:10]]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "fuzz/Sky Lake/case@0" in out

    def test_runs_in_one_second_list_newest_first(self, registry, monkeypatch):
        monkeypatch.setattr(
            "repro.registry.registry._utc_now", lambda: "2026-01-01T00:00:00Z"
        )
        first = _record_fuzz_run(registry)
        session = _session(registry)
        session.run_jobs(_fuzz_jobs(2))
        second = session.record_run()
        session.close()
        assert second != first
        assert [run["run_id"] for run in registry.runs()] == [second, first]
        # Re-recording a run makes it the newest again.
        assert _record_fuzz_run(registry) == first
        assert [run["run_id"] for run in registry.runs()] == [first, second]

    def test_status_registry(self, registry, capsys):
        _record_fuzz_run(registry)
        record_point(
            make_point("engine_campaign", "serial_seconds", 1.0),
            registry=registry,
        )
        assert main(["status", "--registry"]) == 0
        out = capsys.readouterr().out
        assert "recorded runs" in out
        assert "dedup hit-rate" in out
        assert "engine_campaign" in out

    def test_registry_flag_overrides_env(self, registry, tmp_path, capsys):
        other = tmp_path / "other-registry"
        assert main(["runs", "list", "--registry", str(other)]) == 0
        assert "no recorded runs" in capsys.readouterr().out


class TestFlightRegistration:
    def test_dumps_are_recorded_with_hashes(self, registry, tmp_path, monkeypatch):
        from repro.observe.flight import dump_job_failure
        from repro.telemetry import Telemetry

        flight_dir = tmp_path / "flights"
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight_dir))
        session = _session(registry)
        jobs = _fuzz_jobs()
        session.run_jobs(jobs)
        # A failed attempt left a dump for a job that later succeeded —
        # exactly what a retry under supervision looks like.
        dump = dump_job_failure(
            jobs[0], Telemetry(), RuntimeError("injected"), dump_dir=flight_dir
        )
        run_id = session.record_run()
        session.close()
        flights = registry.flights_for(run_id)
        assert [f["path"] for f in flights] == [str(dump)]
        assert flights[0]["sha256"] == sha256_hex(dump.read_bytes())
        assert flights[0]["reason"] == "failed-attempt"

    def test_runs_show_lists_dumps_and_replay_accepts_run_id(
        self, registry, tmp_path, monkeypatch, capsys
    ):
        from repro.observe.flight import dump_job_failure
        from repro.telemetry import Telemetry

        flight_dir = tmp_path / "flights"
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(flight_dir))
        session = _session(registry)
        jobs = _fuzz_jobs()
        session.run_jobs(jobs)
        dump_job_failure(
            jobs[0], Telemetry(), RuntimeError("injected"), dump_dir=flight_dir
        )
        run_id = session.record_run()
        session.close()
        assert main(["runs", "show", run_id[:12]]) == 0
        assert "flight dumps:" in capsys.readouterr().out
        # `fuzz --replay <run-id>` resolves the run's recorded dumps;
        # this dump carries no schedule, which replay reports (exit 2)
        # after listing what it found.
        assert main(["fuzz", "--replay", run_id[:12]]) == 2
        out = capsys.readouterr().out
        assert "recorded flight dump(s)" in out

    def test_register_flight_api(self, registry, tmp_path):
        run_id = _record_fuzz_run(registry)
        dump = tmp_path / "manual.flight.jsonl"
        dump.write_text('{"kind":"flight-recorder"}\n')
        record = registry.register_flight(run_id, dump, reason="manual")
        assert record["sha256"] == sha256_hex(dump.read_bytes())
        assert registry.flights_for(run_id)[0]["reason"] == "manual"


class TestReportSchemas:
    def test_schema3_manifest_renders_provenance(self, registry):
        from repro.observe import render_markdown

        session = _session(registry)
        session.run_jobs(_fuzz_jobs())
        manifest = session.run_manifest()
        session.close()
        rendered = render_markdown(manifest)
        assert "## Provenance" in rendered
        assert manifest["run_id"] in rendered
        assert "Result-affecting environment" in rendered

    def test_describe_exposes_registry(self, registry):
        session = _session(registry)
        session.run_jobs(_fuzz_jobs())
        description = session.describe()
        session.close()
        assert description["registry"]["staged"] == len(CODENAMES)

    def test_registry_describe_counts(self, registry):
        _record_fuzz_run(registry)
        _record_fuzz_run(registry)  # same campaign: same run id, deduped
        info = registry.describe()
        assert info["runs"] == 1
        assert info["jobs"]["total"] == len(CODENAMES)
        assert info["objects"] > 0 and info["store_bytes"] > 0
