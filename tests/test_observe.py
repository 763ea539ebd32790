"""The observe layer: profiler, flight recorder, reports.

Three contracts under test:

* the sim-time profiler attributes dispatch-loop work per component and
  its collapsed-stack/speedscope artifacts are byte-identical across
  identical seeded runs (wall-clock strictly segregated);
* a failing job's trace ring is frozen into a replayable post-mortem
  named after the job (fuzz-case invariant violations and unhandled
  exceptions) — and the fuzz pipeline's dumps replay through the same
  entry point as shrunk artifacts;
* the engine run manifest records provenance (cache vs execution, seed
  paths, fingerprints) and renders to Markdown.
"""

from __future__ import annotations

import functools
import json
import pickle
from dataclasses import dataclass
from typing import Any, ClassVar, Tuple

import pytest

from repro.core import PollingCountermeasure
from repro.cpu import COMET_LAKE, ocm
from repro.engine import (
    EngineSession,
    FuzzJob,
    JobSpec,
    ResultCache,
    SerialExecutor,
    execute_job,
)
from repro.errors import ObserveError
from repro.kernel.sim import Simulator
from repro.observe import (
    SimProfiler,
    dump_job_failure,
    flight_dir_from_env,
    load_flight_dump,
    load_manifest,
    render_markdown,
    resolve_site,
)
from repro.observe.flight import (
    FLIGHT_CAPACITY,
    dump_job,
    job_dump_name,
    write_flight_dump,
)
from repro.telemetry import Telemetry
from repro.testbench import Machine
from repro.verify import FuzzSchedule, run_schedule, shrink_schedule


def _break_decode_sign(monkeypatch):
    """The PR-3 mutation: decode loses the two's-complement correction."""

    def broken(value: int) -> int:
        return (value >> ocm.OFFSET_SHIFT) & 0x7FF

    monkeypatch.setattr(ocm, "decode_offset_field", broken)


# ---------------------------------------------------------------------------
# SimProfiler
# ---------------------------------------------------------------------------


class TestProfilerLifecycle:
    def test_attach_detach(self):
        simulator = Simulator()
        profiler = SimProfiler().install(simulator)
        assert simulator.observers == (profiler,)
        profiler.uninstall()
        assert simulator.observers == ()
        profiler.uninstall()  # idempotent

    def test_second_profiler_sees_every_event_too(self):
        simulator = Simulator()
        first = SimProfiler().install(simulator)
        second = SimProfiler().install(simulator)
        simulator.schedule(1e-3, lambda: None)
        simulator.run()
        assert simulator.observers == (first, second)
        assert first.to_collapsed() == second.to_collapsed() != ""

    def test_install_accepts_machine(self):
        machine = Machine.build(COMET_LAKE, seed=1)
        profiler = SimProfiler().install(machine)
        assert profiler in machine.simulator.observers

    def test_no_profiler_means_no_hook_state(self):
        simulator = Simulator()
        simulator.schedule(1e-3, lambda: None)
        simulator.run()
        assert simulator.observers == ()


class TestProfilerAttribution:
    def test_plain_function_site(self):
        def tick():
            pass

        component, site = resolve_site(tick)
        assert site.endswith("tick")

    def test_partial_unwrapped(self):
        def tick(core):
            pass

        assert resolve_site(functools.partial(tick, 0)) == resolve_site(tick)

    def test_recurring_event_charged_to_callback(self):
        simulator = Simulator()
        fired = []
        recurring = simulator.schedule_recurring(1e-3, lambda: fired.append(1))
        profiler = SimProfiler().install(simulator)
        simulator.run_until(3.5e-3)
        profiler.uninstall()
        recurring.cancel()
        assert fired
        buckets = profiler.buckets()
        assert len(buckets) == 1
        # Charged to the lambda the timer re-arms, not RecurringEvent._fire.
        assert "_fire" not in buckets[0].site
        assert buckets[0].events == len(fired)

    def test_task_charged_by_name(self):
        simulator = Simulator()

        def body():
            yield 1e-3
            yield 1e-3

        simulator.spawn(body(), name="dvfs-thread")
        profiler = SimProfiler().install(simulator)
        simulator.run()
        profiler.uninstall()
        (bucket,) = profiler.buckets()
        assert bucket.component == "kernel.sim.task"
        assert bucket.site == "task:dvfs-thread"
        assert bucket.events == 3  # spawn step + two resumes

    def test_sim_time_attribution_sums_to_clock(self):
        simulator = Simulator()
        simulator.schedule(2e-3, lambda: None)
        simulator.schedule(5e-3, lambda: None)
        profiler = SimProfiler().install(simulator)
        simulator.run()
        total = sum(b.sim_time_s for b in profiler.buckets())
        assert total == pytest.approx(simulator.now)
        assert profiler.total_events == simulator.processed_events


class TestProfilerDeterminism:
    def _profiled_run(self, before=None, after=None):
        """One profiled scenario; ``before``/``after`` attach other
        observers before or after the profiler."""
        machine = Machine.build(COMET_LAKE, seed=7)
        if before is not None:
            before(machine)
        profiler = SimProfiler().install(machine)
        if after is not None:
            after(machine)
        machine.simulator.schedule_recurring(1e-4, lambda: None)
        machine.write_voltage_offset(-80)
        machine.advance(5e-3)
        profiler.uninstall()
        return machine, profiler

    def test_collapsed_and_speedscope_byte_identical(self):
        _, first = self._profiled_run()
        _, second = self._profiled_run()
        assert first.to_collapsed() == second.to_collapsed()
        assert first.to_speedscope() == second.to_speedscope()
        assert first.snapshot() == second.snapshot()

    def test_wall_time_segregated_from_artifacts(self):
        _, profiler = self._profiled_run()
        assert any(b.wall_time_s > 0.0 for b in profiler.buckets())
        assert "wall" not in profiler.to_speedscope()
        assert "wall" not in profiler.to_collapsed()
        assert "wall" not in json.dumps(profiler.snapshot())
        wall = profiler.wall_snapshot()
        assert wall["wall"] is True
        assert all("sim_time_s" not in b for b in wall["buckets"])

    @pytest.mark.parametrize("order", ["checker-first", "profiler-first"])
    def test_other_observers_leave_the_profile_unchanged(self, order):
        _, alone = self._profiled_run()
        installed = []

        def install_others(machine):
            machine.install_invariants()
            installed.append(machine)

        if order == "checker-first":
            machine, profiler = self._profiled_run(before=install_others)
        else:
            machine, profiler = self._profiled_run(after=install_others)
        assert installed == [machine]
        assert len(machine.simulator.observers) == 1  # profiler uninstalled
        assert machine.verifier.checks > 0
        assert profiler.to_collapsed() == alone.to_collapsed()

    def test_profiler_does_not_perturb_the_simulation(self):
        bare = Machine.build(COMET_LAKE, seed=9)
        bare.write_voltage_offset(-100)
        bare.advance(5e-3)
        profiled = Machine.build(COMET_LAKE, seed=9)
        SimProfiler().install(profiled)
        profiled.write_voltage_offset(-100)
        profiled.advance(5e-3)
        assert profiled.now == bare.now
        assert profiled.simulator.processed_events == bare.simulator.processed_events
        assert profiled.conditions(0).voltage_volts == bare.conditions(0).voltage_volts

    def test_speedscope_document_shape(self, tmp_path):
        _, profiler = self._profiled_run()
        path = profiler.write_speedscope(tmp_path / "out" / "p.json")
        document = json.loads(path.read_text())
        frames = document["shared"]["frames"]
        assert document["profiles"][0]["unit"] == "seconds"
        assert document["profiles"][1]["unit"] == "none"
        for profile in document["profiles"]:
            assert len(profile["samples"]) == len(profile["weights"])
            for stack in profile["samples"]:
                assert all(0 <= index < len(frames) for index in stack)

    def test_collapsed_weights_are_event_counts(self, tmp_path):
        _, profiler = self._profiled_run()
        path = profiler.write_collapsed(tmp_path / "stacks.txt")
        total = 0
        for line in path.read_text().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert ";" in stack
            total += int(weight)
        assert total == profiler.total_events


# ---------------------------------------------------------------------------
# Flight dumps
# ---------------------------------------------------------------------------


def _traced_machine(seed: int = 3) -> Machine:
    return Machine.build(COMET_LAKE, seed=seed, telemetry=Telemetry(max_events=64))


def _machine_dump(machine: Machine, path, reason: str = "manual"):
    """Freeze ``machine``'s trace ring the way a job dump does."""
    return write_flight_dump(
        path,
        reason,
        machine.telemetry.tracer.events[-8:],
        capacity=8,
        sim_time_s=machine.now,
        crash_count=machine.crash_count,
        machine=machine.spec_fingerprint(),
    )


class TestFlightDumps:
    def test_env_knob(self):
        assert flight_dir_from_env({}) is None
        assert flight_dir_from_env({"REPRO_FLIGHT_DIR": "  "}) is None
        assert str(flight_dir_from_env({"REPRO_FLIGHT_DIR": "dumps"})) == "dumps"

    def test_dump_round_trip(self, tmp_path):
        machine = _traced_machine()
        machine.write_voltage_offset(-50)
        machine.advance(2e-3)
        dump = load_flight_dump(_machine_dump(machine, tmp_path / "d.jsonl"))
        assert dump.reason == "manual"
        assert dump.header["machine"]["codename"] == COMET_LAKE.codename
        assert dump.header["machine"]["seed"] == 3
        assert dump.header["sim_time_s"] == machine.now
        assert len(dump.events) == dump.header["events"] <= 8
        assert tuple(dump.events) == machine.telemetry.tracer.events[-8:]

    def test_dump_is_deterministic(self, tmp_path):
        def produce(name):
            machine = _traced_machine(seed=5)
            machine.write_voltage_offset(-70)
            machine.advance(1e-3)
            return _machine_dump(machine, tmp_path / name).read_bytes()

        assert produce("a.jsonl") == produce("b.jsonl")

    def test_job_dump_keeps_the_ring_tail(self, tmp_path):
        machine = Machine.build(COMET_LAKE, seed=3, telemetry=Telemetry())
        for _ in range(100):
            machine.write_voltage_offset(-50)
            machine.advance(1e-3)
        events = machine.telemetry.tracer.events
        assert len(events) > FLIGHT_CAPACITY
        path = dump_job(_BoomJob(), "manual", machine.telemetry, dump_dir=tmp_path)
        assert path == tmp_path / job_dump_name(_BoomJob())
        dump = load_flight_dump(path)
        assert dump.header["capacity"] == FLIGHT_CAPACITY
        assert tuple(dump.events) == events[-FLIGHT_CAPACITY:]
        assert dump.header["sim_time_s"] == events[-1].time_s

    def test_install_invariants_returns_the_build_time_checker(self):
        machine = Machine.build(COMET_LAKE, seed=3, verify=True)
        checker = machine.verifier
        assert machine.install_invariants() is checker
        assert machine.install_invariants(checker) is checker
        assert machine.simulator.observers.count(checker) == 1

    def test_loader_rejects_garbage(self, tmp_path):
        with pytest.raises(ObserveError):
            load_flight_dump("")
        with pytest.raises(ObserveError):
            load_flight_dump('{"kind":"something-else"}\n')
        bad_schema = json.dumps({"kind": "flight-recorder", "schema": 99})
        with pytest.raises(ObserveError):
            load_flight_dump(bad_schema + "\n")
        path = tmp_path / "x.json"
        path.write_text("[]\n")
        with pytest.raises(ObserveError, match="not a flight-recorder dump"):
            load_flight_dump(path)

    def test_loader_rejects_a_truncated_event_line(self, tmp_path):
        machine = _traced_machine()
        machine.write_voltage_offset(-50)
        machine.advance(2e-3)
        text = _machine_dump(machine, tmp_path / "whole.jsonl").read_text()
        cut = text[: text.rindex("\n", 0, len(text) - 1) + 20]
        with pytest.raises(ObserveError, match="line"):
            load_flight_dump(cut)
        path = tmp_path / "cut.jsonl"
        path.write_text(cut)
        with pytest.raises(ObserveError, match="line"):
            load_flight_dump(path)

    def test_loader_rejects_a_missing_file(self, tmp_path):
        missing = tmp_path / "missing.jsonl"
        with pytest.raises(ObserveError, match="cannot read"):
            load_flight_dump(missing)
        with pytest.raises(ObserveError, match="cannot read"):
            load_flight_dump(str(missing))

    def test_dumps_are_renamed_into_place(self, tmp_path, monkeypatch):
        # A writer killed before the rename leaves only the temp file:
        # no reader ever sees a half-written dump under the real name.
        def killed(self, target):
            raise KeyboardInterrupt

        monkeypatch.setattr(type(tmp_path), "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            write_flight_dump(tmp_path / "d.jsonl", "manual")
        names = [entry.name for entry in tmp_path.iterdir()]
        assert len(names) == 1 and ".tmp." in names[0]
        assert not list(tmp_path.glob("*.jsonl"))

        monkeypatch.undo()
        path = write_flight_dump(tmp_path / "d.jsonl", "manual")
        assert load_flight_dump(path).reason == "manual"
        assert sorted(tmp_path.glob("*.jsonl")) == [path]


@dataclass(frozen=True)
class _BoomJob(JobSpec):
    """A job that traces one event and then dies unexpectedly."""

    kind: ClassVar[str] = "boom"

    seed: int = 0

    def seed_path(self) -> Tuple[str, ...]:
        return ("boom",)

    def run(self, telemetry: Any) -> Any:
        if telemetry.tracer is not None:
            telemetry.tracer.instant("boom.pre", "test", 1e-3, track="sim", step=1)
        raise RuntimeError("worker exploded")


class TestJobFailureDumps:
    def test_execute_job_dumps_on_unhandled_exception(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        job = _BoomJob()
        with pytest.raises(RuntimeError):
            execute_job(job)
        dumps = list(tmp_path.glob("job-*.flight.jsonl"))
        assert len(dumps) == 1
        dump = load_flight_dump(dumps[0])
        assert dump.reason == "unhandled-exception"
        assert dump.header["error"]["type"] == "RuntimeError"
        assert dump.header["context"]["job"]["kind"] == "boom"
        assert dump.header["context"]["job"]["fingerprint"] == job.fingerprint()
        assert dump.events[0].name == "boom.pre"

    def test_no_env_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
        assert dump_job_failure(_BoomJob(), Telemetry(), RuntimeError("x")) is None
        with pytest.raises(RuntimeError):
            execute_job(_BoomJob())

    def test_untraced_telemetry_gives_a_header_only_dump(self, tmp_path):
        path = dump_job_failure(
            _BoomJob(), Telemetry(max_events=0), RuntimeError("x"), dump_dir=tmp_path
        )
        dump = load_flight_dump(path)
        assert dump.header["events"] == 0
        assert dump.events == []
        assert dump.header["sim_time_s"] == 0.0

    def test_successful_jobs_leave_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        execute_job(FuzzJob(codename="Comet Lake", seed=0, case_index=0))
        assert list(tmp_path.glob("job-*.flight.jsonl")) == []


def _violating_job(case_index: int = 0) -> FuzzJob:
    """A case that trips ``ocm-roundtrip`` under the decode-sign mutation."""
    return FuzzJob(codename="Comet Lake", seed=0, case_index=case_index)


class TestFuzzFlightDumps:
    def test_violating_job_dumps_under_its_name_and_replays(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        job = _violating_job()
        summary = execute_job(job).payload
        assert summary["violation"] is not None
        assert summary["flight_dump"] == job_dump_name(job)
        assert [p.name for p in tmp_path.iterdir()] == [summary["flight_dump"]]
        dump = load_flight_dump(tmp_path / summary["flight_dump"])
        assert dump.reason == "invariant-violation"
        assert dump.header["capacity"] == FLIGHT_CAPACITY
        assert dump.header["machine"]["seed"] == job.schedule().machine_seed
        assert dump.header["crash_count"] == summary["crashes"]
        assert dump.header["sim_time_s"] == summary["sim_time_s"]
        violation = dict(dump.header["violation"])
        assert dict(violation, action_index=summary["violation"]["action_index"]) == (
            summary["violation"]
        )
        # The embedded schedule IS the replayable artifact.
        replayed = run_schedule(FuzzSchedule.from_dict(dump.schedule))
        assert replayed["violation"] == summary["violation"]

    def test_every_violating_case_keeps_its_own_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        jobs = [_violating_job(case) for case in range(4)]
        with EngineSession(executor=SerialExecutor()) as session:
            payloads = session.run_jobs(jobs, cache=False)
        assert all(payload["violation"] is not None for payload in payloads)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            job_dump_name(job) for job in jobs
        )
        assert not list(tmp_path.glob("flight-invariant-violation-*"))

    def test_violating_payload_does_not_depend_on_the_dump_dir(
        self, tmp_path, monkeypatch
    ):
        _break_decode_sign(monkeypatch)
        job = _violating_job(1)
        payloads = []
        for directory in (None, tmp_path / "a", tmp_path / "b"):
            if directory is None:
                monkeypatch.delenv("REPRO_FLIGHT_DIR", raising=False)
            else:
                monkeypatch.setenv("REPRO_FLIGHT_DIR", str(directory))
            payloads.append(pickle.dumps(execute_job(job).payload))
        assert payloads[0] == payloads[1] == payloads[2]
        assert (tmp_path / "a" / job_dump_name(job)).read_bytes() == (
            tmp_path / "b" / job_dump_name(job)
        ).read_bytes()

    def test_schedule_replays_and_shrinks_write_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        schedule = _violating_job().schedule()
        summary = run_schedule(schedule)
        assert summary["violation"] is not None
        assert summary["flight_dump"] is None
        shrunk = shrink_schedule(schedule)
        assert len(shrunk.actions) < len(schedule.actions)
        assert list(tmp_path.iterdir()) == []

    def test_clean_job_reports_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        summary = execute_job(
            FuzzJob(codename="Comet Lake", seed=0, case_index=1)
        ).payload
        assert summary["violation"] is None
        assert summary["flight_dump"] is None
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Run manifests + reports
# ---------------------------------------------------------------------------


class TestRunManifest:
    def _session_with_history(self) -> EngineSession:
        session = EngineSession(executor=SerialExecutor(), cache=ResultCache())
        jobs = [
            FuzzJob(codename="Comet Lake", seed=0, case_index=index)
            for index in range(2)
        ]
        session.run_jobs(jobs)
        session.run_jobs(jobs)  # second batch served from cache
        return session

    def test_manifest_shape_and_provenance(self):
        session = self._session_with_history()
        manifest = session.run_manifest()
        session.close()
        assert load_manifest(manifest) is manifest
        assert manifest["jobs"] == {
            "total": 4,
            "cached": 2,
            "executed": 2,
            "quarantined": 0,
            "remote": 0,
            "remote_cached": 0,
        }
        assert len(manifest["batches"]) == 2
        first, second = manifest["batches"]
        assert [job["cached"] for job in first["jobs"]] == [False, False]
        assert [job["cached"] for job in second["jobs"]] == [True, True]
        assert first["jobs"][0]["seed_path"] == ["fuzz", "Comet Lake", "case@0"]
        assert first["jobs"][0]["fingerprint"] == second["jobs"][0]["fingerprint"]
        assert "counters" in manifest["metrics"]

    def test_render(self):
        session = self._session_with_history()
        manifest = session.run_manifest()
        session.close()
        markdown = render_markdown(manifest)
        assert "# Campaign run report" in markdown
        assert "hit rate 50%" in markdown
        assert "`fuzz/Comet Lake/case@0`" in markdown
        assert "non-deterministic" in markdown  # wall_s clearly labelled

    def test_render_counts_remote_jobs_like_the_registry(self):
        """A fleet-executed job is executed and a fleet dedup hit is
        cached, as in the registry's runs row."""
        sources = ["remote"] * 6 + ["remote-cache"] * 4
        manifest = {
            "kind": "run-report",
            "schema": 3,
            "engine": {"executor": "remote", "workers": 1, "cache": {}},
            "jobs": {
                "total": 10, "cached": 0, "executed": 0, "quarantined": 0,
                "remote": 6, "remote_cached": 4,
            },
            "batches": [
                {
                    "wall_s": 0.5,
                    "jobs": [
                        {"kind": "fuzz", "fingerprint": f"{index:064x}",
                         "seed_path": ["fuzz"], "cached": False,
                         "source": source}
                        for index, source in enumerate(sources)
                    ],
                }
            ],
        }
        markdown = render_markdown(manifest)
        assert (
            "10 total, 6 executed, 4 served from cache (hit rate 40%)"
            in markdown
        )
        assert "| 0 | 10 | 6 | 4 | 0.5 |" in markdown

    def test_load_manifest_rejects_garbage(self):
        with pytest.raises(ObserveError):
            load_manifest({"kind": "nope"})
        with pytest.raises(ObserveError):
            load_manifest({"kind": "run-report", "schema": 99})
        with pytest.raises(ObserveError):
            load_manifest({"kind": "run-report", "schema": 2})


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCLI:
    def _run(self, capsys, argv):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_runs_show_renders_the_run_report(self, capsys, tmp_path):
        from repro.registry import RunRegistry

        registry = tmp_path / "registry"
        session = EngineSession(
            executor=SerialExecutor(),
            cache=ResultCache(),
            registry=RunRegistry(registry),
        )
        session.run_jobs([FuzzJob(codename="Comet Lake", seed=0, case_index=0)])
        run_id = session.record_run()
        session.close()
        code, out = self._run(
            capsys, ["runs", "show", run_id[:12], "--registry", str(registry)]
        )
        assert code == 0
        assert "# Campaign run report" in out
        assert "## Jobs" in out

    def _violation_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        summary = execute_job(_violating_job()).payload
        return tmp_path / summary["flight_dump"]

    def test_fuzz_replay_accepts_flight_dump(self, capsys, tmp_path, monkeypatch):
        path = self._violation_dump(tmp_path, monkeypatch)
        code, out = self._run(capsys, ["fuzz", "--replay", str(path)])
        assert code == 1
        assert "recorded violation" in out
        assert "replay reproduced" in out

    def test_fuzz_replay_rejects_a_truncated_dump(self, capsys, tmp_path):
        machine = _traced_machine()
        machine.write_voltage_offset(-50)
        machine.advance(2e-3)
        path = _machine_dump(machine, tmp_path / "d.jsonl")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        from repro.cli import main

        code = main(["fuzz", "--replay", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "is not a trace event" in err
        assert "Traceback" not in err

    def test_fuzz_replay_rejects_a_bare_schedule(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(_violating_job().schedule().to_dict(), indent=2))
        from repro.cli import main

        assert main(["fuzz", "--replay", str(path)]) == 2
        assert "flight dump header is not JSON" in capsys.readouterr().err

    def test_fuzz_replay_without_schedule(self, capsys, tmp_path):
        path = dump_job_failure(
            _BoomJob(), Telemetry(), RuntimeError("x"), dump_dir=tmp_path
        )
        code, out = self._run(capsys, ["fuzz", "--replay", str(path)])
        assert code == 2
        assert "no schedule" in out
