"""The observe layer: profiler, flight recorder, reports.

Three contracts under test:

* the sim-time profiler attributes dispatch-loop work per component and
  its collapsed-stack/speedscope artifacts are byte-identical across
  identical seeded runs (wall-clock strictly segregated);
* the flight recorder freezes a replayable post-mortem on invariant
  violations, machine checks and job failures — and the fuzz pipeline's
  dumps replay through the same entry points as shrunk artifacts;
* the engine run manifest records provenance (cache vs execution, seed
  paths, fingerprints) and renders to Markdown.
"""

from __future__ import annotations

import functools
import json
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
from repro.errors import InvariantViolation, ObserveError
from repro.kernel.sim import Simulator
from repro.observe import (
    FlightRecorder,
    SimProfiler,
    dump_job_failure,
    flight_dir_from_env,
    is_flight_dump,
    load_flight_dump,
    load_manifest,
    render_markdown,
    resolve_site,
)
from repro.telemetry import Telemetry
from repro.testbench import Machine
from repro.verify import FuzzSchedule, run_schedule, schedule_for_job


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
            FlightRecorder(machine)
            installed.append(machine)

        if order == "checker-first":
            machine, profiler = self._profiled_run(before=install_others)
        else:
            machine, profiler = self._profiled_run(after=install_others)
        assert installed == [machine]
        assert len(machine.simulator.observers) == 2  # profiler uninstalled
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
# FlightRecorder
# ---------------------------------------------------------------------------


def _traced_machine(seed: int = 3) -> Machine:
    return Machine.build(COMET_LAKE, seed=seed, telemetry=Telemetry(max_events=64))


class TestFlightRecorder:
    def test_env_knob(self):
        assert flight_dir_from_env({}) is None
        assert flight_dir_from_env({"REPRO_FLIGHT_DIR": "  "}) is None
        assert str(flight_dir_from_env({"REPRO_FLIGHT_DIR": "dumps"})) == "dumps"

    def test_dump_round_trip(self):
        machine = _traced_machine()
        recorder = FlightRecorder(machine, capacity=8)
        machine.write_voltage_offset(-50)
        machine.advance(2e-3)
        text = recorder.make_dump("manual")
        dump = load_flight_dump(text)
        assert dump.reason == "manual"
        assert dump.header["machine"]["codename"] == COMET_LAKE.codename
        assert dump.header["machine"]["seed"] == 3
        assert dump.header["sim_time_s"] == machine.now
        assert len(dump.events) == dump.header["events"] <= 8
        assert tuple(dump.events) == machine.telemetry.tracer.events[-8:]

    def test_dump_is_deterministic(self):
        def produce():
            machine = _traced_machine(seed=5)
            recorder = FlightRecorder(machine, capacity=16)
            machine.write_voltage_offset(-70)
            machine.advance(1e-3)
            return recorder.make_dump("manual")

        assert produce() == produce()

    def test_violation_dump_written(self, tmp_path, monkeypatch):
        _break_decode_sign(monkeypatch)
        machine = _traced_machine()
        recorder = FlightRecorder(machine, dump_dir=tmp_path)
        machine.install_invariants()
        with pytest.raises(InvariantViolation):
            machine.write_voltage_offset(-50)
        assert len(recorder.dump_paths) == 1
        dump = load_flight_dump(recorder.dump_paths[0])
        assert dump.reason == "invariant-violation"
        assert dump.header["violation"]["invariant"] == "ocm-roundtrip"

    def test_recorder_attached_after_checker_gets_violation_dump(self, monkeypatch):
        _break_decode_sign(monkeypatch)
        machine = _traced_machine()
        machine.install_invariants()
        recorder = FlightRecorder(machine)
        with pytest.raises(InvariantViolation):
            machine.write_voltage_offset(-50)
        assert recorder.last_dump is not None
        assert load_flight_dump(recorder.last_dump).reason == "invariant-violation"

    def test_install_invariants_returns_the_build_time_checker(self):
        machine = Machine.build(COMET_LAKE, seed=3, verify=True)
        checker = machine.verifier
        assert machine.install_invariants() is checker
        assert machine.install_invariants(checker) is checker
        assert machine.simulator.observers.count(checker) == 1

    def test_uninstalled_recorder_no_longer_dumps(self, tmp_path):
        machine = _traced_machine()
        recorder = FlightRecorder(machine, dump_dir=tmp_path, record_crashes=True)
        recorder.uninstall()
        machine.reboot()
        assert recorder.dump_paths == [] and recorder.last_dump is None
        assert recorder not in machine.simulator.observers

    def test_crash_dumps_are_opt_in(self, tmp_path):
        machine = _traced_machine()
        recorder = FlightRecorder(machine, dump_dir=tmp_path)
        machine.reboot()
        assert recorder.dump_paths == []
        recorder.record_crashes = True
        machine.reboot()
        assert len(recorder.dump_paths) == 1
        assert load_flight_dump(recorder.dump_paths[0]).reason == "machine-check"

    def test_max_dumps_cap(self, tmp_path):
        machine = _traced_machine()
        recorder = FlightRecorder(
            machine, dump_dir=tmp_path, record_crashes=True, max_dumps=2
        )
        for _ in range(5):
            machine.reboot()
        assert len(recorder.dump_paths) == 2
        assert recorder.last_dump is not None  # memory copy still current

    def test_no_dir_keeps_dump_in_memory(self):
        machine = _traced_machine()
        recorder = FlightRecorder(machine)
        recorder.record("unhandled-exception", error=RuntimeError("kaput"))
        assert recorder.dump_paths == []
        dump = load_flight_dump(recorder.last_dump)
        assert dump.header["error"] == {"type": "RuntimeError", "message": "kaput"}

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
        assert not is_flight_dump(path)
        assert not is_flight_dump(tmp_path / "missing.jsonl")


@dataclass(frozen=True)
class _BoomJob(JobSpec):
    """A job that traces one event and then dies unexpectedly."""

    kind: ClassVar[str] = "boom"

    seed: int = 0

    def seed_path(self) -> Tuple[str, ...]:
        return ("boom",)

    def run(self, telemetry: Any) -> Any:
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

    def test_successful_jobs_leave_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        execute_job(FuzzJob(codename="Comet Lake", seed=0, case_index=0))
        assert list(tmp_path.glob("job-*.flight.jsonl")) == []


class TestFuzzFlightDumps:
    def test_violating_schedule_dumps_and_replays(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        schedule = FuzzSchedule(
            codename="Comet Lake",
            machine_seed=1,
            actions=schedule_for_job(
                FuzzJob(codename="Comet Lake", seed=0, case_index=0)
            ).actions,
        )
        summary = run_schedule(schedule)
        assert summary["violation"] is not None
        assert summary["flight_dump"] is not None
        dump = load_flight_dump(summary["flight_dump"])
        assert dump.reason == "invariant-violation"
        assert dump.schedule is not None
        # The embedded schedule IS the replayable artifact.
        replayed = run_schedule(FuzzSchedule.from_dict(dump.schedule))
        assert replayed["violation"]["invariant"] == (
            summary["violation"]["invariant"]
        )

    def test_clean_schedule_reports_no_dump(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        summary = run_schedule(
            schedule_for_job(FuzzJob(codename="Comet Lake", seed=0, case_index=1))
        )
        assert summary["violation"] is None
        assert summary["flight_dump"] is None


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

    def test_progress_gauges_track_jobs(self):
        session = self._session_with_history()
        counters = {g.name: g.value for g in session.telemetry.registry.gauges()}
        assert counters["engine.progress.total"] == 4
        assert counters["engine.progress.completed"] == 4
        session.close()

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

    def test_fuzz_replay_accepts_flight_dump(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        summary = run_schedule(
            schedule_for_job(FuzzJob(codename="Comet Lake", seed=0, case_index=0))
        )
        assert summary["flight_dump"] is not None
        code, out = self._run(
            capsys, ["fuzz", "--replay", summary["flight_dump"]]
        )
        assert code == 1
        assert "replay reproduced" in out

    def test_fuzz_replay_describes_flight_dump(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        _break_decode_sign(monkeypatch)
        summary = run_schedule(
            schedule_for_job(FuzzJob(codename="Comet Lake", seed=0, case_index=0))
        )
        code, out = self._run(
            capsys, ["fuzz", "--replay", summary["flight_dump"]]
        )
        assert code == 1
        assert "recorded violation" in out
        assert "replay reproduced" in out

    def test_fuzz_replay_without_schedule(self, capsys, tmp_path):
        machine = _traced_machine()
        recorder = FlightRecorder(machine, dump_dir=tmp_path, record_crashes=True)
        machine.reboot()
        code, out = self._run(
            capsys, ["fuzz", "--replay", str(recorder.dump_paths[0])]
        )
        assert code == 2
        assert "no schedule" in out
