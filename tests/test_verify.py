"""Runtime invariant checker and adversarial-schedule fuzzer.

Two layers of confidence:

* the *clean* tests pin that the real substrate survives adversarial
  schedules with zero violations, deterministically;
* the *mutation* tests monkeypatch a deliberate bug into one layer at a
  time and assert the checker attributes it to the right invariant — and
  that ddmin shrinks the finding to a tiny replayable schedule.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.cpu import COMET_LAKE, PAPER_MODEL_TUPLE, SKY_LAKE
from repro.cpu import ocm
from repro.cpu.ocm import VoltagePlane
from repro.cpu.voltage_regulator import VoltageRegulator
from repro.core.polling_module import PollingCountermeasure
from repro.engine import EngineSession, FuzzJob, SerialExecutor, make_executor
from repro.errors import ConfigurationError, InvariantViolation, ReproError
from repro.faults.alu import FaultableALU
from repro.faults.margin import FaultModel
from repro.kernel.sim import SimObserver, Simulator
from repro.testbench import Machine
from repro.verify import (
    FuzzSchedule,
    InvariantChecker,
    SCHEDULE_SCHEMA_VERSION,
    run_schedule,
    schedule_for_job,
    shrink_schedule,
    verify_enabled_from_env,
)

CORE = VoltagePlane.CORE


def fuzz_job(codename: str = "Comet Lake", case_index: int = 0, **kwargs) -> FuzzJob:
    return FuzzJob(codename=codename, seed=0, case_index=case_index, **kwargs)


def checked_machine(seed: int = 11) -> Machine:
    machine = Machine.build(COMET_LAKE, seed=seed, verify=False)
    machine.install_invariants()
    return machine


class TestEnvKnob:
    def test_off_by_default(self):
        assert not verify_enabled_from_env({})

    @pytest.mark.parametrize("value", ["", "0", "false", "no", " FALSE "])
    def test_disabled_spellings(self, value):
        assert not verify_enabled_from_env({"REPRO_VERIFY": value})

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_enabled_spellings(self, value):
        assert verify_enabled_from_env({"REPRO_VERIFY": value})

    def test_machine_build_installs_checker_under_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        machine = Machine.build(COMET_LAKE, seed=3)
        assert isinstance(machine.verifier, InvariantChecker)

    def test_machine_build_default_has_no_observers(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        machine = Machine.build(COMET_LAKE, seed=3)
        assert machine.verifier is None
        assert machine.simulator.observers == ()


class TestCheckerLifecycle:
    def test_install_is_idempotent_per_machine(self):
        machine = Machine.build(COMET_LAKE, seed=3, verify=False)
        checker = InvariantChecker()
        assert checker.install(machine) is checker
        assert checker.install(machine) is checker

    def test_one_machine_per_checker(self):
        checker = InvariantChecker()
        checker.install(Machine.build(COMET_LAKE, seed=3, verify=False))
        with pytest.raises(ReproError):
            checker.install(Machine.build(COMET_LAKE, seed=4, verify=False))

    def test_uninstall_releases_all_hooks(self):
        machine = Machine.build(COMET_LAKE, seed=3, verify=False)
        checker = InvariantChecker().install(machine)
        checker.uninstall()
        assert checker not in machine.simulator.observers
        assert machine.simulator.observers == ()
        checker.install(Machine.build(COMET_LAKE, seed=4, verify=False))

    def test_checked_machine_behaves_identically(self):
        plain = Machine.build(COMET_LAKE, seed=9, verify=False)
        checked = Machine.build(COMET_LAKE, seed=9, verify=False)
        checked.install_invariants()
        for machine in (plain, checked):
            machine.write_voltage_offset(-80)
            machine.set_frequency(2.0)
            machine.advance(2e-3)
            machine.run_imul_window(0, iterations=10_000)
        assert plain.now == checked.now
        assert plain.conditions(0) == checked.conditions(0)


class _CountingObserver(SimObserver):
    """Counts every notification the checker also receives, by hook."""

    def __init__(self) -> None:
        self.calls = Counter()

    def after_step(self, simulator, event_time) -> None:
        self.calls["after_step"] += 1

    def after_run_until(self, simulator) -> None:
        self.calls["after_run_until"] += 1

    def on_ocm(self, phase, core_index, value, command, response) -> None:
        self.calls[f"ocm.{phase}"] += 1

    def on_regulator_request(self, regulator, plane, transition, now) -> None:
        self.calls["regulator"] += 1

    def on_fault_window(self, conditions, fault_count, crashed, instruction) -> None:
        self.calls["fault"] += 1


def _protected_run(machine: Machine, unsafe) -> None:
    """A fixed-seed protected run touching every notification site: the
    attacker's and the module's 0x150 writes, imul windows, a bulk
    exponentiation and single-instruction probes."""
    machine.modules.insmod(PollingCountermeasure(machine, unsafe))
    machine.set_frequency(2.0)
    for offset in (-250, -120, -60):
        machine.write_voltage_offset(offset)
        machine.advance(2e-3)
        machine.run_imul_window(0, iterations=200_000)
    alu = FaultableALU(
        injector=machine.injector, conditions_source=lambda: machine.conditions(0)
    )
    alu.modexp(5, (1 << 128) - 1, (1 << 128) - 159)
    for value in range(5):
        machine.injector.maybe_fault_value(machine.conditions(0), value)


class TestObserverNotifications:
    """The checker hears the machine through the simulator's observer
    tuple alone, exactly as any other attached observer does."""

    @pytest.mark.parametrize("shared_voltage_plane", [False, True])
    def test_checker_and_counter_receive_every_notification(
        self, comet_characterization, shared_voltage_plane
    ):
        machine = Machine.build(
            COMET_LAKE, seed=17, verify=False, shared_voltage_plane=shared_voltage_plane
        )
        counter = _CountingObserver()
        machine.simulator.attach(counter)
        checker = machine.install_invariants()
        _protected_run(machine, comet_characterization.unsafe_states)
        calls = counter.calls
        assert checker.checks == sum(calls.values())
        assert not checker.violations
        writes = calls["ocm.command"]
        assert writes >= 3 and calls["ocm.response"] == writes
        cores = COMET_LAKE.core_count if shared_voltage_plane else 1
        assert calls["regulator"] == cores * writes
        # 3 imul windows, the exponentiation's windows and 5 probes.
        assert calls["fault"] > 3 + 5

    def test_detached_checker_receives_nothing(self, comet_characterization):
        machine = Machine.build(COMET_LAKE, seed=17, verify=False)
        counter = _CountingObserver()
        machine.simulator.attach(counter)
        checker = machine.install_invariants()
        checker.uninstall()
        _protected_run(machine, comet_characterization.unsafe_states)
        assert checker.checks == 0
        assert {"ocm.command", "regulator", "fault", "after_step"} <= set(counter.calls)

    @pytest.mark.parametrize("shared_voltage_plane", [False, True])
    def test_protected_run_check_count_is_pinned(
        self, comet_characterization, shared_voltage_plane
    ):
        # Every OCM transaction, regulator request, fault window and
        # event-loop step of the fixed-seed run is checked exactly once,
        # so losing any notification moves the count.
        machine = Machine.build(
            COMET_LAKE, seed=17, verify=False, shared_voltage_plane=shared_voltage_plane
        )
        checker = machine.install_invariants()
        _protected_run(machine, comet_characterization.unsafe_states)
        assert not checker.violations
        assert checker.checks == PINNED_PROTECTED_RUN_CHECKS[shared_voltage_plane]


#: ``InvariantChecker.checks`` after ``_protected_run`` on Comet Lake,
#: seed 17, keyed by ``shared_voltage_plane``.
PINNED_PROTECTED_RUN_CHECKS = {False: 299, True: 317}


class TestCleanFuzzing:
    @pytest.mark.parametrize(
        "codename", [model.codename for model in PAPER_MODEL_TUPLE]
    )
    def test_schedules_run_clean_on_all_models(self, codename):
        for case in range(4):
            summary = run_schedule(fuzz_job(codename, case).schedule())
            assert summary["violation"] is None, summary["violation"]
            assert summary["checks"] > 0

    def test_module_actions_run_clean(self, comet_characterization):
        unsafe_json = json.dumps(
            comet_characterization.unsafe_states.to_dict(), sort_keys=True
        )
        for case in range(4):
            job = fuzz_job("Comet Lake", case, unsafe_json=unsafe_json)
            summary = run_schedule(job.schedule())
            assert summary["violation"] is None, summary["violation"]

    def test_schedule_generation_deterministic(self):
        job = fuzz_job(case_index=7)
        assert schedule_for_job(job).to_dict() == schedule_for_job(job).to_dict()

    def test_run_summary_deterministic(self):
        schedule = fuzz_job(case_index=3).schedule()
        assert run_schedule(schedule) == run_schedule(schedule)

    def test_different_cases_get_different_schedules(self):
        schedules = {
            json.dumps(fuzz_job(case_index=i).schedule().to_dict(), sort_keys=True)
            for i in range(6)
        }
        assert len(schedules) == 6


def _schedule_dump(schedule, path):
    """The schedule as a header-only flight dump, like ``fuzz --out``."""
    from repro.observe.flight import write_flight_dump

    return write_flight_dump(path, "manual", context={"schedule": schedule.to_dict()})


class TestScheduleArtifacts:
    def test_flight_dump_roundtrip_is_identity(self, tmp_path):
        from repro.observe import load_flight_dump

        schedule = fuzz_job(case_index=5).schedule()
        dump = load_flight_dump(_schedule_dump(schedule, tmp_path / "s.jsonl"))
        assert FuzzSchedule.from_dict(dump.schedule) == schedule

    def test_stale_schema_rejected(self):
        blob = fuzz_job().schedule().to_dict()
        blob["schema"] = SCHEDULE_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError):
            FuzzSchedule.from_dict(blob)

    def test_canonical_json_sorted_keys(self, tmp_path):
        path = _schedule_dump(fuzz_job().schedule(), tmp_path / "s.jsonl")
        (line,) = path.read_text().splitlines()
        parsed = json.loads(line)
        assert line == json.dumps(parsed, sort_keys=True, separators=(",", ":"))


def _break_decode_sign(monkeypatch):
    """The deliberate encoding bug of the acceptance mutation test:
    ``decode_offset_field`` loses the two's-complement sign correction, so
    every negative offset decodes to a large positive unit count."""

    def broken(value: int) -> int:
        return (value >> ocm.OFFSET_SHIFT) & 0x7FF

    monkeypatch.setattr(ocm, "decode_offset_field", broken)


def _first_violating_schedule(max_cases: int = 40):
    for case in range(max_cases):
        schedule = fuzz_job("Sky Lake", case).schedule()
        if run_schedule(schedule)["violation"] is not None:
            return schedule
    raise AssertionError("no fuzz case tripped the mutated substrate")


class TestMutationDetection:
    """Each test breaks one layer and expects the matching invariant."""

    def test_encoding_sign_bug_caught_and_shrunk(self, monkeypatch):
        _break_decode_sign(monkeypatch)
        schedule = _first_violating_schedule()
        violation = run_schedule(schedule)["violation"]
        assert violation["invariant"] == "ocm-roundtrip"
        shrunk = shrink_schedule(schedule)
        assert len(shrunk.actions) <= 10
        replayed = run_schedule(shrunk)["violation"]
        assert replayed is not None
        assert replayed["invariant"] == "ocm-roundtrip"

    def test_shrunk_artifact_replays_from_its_dump(self, monkeypatch, tmp_path):
        from repro.observe import load_flight_dump

        _break_decode_sign(monkeypatch)
        shrunk = shrink_schedule(_first_violating_schedule())
        dump = load_flight_dump(_schedule_dump(shrunk, tmp_path / "s.jsonl"))
        replayed = FuzzSchedule.from_dict(dump.schedule)
        assert run_schedule(replayed)["violation"] is not None

    def test_broken_purge_flags_heap_hygiene(self, monkeypatch):
        monkeypatch.setattr(Simulator, "prune", lambda self: None)
        machine = checked_machine()
        machine.simulator.schedule(3e-3, lambda: None)
        stranded = machine.simulator.schedule(5e-3, lambda: None)
        stranded.cancel()
        with pytest.raises(InvariantViolation) as excinfo:
            machine.advance(2e-3)
        assert excinfo.value.invariant == "heap-hygiene"

    def test_busy_response_flags_protocol(self, monkeypatch):
        original = ocm.encode_response
        monkeypatch.setattr(
            ocm,
            "encode_response",
            lambda units, plane: original(units, plane) | ocm.BUSY_BIT,
        )
        machine = checked_machine()
        with pytest.raises(InvariantViolation) as excinfo:
            machine.write_voltage_offset(-50)
        assert excinfo.value.invariant == "ocm-busy-bit"

    def test_instant_apply_flags_regulator_causality(self, monkeypatch):
        def instant(self, plane, now):
            transition = self._transitions.get(plane)
            return 0.0 if transition is None else transition.new_offset_mv

        monkeypatch.setattr(VoltageRegulator, "applied_offset_mv", instant)
        machine = checked_machine()
        with pytest.raises(InvariantViolation) as excinfo:
            machine.write_voltage_offset(-50)
        assert excinfo.value.invariant == "regulator-causality"

    def test_wrong_settle_time_flags_regulator_causality(self, monkeypatch):
        from repro.cpu import voltage_regulator as vr

        monkeypatch.setattr(
            vr._Transition,
            "settle_time",
            property(lambda self: self.request_time),
        )
        machine = checked_machine()
        with pytest.raises(InvariantViolation) as excinfo:
            machine.write_voltage_offset(-50)
        assert excinfo.value.invariant == "regulator-causality"

    def test_fault_in_safe_state_flags_physics(self, monkeypatch):
        monkeypatch.setattr(
            FaultModel,
            "fault_probability",
            lambda self, frequency_ghz, voltage_volts, instruction="imul": 1.0,
        )
        machine = checked_machine()
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run_imul_window(0, iterations=1_000)
        assert excinfo.value.invariant == "fault-safe-state"

    def test_violations_recorded_on_checker(self, monkeypatch):
        _break_decode_sign(monkeypatch)
        machine = checked_machine()
        with pytest.raises(InvariantViolation):
            machine.write_voltage_offset(-50)
        assert machine.verifier.violations
        record = machine.verifier.violations[0].to_dict()
        assert record["invariant"] == "ocm-roundtrip"
        assert json.dumps(record)  # JSON-safe for artifacts


class TestCounterConservation:
    def test_serial_batch_conserves_counters(self):
        checker = InvariantChecker()
        with EngineSession(executor=SerialExecutor(), verifier=checker) as session:
            session.run_jobs([fuzz_job(case_index=i) for i in range(3)], cache=False)
        assert checker.checks > 0
        assert not checker.violations

    def test_process_batch_conserves_counters(self):
        checker = InvariantChecker()
        executor = make_executor("process", workers=2)
        with EngineSession(executor=executor, verifier=checker) as session:
            session.run_jobs([fuzz_job(case_index=i) for i in range(2)], cache=False)
        assert checker.checks > 0
        assert not checker.violations

    def test_lost_increment_flagged(self):
        class Result:
            counters = {"sim.events_processed": 3}

        checker = InvariantChecker()
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_counter_conservation(
                {"sim.events_processed": 10},
                {"sim.events_processed": 11},
                [Result()],
            )
        assert excinfo.value.invariant == "counter-conservation"

    def test_engine_bookkeeping_exempt(self):
        checker = InvariantChecker()
        checker.check_counter_conservation(
            {"engine.cache_hits": 0}, {"engine.cache_hits": 5}, []
        )
        assert not checker.violations


class TestShrinking:
    def test_passing_schedule_rejected(self):
        with pytest.raises(ReproError):
            shrink_schedule(fuzz_job().schedule())

    def test_shrink_is_minimal_with_custom_predicate(self):
        schedule = fuzz_job(case_index=2, num_actions=16).schedule()
        target = schedule.actions[5]
        shrunk = shrink_schedule(
            schedule, is_failing=lambda candidate: target in candidate.actions
        )
        assert shrunk.actions == (target,)


class TestFuzzCLI:
    def _run(self, capsys, argv):
        from repro import cli

        code = cli.main(argv)
        return code, capsys.readouterr().out

    def test_fuzz_deterministic_across_invocations(self, capsys):
        argv = ["fuzz", "--seed", "0", "--budget", "6", "--no-module"]
        first = self._run(capsys, argv)
        second = self._run(capsys, argv)
        assert first == second
        assert first[0] == 0
        assert "no invariant violations" in first[1]

    def test_single_cpu_selection(self, capsys):
        code, out = self._run(
            capsys,
            ["fuzz", "--seed", "0", "--budget", "2", "--no-module", "--cpu", "Sky Lake"],
        )
        assert code == 0
        assert "Sky Lake" in out
        assert "Comet Lake" not in out

    def test_replay_clean_artifact(self, capsys, tmp_path):
        artifact = _schedule_dump(
            fuzz_job(case_index=1).schedule(), tmp_path / "case.flight.jsonl"
        )
        code, out = self._run(capsys, ["fuzz", "--replay", str(artifact)])
        assert code == 0
        assert "ran clean" in out

    def test_violation_writes_shrunk_artifact(self, capsys, tmp_path, monkeypatch):
        from repro.observe import load_flight_dump

        _break_decode_sign(monkeypatch)
        out_path = tmp_path / "repro.flight.jsonl"
        code, out = self._run(
            capsys,
            [
                "fuzz", "--seed", "0", "--budget", "12", "--no-module",
                "--cpu", "Sky Lake", "--out", str(out_path),
            ],
        )
        assert code == 1
        assert "INVARIANT VIOLATION" in out
        # The artifact is a header-only flight dump carrying the shrunk
        # schedule and its violation.
        artifact = load_flight_dump(out_path)
        assert artifact.reason == "invariant-violation"
        assert artifact.events == []
        assert artifact.header["violation"]["invariant"] == "ocm-roundtrip"
        assert len(artifact.schedule["actions"]) <= 10
        # The artifact replays: same violation, straight from disk.
        replayed = run_schedule(FuzzSchedule.from_dict(artifact.schedule))
        assert replayed["violation"] == artifact.header["violation"]
        code, out = self._run(capsys, ["fuzz", "--replay", str(out_path)])
        assert code == 1
        assert "replay reproduced" in out


class TestFinalSweep:
    def test_check_machine_accepts_idle_cancelled_entries(self):
        machine = checked_machine()
        event = machine.simulator.schedule(1e-3, lambda: None)
        event.cancel()
        machine.verifier.check_machine()  # no violation: audit prunes first

    def test_check_machine_needs_a_machine(self):
        with pytest.raises(ReproError):
            InvariantChecker().check_machine()
