"""The observability layer: metrics, tracing, exporters, determinism.

Covers the contract the rest of the stack builds on: counter/histogram
semantics, the disabled-mode no-op fast path, JSONL round-trips, the
Chrome ``trace_event`` export shape, byte-identical traces across
identical seeded runs, and the machine-level ``telemetry=`` hook
threading events out of every instrumented layer.
"""

from __future__ import annotations

import json

import pytest

from repro.core import PollingCountermeasure
from repro.cpu import COMET_LAKE
from repro.errors import ConfigurationError
from repro.telemetry import (
    NULL_TELEMETRY,
    Counter,
    Histogram,
    Registry,
    Telemetry,
    TraceEvent,
    Tracer,
    events_from_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_trace,
)


class TestInstruments:
    def test_counter_semantics(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_gauge_holds_last_value(self):
        registry = Registry()
        gauge = registry.gauge("level")
        gauge.set(3.5)
        gauge.set(-1.0)
        assert gauge.value == -1.0

    def test_histogram_aggregates(self):
        hist = Histogram("lat")
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.values == (1.0, 3.0, 2.0)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 3.0

    def test_histogram_sample_cap_keeps_exact_aggregates(self):
        hist = Histogram("lat", max_samples=2)
        for value in range(10):
            hist.observe(float(value))
        assert hist.count == 10
        assert len(hist.values) == 2
        assert hist.max == 9.0

    def test_histogram_percentile_validation(self):
        hist = Histogram("lat")
        with pytest.raises(ConfigurationError):
            hist.percentile(50)  # empty
        hist.observe(1.0)
        with pytest.raises(ConfigurationError):
            hist.percentile(101)

    def test_registry_get_or_create_shares_instruments(self):
        registry = Registry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_registry_snapshot_and_render(self):
        registry = Registry()
        registry.counter("polls").inc(7)
        registry.histogram("turnaround").observe(1e-4)
        snap = registry.snapshot()
        assert snap["counters"]["polls"] == 7
        assert snap["histograms"]["turnaround"]["count"] == 1
        assert "polls" in registry.render()


class TestDisabledMode:
    def test_null_telemetry_instruments_are_noops(self):
        telemetry = Telemetry.disabled()
        counter = telemetry.registry.counter("anything")
        counter.inc(100)
        assert counter.value == 0
        hist = telemetry.registry.histogram("h")
        hist.observe(1.0)
        assert hist.count == 0
        gauge = telemetry.registry.gauge("g")
        gauge.set(5.0)
        assert gauge.value == 0.0

    def test_null_tracer_records_nothing(self):
        telemetry = Telemetry.disabled()
        telemetry.tracer.instant("x", "cat", 0.0)
        telemetry.tracer.complete("y", "cat", 0.0, 1.0)
        telemetry.tracer.counter_sample("z", "cat", 0.0, 1.0)
        assert len(telemetry.tracer.events) == 0
        assert telemetry.tracer.enabled is False

    def test_disabled_is_shared_singleton(self):
        assert Telemetry.disabled() is NULL_TELEMETRY

    def test_zero_event_ring_is_the_null_tracer(self):
        from repro.telemetry.events import NULL_TRACER

        telemetry = Telemetry(max_events=0)
        assert telemetry.tracer is NULL_TRACER
        assert telemetry.registry.enabled is True
        counter = telemetry.registry.counter("anything")
        counter.inc(3)
        assert counter.value == 3
        telemetry.tracer.instant("x", "cat", 0.0)
        assert len(telemetry.tracer.events) == 0

    def test_machine_default_is_disabled(self):
        from repro.testbench import Machine

        machine = Machine.build(COMET_LAKE, seed=1)
        assert machine.telemetry.enabled is False
        machine.write_voltage_offset(-50)
        machine.advance(2e-3)
        assert len(machine.telemetry.tracer.events) == 0


class TestTracer:
    def test_phases_and_filtering(self):
        tracer = Tracer()
        tracer.instant("a.b", "a", 1.0, track="t", k=1)
        tracer.complete("a.c", "a", 2.0, 0.5, track="t")
        tracer.counter_sample("v", "volt", 3.0, -50.0)
        assert [e.phase for e in tracer.events] == ["i", "X", "C"]
        assert len(tracer.events_by_category("a")) == 2
        assert tracer.events_by_name("a.b")[0].args_dict == {"k": 1}

    def test_args_are_key_sorted_for_determinism(self):
        tracer = Tracer()
        tracer.instant("e", "c", 0.0, zebra=1, apple=2)
        assert tracer.events[0].args == (("apple", 2), ("zebra", 1))


def _traced_run(seed: int = 29) -> Telemetry:
    """A short protected attack scenario touching every hot path."""
    from repro.core.characterization import CharacterizationFramework
    from repro.testbench import Machine

    unsafe = CharacterizationFramework(
        COMET_LAKE, seed=5
    ).run().unsafe_states
    telemetry = Telemetry()
    machine = Machine.build(COMET_LAKE, seed=seed, telemetry=telemetry)
    module = PollingCountermeasure(machine, unsafe)
    machine.modules.insmod(module)
    machine.set_frequency(2.0)
    machine.write_voltage_offset(-250)
    machine.advance(2e-3)
    machine.run_imul_window(iterations=100_000)
    return telemetry


@pytest.fixture(scope="module")
def traced() -> Telemetry:
    return _traced_run()


class TestMachineHook:
    def test_all_layers_emit(self, traced):
        categories = {e.category for e in traced.tracer.events}
        assert {"msr", "ocm", "regulator", "pstate", "countermeasure"} <= categories

    def test_msr_spans_carry_ioctl_latency(self, traced):
        reads = traced.tracer.events_by_name("msr.read")
        assert reads
        assert all(
            e.duration_s == pytest.approx(COMET_LAKE.msr_ioctl_latency_s)
            for e in reads
        )

    def test_regulator_ramp_has_direction_args(self, traced):
        ramps = traced.tracer.events_by_name("regulator.ramp")
        assert ramps
        first = ramps[0].args_dict
        assert {"plane", "from_mv", "to_mv"} <= set(first)

    def test_detection_and_remediation_recorded(self, traced):
        detections = traced.tracer.events_by_name("countermeasure.detection")
        remediations = traced.tracer.events_by_name("countermeasure.remediation")
        assert detections and remediations
        # Remediation spans start at their detection instant.
        assert remediations[0].time_s == detections[0].time_s

    def test_counters_match_polling_stats(self, traced):
        registry = traced.registry
        polls = registry.counter("countermeasure.polls").value
        checks = registry.counter("countermeasure.core_checks").value
        assert polls > 0
        assert checks == polls * COMET_LAKE.core_count
        assert registry.counter("countermeasure.detections").value >= 1
        assert registry.counter("msr.reads").value > 0
        assert registry.counter("sim.events_processed").value > 0

    def test_timestamps_are_sim_time_and_monotone_per_track(self, traced):
        events = traced.tracer.events
        assert all(e.time_s >= 0.0 for e in events)
        assert max(e.time_s for e in events) < 1.0  # a 2 ms scenario, not wall-clock


class TestExportRoundTrip:
    def test_jsonl_round_trip(self, traced):
        text = to_jsonl(traced.tracer.events)
        parsed = events_from_jsonl(text)
        assert parsed == list(traced.tracer.events)

    def test_jsonl_empty(self):
        assert to_jsonl([]) == ""
        assert events_from_jsonl("") == []

    def test_chrome_trace_shape(self, traced):
        document = json.loads(to_chrome_trace(traced.tracer.events))
        trace_events = document["traceEvents"]
        metadata = [e for e in trace_events if e["ph"] == "M"]
        spans = [e for e in trace_events if e["ph"] == "X"]
        assert metadata and spans
        # Microsecond timestamps: the 2 ms scenario spans ~2000 us.
        payload = [e for e in trace_events if e["ph"] != "M"]
        assert 100 < max(e["ts"] for e in payload) < 1e5
        # Every event's tid resolves to a named track.
        tids = {e["tid"] for e in metadata}
        assert all(e["tid"] in tids for e in payload)

    def test_write_trace_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_trace(tmp_path / "t.bin", [], fmt="protobuf")

    def test_write_trace_files(self, tmp_path, traced):
        jsonl = write_trace(tmp_path / "t.jsonl", traced.tracer.events, fmt="jsonl")
        chrome = write_trace(tmp_path / "t.json", traced.tracer.events, fmt="chrome")
        assert events_from_jsonl(jsonl.read_text())
        assert json.loads(chrome.read_text())["traceEvents"]


class TestDeterminism:
    def test_identical_runs_export_byte_identical_traces(self):
        first = _traced_run(seed=31)
        second = _traced_run(seed=31)
        assert to_jsonl(first.tracer.events) == to_jsonl(second.tracer.events)
        assert to_chrome_trace(first.tracer.events) == to_chrome_trace(
            second.tracer.events
        )
        assert json.dumps(first.registry.snapshot(), sort_keys=True) == json.dumps(
            second.registry.snapshot(), sort_keys=True
        )

    def test_telemetry_does_not_perturb_physics(self):
        # The instrumented and uninstrumented runs see identical timelines.
        from repro.testbench import Machine

        outcomes = []
        for telemetry in (None, Telemetry()):
            machine = Machine.build(COMET_LAKE, seed=77, telemetry=telemetry)
            machine.set_frequency(2.0)
            machine.write_voltage_offset(-90)
            machine.advance(2e-3)
            outcome = machine.run_imul_window(iterations=200_000)
            outcomes.append((outcome.fault_count, machine.now))
        assert outcomes[0] == outcomes[1]


class TestPollingStatsBackwardCompat:
    def test_standalone_stats_still_count(self):
        from repro.core.polling_module import PollingStats

        stats = PollingStats()
        stats.record_poll()
        stats.record_core_check()
        stats.record_detection()
        assert (stats.polls, stats.core_checks, stats.detections) == (1, 1, 1)

    def test_disabled_machine_stats_use_private_registry(self):
        from repro.core.characterization import CharacterizationFramework
        from repro.testbench import Machine

        unsafe = CharacterizationFramework(COMET_LAKE, seed=5).run().unsafe_states
        machine = Machine.build(COMET_LAKE, seed=3)  # telemetry disabled
        module = PollingCountermeasure(machine, unsafe)
        machine.modules.insmod(module)
        machine.advance(2e-3)
        assert module.stats.polls > 0  # counts survive disabled telemetry


class TestCLI:
    def test_trace_export_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        assert main(
            ["trace", "--cpu", "Comet Lake", "--export", "jsonl", "--out", str(out)]
        ) == 0
        events = events_from_jsonl(out.read_text())
        assert {"msr", "countermeasure"} <= {e.category for e in events}

    def test_trace_export_chrome(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        assert main(
            ["trace", "--cpu", "Comet Lake", "--export", "chrome", "--out", str(out)]
        ) == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert "perfetto" in capsys.readouterr().out

    def test_status_dumps_counters(self, capsys):
        from repro.cli import main

        assert main(["status", "--cpu", "Comet Lake"]) == 0
        out = capsys.readouterr().out
        assert "telemetry counters" in out
        assert "countermeasure.polls" in out

    def test_log_level_flag(self, capsys):
        import logging

        from repro.cli import main

        assert main(["--log-level", "warning", "list-cpus"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING


class TestHistogramExactAggregates:
    """PR-4 satellite: stddev + truncation-aware percentiles."""

    def test_stddev_matches_population_formula(self):
        hist = Histogram("lat")
        values = [1.0, 2.0, 4.0, 8.0]
        for value in values:
            hist.observe(value)
        mean = sum(values) / len(values)
        expected = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
        assert hist.stddev() == pytest.approx(expected)
        assert hist.sum_sq == pytest.approx(sum(v * v for v in values))

    def test_stddev_exact_despite_truncation(self):
        full = Histogram("full")
        capped = Histogram("capped", max_samples=3)
        for value in range(100):
            full.observe(float(value))
            capped.observe(float(value))
        assert capped.truncated
        assert not full.truncated
        assert capped.stddev() == pytest.approx(full.stddev())

    def test_stddev_empty_and_constant(self):
        hist = Histogram("lat")
        assert hist.stddev() == 0.0
        hist.observe(5.0)
        hist.observe(5.0)
        assert hist.stddev() == 0.0

    def test_truncated_percentile_extremes_fall_back_to_aggregates(self):
        hist = Histogram("lat", max_samples=2)
        for value in range(100):
            hist.observe(float(value))
        # The retained window is [0, 1] — without the fallback both
        # extremes would be silently wrong.
        assert hist.percentile(0) == 0.0
        assert hist.percentile(100) == 99.0

    def test_truncated_interior_percentile_clamped_into_min_max(self):
        hist = Histogram("lat", max_samples=4)
        for value in (10.0, 20.0, 30.0, 40.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.truncated
        for q in (25, 50, 75, 90):
            assert hist.min <= hist.percentile(q) <= hist.max

    def test_zero_window_uses_aggregates_only(self):
        hist = Histogram("lat", max_samples=0)
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 1.0
        assert hist.percentile(100) == 3.0

    def test_reset_clears_new_aggregates(self):
        hist = Histogram("lat", max_samples=1)
        hist.observe(2.0)
        hist.observe(4.0)
        hist.reset()
        assert hist.sum_sq == 0.0
        assert not hist.truncated

    def test_snapshot_carries_stddev_and_truncation(self):
        registry = Registry()
        hist = registry.histogram("turnaround", max_samples=1)
        hist.observe(1.0)
        hist.observe(3.0)
        stats = registry.snapshot()["histograms"]["turnaround"]
        assert stats["stddev"] == pytest.approx(1.0)
        assert stats["truncated"] is True

    def test_render_includes_percentile_columns(self):
        registry = Registry()
        registry.gauge("engine.progress.completed").set(3)
        hist = registry.histogram("turnaround")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        rendered = registry.render()
        assert "engine.progress.completed" in rendered
        for column in ("p50=", "p95=", "p99=", "stddev="):
            assert column in rendered
        assert "window truncated" not in rendered
        registry.histogram("tiny", max_samples=1).observe(1.0)
        registry.histogram("tiny").observe(2.0)
        assert "window truncated" in registry.render()


class TestJsonlFieldFidelity:
    """PR-4 satellite: round trips preserve every TraceEvent field."""

    def _events(self):
        tracer = Tracer()
        tracer.instant("fault.injected", "fault", 1.5e-3, track="faults", core=0)
        tracer.complete(
            "msr.write", "msr", 2.0e-3, 4.2e-6, track="core0",
            address=0x150, value=-150,
        )
        tracer.counter_sample("voltage.applied", "voltage", 3.0e-3, 0.81, track="core0")
        return tracer.events

    def test_round_trip_preserves_every_field_for_all_kinds(self):
        events = self._events()
        restored = events_from_jsonl(to_jsonl(events))
        assert tuple(restored) == events
        for original, back in zip(events, restored):
            for field in (
                "name", "category", "phase", "time_s", "duration_s", "track", "args"
            ):
                assert getattr(back, field) == getattr(original, field)

    def test_round_trip_survives_ring_tracer(self):
        tracer = Tracer(max_events=2)
        for index in range(5):
            tracer.instant("tick", "sim", float(index), track="sim", i=index)
        events = tracer.events
        assert len(events) == 2
        assert events[0].args_dict["i"] == 3
        assert tuple(events_from_jsonl(to_jsonl(events))) == events

    def test_flight_telemetry_is_bounded(self):
        telemetry = Telemetry(max_events=3)
        for index in range(10):
            telemetry.tracer.instant("tick", "sim", float(index))
        assert len(telemetry.tracer.events) == 3
        assert telemetry.tracer.events[-1].time_s == 9.0
