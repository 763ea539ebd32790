"""Smoke test of the end-to-end benchmark: every workload, one unit each.

Runs ``run.py --units 1`` untraced and traced over all six workloads and
checks that every ``BENCHMARK.json`` metric is printed with its unit, no
unit failed, every layer a workload exists to exercise is non-empty in
its traced run, the named layers account for most of a traced unit's
wall time, and the whole thing stays under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py"), "--units", "1"]

#: Per workload, metrics of the layers it is meant to exercise.
EXERCISED = {
    "paper-e2e": (
        "registry.stage.calls", "registry.commit.busy_s", "observe.spans.count",
        "observe.spans.end_batch.busy_s", "vector.run_row_batch.calls",
        "bench.spec_run.busy_s", "kernel.run_until.calls", "core.polling.polls",
    ),
    "attack-matrix": (
        "attacks.imul.mount.calls", "attacks.plundervolt.mount.calls",
        "attacks.v0ltpwn.mount.calls", "attacks.aes-dfa.mount.calls",
        "faults.run_window.calls", "faults.windows", "kernel.msr_read.calls",
        "telemetry.events.calls",
    ),
    "explore-rsa256": (
        "attacks.rsa.keygen.calls", "explore.trace_victim.calls",
        "explore.replay_with_fault.calls", "explore.injections_simulated",
    ),
    "sweep-pool": (
        "engine.executor.busy_s", "engine.pool.exec_s", "engine.pool.queue_wait_p50_s",
        "vector.run_row_batch.calls", "vector.fault_draw_s", "core.fold_row.busy_s",
    ),
    "replay-warm": (
        "engine.run_jobs.calls", "engine.cache.get.calls", "engine.cache.hit_ratio",
        "engine.fingerprint.calls", "registry.encode.bytes", "registry.commit.busy_s",
    ),
    "cli-cold": ("cli.import_s", "cli.import.engine_s", "cli.import.numpy_s"),
}

#: Least share of a traced unit's wall time the named layers must cover.
#: A cli-cold launch also spends time in interpreter start-up and exit,
#: which no import covers (about 15% of a launch).
LAYER_COVERAGE = {name: 0.90 for name in EXERCISED}
LAYER_COVERAGE["cli-cold"] = 0.75


def run(*flags: str) -> dict:
    completed = subprocess.run(
        [*RUN, *flags], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, expected: list) -> None:
    for name, summary in result["workloads"].items():
        assert summary["failed"] == 0, name
        assert summary["correct"], name
        for entry in expected:
            metric = summary["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"], (name, entry["name"])
            assert isinstance(metric["value"], (int, float)), (name, entry["name"])


def test_every_workload_one_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()

    untraced = run()
    assert set(untraced["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert_metrics(untraced, spec["end_to_end"])
    for name, summary in untraced["workloads"].items():
        for metric in summary["metrics"].values():
            assert metric["value"] > 0, name

    traced = run("--trace")
    assert_metrics(traced, spec["per_layer"])
    layers = json.loads((ROOT / ".e2e_work" / "trace" / "layers.json").read_text())
    for name, exercised in EXERCISED.items():
        metrics = traced["workloads"][name]["metrics"]
        empty = [layer for layer in exercised if not metrics[layer]["value"] > 0]
        assert not empty, (name, empty)
        assert layers[name]["layer_coverage"] >= LAYER_COVERAGE[name], name
        assert (ROOT / ".e2e_work" / "trace" / f"{name}.trace.json").is_file()

    assert time.monotonic() - started < 60.0
