"""Per-layer spans for the traced benchmark run.

:class:`SpanTracer` wraps the public entry points of the ``src/repro``
layers from the outside (nothing in ``src/`` changes): every call made
on the main thread while a unit is open records a span with its name,
start, end and parent.  Spans are aggregated as they close into, per
name, ``calls``, ``busy_s`` (wall time inside the outermost call of that
name) and ``self_s`` (span duration minus the time its child spans
cover).  The self times of one unit, plus the unit root's own self time
(``trace.unattributed_s``), add up to the unit's wall time.

Each wrapper patches the attribute the caller actually resolves: class
methods on their class, module functions in every ``repro`` module that
bound the function by name (``repro.engine.executors`` holds its own
``execute_job``, ``repro.engine.session`` its own ``encode_object``).

Spans shorter than :data:`MIN_RECORDED_S` are aggregated but not kept
for the Chrome trace file, which would otherwise hold hundreds of
thousands of microsecond telemetry calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

#: (span name, module, class or None, attribute) of every wrapped entry point.
ENTRY_POINTS = (
    ("engine.run_jobs", "repro.engine.session", "EngineSession", "run_jobs"),
    ("engine.fingerprint", "repro.engine.jobs", "JobSpec", "fingerprint"),
    ("engine.cache.get", "repro.engine.cache", "ResultCache", "get"),
    ("engine.cache.put", "repro.engine.cache", "ResultCache", "put"),
    ("engine.execute_job", "repro.engine.jobs", None, "execute_job"),
    ("engine.executor", "repro.engine.executors", "SerialExecutor", "run_jobs"),
    ("engine.executor", "repro.engine.executors", "ParallelExecutor", "run_jobs"),
    ("registry.stage", "repro.registry.registry", "RunRegistry", "stage_result"),
    ("registry.encode", "repro.registry.store", None, "encode_object"),
    ("registry.commit", "repro.registry.registry", "RunRegistry", "record_run"),
    ("registry.spans", "repro.registry.registry", "RunRegistry", "record_spans"),
    ("observe.spans.begin_batch", "repro.observe.spans", "FleetTimeline", "begin_batch"),
    ("observe.spans.end_batch", "repro.observe.spans", "FleetTimeline", "end_batch"),
    ("vector.run_row_batch", "repro.vector.characterization", None, "run_row_batch"),
    ("core.fold_row", "repro.core.characterization", "CharacterizationFramework", "fold_row"),
    ("attacks.imul.mount", "repro.attacks.plundervolt", "ImulCampaign", "mount"),
    ("attacks.plundervolt.mount", "repro.attacks.plundervolt", "PlundervoltAttack", "mount"),
    ("attacks.v0ltpwn.mount", "repro.attacks.v0ltpwn", "V0ltpwnAttack", "mount"),
    ("attacks.aes-dfa.mount", "repro.attacks.aes_dfa", "AESDFAAttack", "mount"),
    ("attacks.voltjockey.mount", "repro.attacks.voltjockey", "VoltJockeyAttack", "mount"),
    ("attacks.rsa.keygen", "repro.attacks.rsa_crt", "RSAKey", "generate"),
    ("faults.run_window", "repro.faults.injector", "FaultInjector", "run_window"),
    ("kernel.run_until", "repro.kernel.sim", "Simulator", "run_until"),
    ("kernel.msr_read", "repro.kernel.msr_driver", "MSRDriver", "read"),
    ("bench.spec_run", "repro.bench.runner", "SpecOverheadRunner", "run"),
    ("telemetry.events", "repro.telemetry.events", "Tracer", "instant"),
    ("telemetry.events", "repro.telemetry.events", "Tracer", "complete"),
    ("telemetry.events", "repro.telemetry.events", "Tracer", "counter_sample"),
    ("explore.trace_victim", "repro.explore.victim", None, "trace_victim"),
    ("explore.replay_with_fault", "repro.explore.victim", None, "replay_with_fault"),
)

#: Spans whose return value's length is summed into ``bytes``.
BYTE_COUNTED = {"registry.encode"}

#: The job body runs below this span; see ``SpanTracer.unit``.
JOB_SPAN = "engine.execute_job"

MIN_RECORDED_S = 20e-6
MAX_RECORDED_SPANS = 200_000

ATTACKS = ("imul", "plundervolt", "v0ltpwn", "aes-dfa", "voltjockey")

#: ``-X importtime`` buckets: metric suffix -> module-name prefix.
IMPORT_BUCKETS = {
    "engine": "repro.engine",
    "observe": "repro.observe",
    "registry": "repro.registry",
    "serve": "repro.serve",
    "numpy": "numpy",
}


class _Totals:
    __slots__ = ("calls", "busy_s", "self_s", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.bytes = 0


class _Frame:
    __slots__ = ("name", "start", "child_s", "in_job")

    def __init__(self, name: str, start: float, in_job: bool) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.in_job = in_job


class UnitTrace:
    """The aggregate of one traced unit root."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.totals: Dict[str, _Totals] = {}
        self.wall_s = 0.0
        self.unattributed_s = 0.0


class SpanTracer:
    """Installs the wrappers and records spans while a unit is open."""

    def __init__(self) -> None:
        self._thread = threading.get_ident()
        self._stack: List[_Frame] = []
        self._open: Dict[str, int] = {}
        self._current: Optional[UnitTrace] = None
        self._job_body_only = False
        self._origin: Optional[float] = None
        #: Recorded spans: (name, start, duration, parent name, unit label).
        self.spans: List[tuple] = []
        #: Spans left out of :attr:`spans` once it held MAX_RECORDED_SPANS.
        self.dropped = 0

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, func):
        tracer = self
        count_bytes = name in BYTE_COUNTED

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer._stack or threading.get_ident() != tracer._thread:
                return func(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame)
            totals = tracer._current.totals.get(name) if count_bytes else None
            if totals is not None:
                totals.bytes += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every entry point (once per process)."""
        for name, module_name, owner_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    setattr(owner, attribute, classmethod(self.wrap(name, original.__func__)))
                else:
                    setattr(owner, attribute, self.wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", {})
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and namespace.get(attribute) is original
                ):
                    setattr(loaded, attribute, wrapper)

    # -- span bookkeeping -------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        parent = self._stack[-1]
        frame = _Frame(name, perf_counter(), parent.in_job or name == JOB_SPAN)
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        own = duration - frame.child_s
        self._open[frame.name] -= 1
        unit = self._current
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent_name = parent.name
            if not self._job_body_only or frame.in_job:
                totals = unit.totals.get(frame.name)
                if totals is None:
                    totals = unit.totals[frame.name] = _Totals()
                totals.calls += 1
                totals.self_s += own
                if not self._open[frame.name]:
                    totals.busy_s += duration
        else:
            parent_name = ""
            unit.wall_s = duration
            unit.unattributed_s = own
        if duration >= MIN_RECORDED_S and len(self.spans) < MAX_RECORDED_SPANS:
            if self._origin is None:
                self._origin = frame.start
            self.spans.append(
                (frame.name, frame.start - self._origin, duration, parent_name, unit.label)
            )
        elif duration >= MIN_RECORDED_S:
            self.dropped += 1

    @contextmanager
    def unit(self, label: str, *, job_body_only: bool = False):
        """Open a unit root span; yields its :class:`UnitTrace`.

        With ``job_body_only`` only spans at or below ``engine.execute_job``
        enter the totals: a serial copy of a process-pool unit contributes
        the job-body layers the pool's workers hide, and nothing it would
        double-count on the parent side.
        """
        trace = UnitTrace(label)
        self._current = trace
        self._job_body_only = job_body_only
        root = _Frame("unit", perf_counter(), False)
        self._stack.append(root)
        self._open["unit"] = 1
        try:
            yield trace
        finally:
            self._exit(root)
            self._current = None
            self._job_body_only = False

    # -- output -----------------------------------------------------------------

    def chrome_events(self, workload: str) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": f"e2e benchmark: {workload}"}},
        ]
        for name, start, duration, parent, label in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"unit": label, "parent": parent},
                }
            )
        return events


def write_chrome_trace(path: Path, events: List[Dict[str, Any]], **metadata) -> None:
    """A ``trace_event`` JSON file (opens in Perfetto and chrome://tracing)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata})
    )


def merge_totals(*traces: UnitTrace) -> Dict[str, _Totals]:
    merged: Dict[str, _Totals] = {}
    for trace in traces:
        for name, totals in trace.totals.items():
            into = merged.setdefault(name, _Totals())
            into.calls += totals.calls
            into.busy_s += totals.busy_s
            into.self_s += totals.self_s
            into.bytes += totals.bytes
    return merged


def session_counters(sessions: Iterable[Any]) -> Dict[str, float]:
    counters: Dict[str, float] = {}
    for session in sessions:
        for name, value in session.counters().items():
            counters[name] = counters.get(name, 0) + value
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(
    totals: Dict[str, _Totals],
    sessions: List[Any],
    *,
    vector_wall: Dict[str, float],
    explore_stats: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric of one traced unit (0 where a layer is idle)."""
    empty = _Totals()

    def span(name: str) -> _Totals:
        return totals.get(name, empty)

    counters = session_counters(sessions)
    exec_s: List[float] = []
    waits: List[float] = []
    for session in sessions:
        for histogram in session.wall_registry.histograms():
            if histogram.name.startswith("engine.wall.exec."):
                exec_s.extend(histogram.values)
            elif histogram.name.startswith("engine.wall.queue_wait."):
                waits.extend(histogram.values)
    workers = max((getattr(s.executor, "workers", 1) for s in sessions), default=1)
    hits = counters.get("engine.cache_hits", 0)
    misses = counters.get("engine.cache_misses", 0)
    windows = counters.get("faults.windows", 0)
    events = counters.get("sim.events_processed", 0)
    values = {
        "engine.run_jobs.calls": span("engine.run_jobs").calls,
        "engine.run_jobs.self_s": span("engine.run_jobs").self_s,
        "engine.fingerprint.calls": span("engine.fingerprint").calls,
        "engine.fingerprint.busy_s": span("engine.fingerprint").busy_s,
        "engine.cache.get.calls": span("engine.cache.get").calls,
        "engine.cache.get.busy_s": span("engine.cache.get").busy_s,
        "engine.cache.put.calls": span("engine.cache.put").calls,
        "engine.cache.put.busy_s": span("engine.cache.put").busy_s,
        "engine.cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.execute_job.calls": span("engine.execute_job").calls,
        "engine.execute_job.self_s": span("engine.execute_job").self_s,
        "engine.executor.busy_s": span("engine.executor").busy_s,
        "engine.pool.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "engine.pool.exec_s": sum(exec_s),
        "engine.pool.dispatch_overhead_s": span("engine.executor").busy_s
        - sum(exec_s) / workers,
        "registry.stage.calls": span("registry.stage").calls,
        "registry.stage.busy_s": span("registry.stage").busy_s,
        "registry.encode.calls": span("registry.encode").calls,
        "registry.encode.bytes": span("registry.encode").bytes,
        "registry.encode.busy_s": span("registry.encode").busy_s,
        "registry.commit.busy_s": span("registry.commit").busy_s,
        "registry.spans.busy_s": span("registry.spans").busy_s,
        "observe.spans.begin_batch.busy_s": span("observe.spans.begin_batch").busy_s,
        "observe.spans.end_batch.busy_s": span("observe.spans.end_batch").busy_s,
        "observe.spans.count": sum(
            len(s.timeline) for s in sessions if s.timeline is not None
        ),
        "vector.run_row_batch.calls": span("vector.run_row_batch").calls,
        "vector.run_row_batch.busy_s": span("vector.run_row_batch").busy_s,
        "vector.delay_s": vector_wall.get("vector.delay", 0.0),
        "vector.safety_s": vector_wall.get("vector.safety", 0.0),
        "vector.fault_draw_s": vector_wall.get("vector.fault_draw", 0.0),
        "core.fold_row.busy_s": span("core.fold_row").busy_s,
        "faults.run_window.calls": span("faults.run_window").calls,
        "faults.run_window.busy_s": span("faults.run_window").busy_s,
        "faults.windows": windows,
        "faults.injected": counters.get("faults.injected", 0),
        "faults.crashes": counters.get("faults.crashes", 0),
        "faults.injected_per_window": _ratio(counters.get("faults.injected", 0), windows),
        "kernel.run_until.calls": span("kernel.run_until").calls,
        "kernel.run_until.busy_s": span("kernel.run_until").busy_s,
        "kernel.events_processed": events,
        "kernel.host_us_per_event": _ratio(span("kernel.run_until").busy_s * 1e6, events),
        "kernel.msr_read.calls": span("kernel.msr_read").calls,
        "kernel.msr_read.busy_s": span("kernel.msr_read").busy_s,
        "core.polling.polls": counters.get("countermeasure.polls", 0),
        "core.polling.core_checks": counters.get("countermeasure.core_checks", 0),
        "core.polling.detections": counters.get("countermeasure.detections", 0),
        "bench.spec_run.busy_s": span("bench.spec_run").busy_s,
        "telemetry.events.calls": span("telemetry.events").calls,
        "telemetry.events.busy_s": span("telemetry.events").busy_s,
        "attacks.rsa.keygen.calls": span("attacks.rsa.keygen").calls,
        "attacks.rsa.keygen.busy_s": span("attacks.rsa.keygen").busy_s,
        "explore.trace_victim.calls": span("explore.trace_victim").calls,
        "explore.trace_victim.busy_s": span("explore.trace_victim").busy_s,
        "explore.replay_with_fault.calls": span("explore.replay_with_fault").calls,
        "explore.replay_with_fault.busy_s": span("explore.replay_with_fault").busy_s,
        "explore.injections_enumerated": explore_stats.get("injections_enumerated", 0),
        "explore.injections_simulated": explore_stats.get("injections_simulated", 0),
        "explore.injections_pruned_masked": explore_stats.get("injections_pruned_masked", 0),
        "explore.injections_pruned_equivalent": explore_stats.get(
            "injections_pruned_equivalent", 0
        ),
        "explore.points_pruned_safe": explore_stats.get("points_pruned_safe", 0),
        "explore.simulated_ratio": _ratio(
            explore_stats.get("injections_simulated", 0),
            explore_stats.get("injections_enumerated", 0),
        ),
    }
    for attack in ATTACKS:
        mount = span(f"attacks.{attack}.mount")
        values[f"attacks.{attack}.mount.calls"] = mount.calls
        values[f"attacks.{attack}.mount.busy_s"] = mount.busy_s
        values[f"attacks.{attack}.mount.self_s"] = mount.self_s
    return values


def import_breakdown(stderr: str) -> Dict[str, float]:
    """``cli.import*`` seconds from ``python -X importtime`` output.

    Sums each module's *self* time into its bucket; ``cli.import.self_s``
    is everything outside the named buckets (the CLI module itself, the
    simulation packages and the standard library).
    """
    buckets = {suffix: 0.0 for suffix in IMPORT_BUCKETS}
    total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own_s = int(fields[0]) * 1e-6
        except ValueError:
            continue  # the header line
        module = fields[2].strip()
        total += own_s
        for suffix, prefix in IMPORT_BUCKETS.items():
            if module == prefix or module.startswith(prefix + "."):
                buckets[suffix] += own_s
                break
    values = {"cli.import_s": total}
    values.update({f"cli.import.{suffix}_s": value for suffix, value in buckets.items()})
    values["cli.import.self_s"] = total - sum(buckets.values())
    return values
