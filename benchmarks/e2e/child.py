"""One fresh benchmark process: set a workload up, then run its units.

``run.py`` starts this script once per measured process and reads the
JSON it writes to ``--result``.  Set-up time is measured from the
parent's ``time.monotonic()`` just before the process was spawned (the
clock is system-wide), so it includes interpreter start-up and imports.
Units run in a closed loop with one client: the next starts when the
previous one has finished and been checked, until ``--seconds`` have
passed or ``--units`` units have run.

The set-up time and every unit's wall time are also host-adjusted:
scaled to a fixed host speed, which :class:`HostProbe` (or, for
``cli-cold``, a reference launch) measures next to them.

With ``--trace`` the process first runs half its budget untraced, then
installs :class:`trace.SpanTracer` and runs the other half traced; the
ratio of the two median unit times is ``trace.overhead_frac``.  A traced
process runs no probe.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import math
import resource
import signal
import statistics
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import workloads

#: The probe loop's length, how often it runs, and its duration in the
#: fast phase of the 2-vCPU machine README.md reports.  A host-adjusted
#: time is the time at that speed.
PROBE_ITERATIONS = 10_000
PROBE_INTERVAL_S = 0.025
REFERENCE_PROBE_S = 0.0005

#: ``python -c pass`` in the same phase (``cli-cold``'s reference).
REFERENCE_LAUNCH_S = 0.040


class HostProbe:
    """Samples how fast the host runs while this process is measured.

    A shared host switches between two speeds, 1.5x apart, within
    seconds, as other tenants come and go; a one-second unit often spans
    both.  ``SIGALRM`` interrupts this process every ``PROBE_INTERVAL_S``
    to time a fixed pure-Python loop of integer arithmetic.  The loop
    allocates almost nothing and fits in the first-level caches, so the
    state the measured program leaves behind hardly changes its time.
    The program runs in the stretches between two loops.  A stretch's
    speed is the median time of the six loops around it, three on each
    side; its host-adjusted time is its length times
    ``REFERENCE_PROBE_S`` over that median.  An interval's host-adjusted
    time is the sum over the stretches it covers, so a unit that spans
    both speeds has each part scaled by its own.  While processes the
    probe would compete with for a CPU run, it is paused (:func:`paused`).
    """

    def __init__(self) -> None:
        #: ``time.monotonic()`` at the start, and duration, of every loop.
        self.samples: List[Tuple[float, float]] = []

    def sample(self, *_signal) -> None:
        at, start = time.monotonic(), perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        self.samples.append((at, perf_counter() - start))

    def __enter__(self) -> "HostProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        # Interrupted system calls restart, in C extensions too.
        signal.siginterrupt(signal.SIGALRM, False)
        self.resume()
        return self

    def __exit__(self, *_exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        # A handler that interrupted a slow loop appended before it.
        self.samples.sort()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def adjusted(self, start: float, wall_s: float) -> float:
        """The interval from ``start`` (``time.monotonic()``) lasting
        ``wall_s``, at ``REFERENCE_PROBE_S`` per loop."""
        end = start + wall_s
        # Stretch i lies between loops i - 1 and i; the first and the last
        # reach past the samples (set-up starts before the probe does).
        stretches = [
            (at + duration, next_at)
            for (at, duration), (next_at, _) in zip(self.samples, self.samples[1:])
        ]
        last_at, last_duration = self.samples[-1]
        stretches = [
            (-math.inf, self.samples[0][0]), *stretches, (last_at + last_duration, math.inf)
        ]
        total = 0.0
        for index, (low, high) in enumerate(stretches):
            low, high = max(low, start), min(high, end)
            if low < high:
                around = self.samples[max(0, index - 3):index + 3]
                speed = statistics.median(duration for _, duration in around)
                total += (high - low) * REFERENCE_PROBE_S / speed
        return total


@contextlib.contextmanager
def paused(probe: Optional[HostProbe]):
    """Pause ``probe``, if there is one, for the block."""
    if probe:
        probe.pause()
    try:
        yield
    finally:
        if probe:
            probe.resume()


def host_adjusted(
    probe: Optional[HostProbe], start: float, wall_s: float, reference_s: float
) -> float:
    """``wall_s`` at the reference host speed: by the probe, or without
    one by the reference launch that took ``reference_s``."""
    if probe is None:
        return wall_s * REFERENCE_LAUNCH_S / reference_s
    return probe.adjusted(start, wall_s)


def closed_loop(seconds: float, units: int, body: Callable[[int], None]) -> None:
    """Call ``body(index)`` back to back for ``units`` calls, or until
    ``seconds`` have passed (at least once)."""
    deadline = time.monotonic() + seconds
    index = 0
    while True:
        body(index)
        index += 1
        if (units and index >= units) or (not units and time.monotonic() >= deadline):
            return


class UnitLog:
    """Per-unit records, with digests checked against the first unit."""

    def __init__(self, workload: workloads.Workload, probe: Optional[HostProbe] = None) -> None:
        self.workload = workload
        self.probe = probe
        self.records: List[Dict[str, Any]] = []
        self._reference: Dict[str, str] = {}

    def run(self, produce: Callable[[], workloads.Unit]):
        """Time one unit, then check it; returns it, or ``None`` on failure."""
        self.workload.prepare()
        # Each unit starts from a collected heap, as it would in a fresh
        # process, instead of paying for the previous unit's garbage.
        gc.collect()
        try:
            with paused(self.probe if self.workload.spawns_processes else None):
                started, start = time.monotonic(), perf_counter()
                try:
                    unit = produce()
                finally:
                    wall_s = perf_counter() - start
            digests = unit.digests()
            if not self._reference:
                self._reference = digests
            differing = sorted(
                key
                for key in set(digests) | set(self._reference)
                if digests.get(key) != self._reference.get(key)
            )
            workloads.check(
                not differing, f"unit digests differ from the first unit's: {differing}"
            )
        except Exception:
            self.records.append(
                {"ok": False, "wall_s": wall_s, "error": traceback.format_exc()}
            )
            return None
        self.records.append(
            {
                "ok": True,
                "started": started,
                "wall_s": wall_s,
                "work": unit.work,
                "reference_s": unit.reference_s,
                "digests": digests,
                "claims": unit.claims,
            }
        )
        return unit

    def adjust(self) -> None:
        """Add each passed unit's host-adjusted time, ``adjusted_s``."""
        for record in self.records:
            if record["ok"]:
                record["adjusted_s"] = host_adjusted(
                    self.probe, record["started"], record["wall_s"], record["reference_s"]
                )


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def traced(workload: workloads.Workload, args, log: UnitLog) -> Dict[str, Any]:
    """The traced half of a ``--trace`` process; returns its layer record."""
    import trace

    layers: List[Dict[str, float]] = []
    self_times: List[Dict[str, float]] = []
    walls: List[float] = []
    coverage: List[float] = []
    tracer = trace.SpanTracer()
    origin = perf_counter()
    events: List[Dict[str, Any]] = []

    if isinstance(workload, workloads.CLICold):

        def body(index: int) -> None:
            launched = {}

            def produce() -> workloads.Unit:
                launched["run"] = workload.launch("-X", "importtime")
                return workload.checked(launched["run"])

            start = perf_counter()
            if log.run(produce) is None:
                return
            wall_s = log.records[-1]["wall_s"]
            values = trace.import_breakdown(launched["run"].stderr)
            values["trace.unattributed_s"] = wall_s - values["cli.import_s"]
            layers.append(values)
            self_times.append(
                {name: value for name, value in values.items() if name.startswith("cli.import.")}
            )
            walls.append(wall_s)
            coverage.append(values["cli.import_s"] / wall_s)
            events.append(
                {"name": "unit", "cat": "unit", "ph": "X", "pid": 1, "tid": 1,
                 "ts": round((start - origin) * 1e6, 3), "dur": round(wall_s * 1e6, 3),
                 "args": {"unit": str(index), **values}}
            )

    else:
        from repro.observe.profiler import SimProfiler
        from repro.vector.profile import profiled_kernels

        tracer.install()
        serial_copy = getattr(workload, "serial_copy", None)

        def body(index: int) -> None:
            profiler = SimProfiler()
            roots: List[trace.UnitTrace] = []

            def produce() -> workloads.Unit:
                with profiled_kernels(profiler), tracer.unit(str(index)) as root:
                    unit = workload.unit()
                roots.append(root)
                if serial_copy is not None:
                    label = f"{index}.serial-copy"
                    with profiled_kernels(profiler), tracer.unit(
                        label, job_body_only=True
                    ) as copy:
                        replica = serial_copy()
                    roots.append(copy)
                    workloads.check(
                        replica.digests() == unit.digests(),
                        "the in-process serial copy differs from the pool's results",
                    )
                return unit

            unit = log.run(produce)
            if unit is None:
                return
            vector_wall = {
                bucket["site"]: bucket["wall_time_s"]
                for bucket in profiler.wall_snapshot()["buckets"]
                if bucket["component"] == "vector"
            }
            totals = trace.merge_totals(*roots)
            values = trace.layer_values(
                totals,
                unit.sessions,
                vector_wall=vector_wall,
                explore_stats=unit.explore_stats,
            )
            values["trace.unattributed_s"] = roots[0].unattributed_s
            layers.append(values)
            self_times.append({name: spans.self_s for name, spans in totals.items()})
            walls.append(roots[0].wall_s)
            coverage.append(1.0 - roots[0].unattributed_s / roots[0].wall_s)

    closed_loop(args.seconds / 2, args.units, body)
    events = [*tracer.chrome_events(workload.name), *events]
    trace.write_chrome_trace(
        Path(args.chrome_trace),
        events,
        workload=workload.name,
        seed=args.seed,
        min_recorded_us=trace.MIN_RECORDED_S * 1e6,
        spans_over_cap=tracer.dropped,
    )
    return {
        "layers": medians(layers),
        "self_s": medians(self_times),
        "traced_walls": walls,
        "layer_coverage": statistics.median(coverage) if coverage else 0.0,
    }


def medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over units (a key a unit lacks counts as 0)."""
    names = sorted({name for sample in samples for name in sample})
    return {
        name: statistics.median(sample.get(name, 0.0) for sample in samples)
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--units", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome-trace")
    args = parser.parse_args()

    # Records still get created; nothing is printed to the parent's pipe.
    logging.getLogger().addHandler(logging.NullHandler())
    workload = workloads.WORKLOADS[args.workload](
        args.seed, Path(args.workdir), Path(args.root)
    )
    record: Dict[str, Any] = {}
    probe = None if args.trace or workload.reference_launch else HostProbe()
    log = UnitLog(workload, probe)
    try:
        with probe or contextlib.nullcontext():
            with paused(probe if workload.spawns_processes else None):
                workload.setup()
            record["setup_s"] = time.monotonic() - args.spawned
            references = [workload.reference_s]
            seconds = args.seconds / 2 if args.trace else args.seconds
            closed_loop(seconds, args.units, lambda _index: log.run(workload.unit))
        if args.trace:
            record["untraced_walls"] = [r["wall_s"] for r in log.records if r["ok"]]
            record.update(traced(workload, args, log))
        else:
            # Set-up has one reference launch of its own; the median of all
            # the process's is steadier, and its phase lasts longer than
            # the process.
            references += [r["reference_s"] for r in log.records if r["ok"]]
            record["setup_adjusted_s"] = host_adjusted(
                probe, args.spawned, record["setup_s"], statistics.median(references)
            )
            log.adjust()
    finally:
        workload.close()
    record["units"] = log.records
    record["peak_rss_mb"] = peak_rss_mb(workload.spawns_processes)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
