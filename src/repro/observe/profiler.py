"""Sim-time profiler for the discrete-event dispatch loop.

:class:`SimProfiler` is a :class:`repro.kernel.sim.SimObserver` on the
simulator's observer tuple, beside any invariant checker (one truth
test per event when nothing is attached), and
attributes every processed event to the component that scheduled it:
the voltage regulator's settle events, the OCM/MSR chain, the polling
module's recurring poll, the fault injector, the bench runner, spawned
cooperative tasks.  Per (component, site) bucket it accumulates

* ``events`` — events processed (deterministic),
* ``sim_time_s`` — simulated time the events advanced the clock by
  (deterministic),
* ``wall_time_s`` — wall-clock spent inside the callbacks
  (**non-deterministic**, strictly segregated: never serialized into the
  flamegraph artifacts, only into the explicitly wall-clock sidecar).

Two identical seeded runs therefore produce *byte-identical* collapsed
stacks and speedscope documents — profiles are diffable regression
artifacts the same way traces are.

Exports target the two formats every flamegraph toolchain understands:

* **collapsed stacks** (``component;site weight`` lines) for
  ``flamegraph.pl`` / ``inferno``;
* **speedscope JSON** (https://www.speedscope.app) with one sim-time
  profile (seconds) and one event-count profile in a single document.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.kernel.sim import RecurringEvent, SimObserver, Task

#: Schema tag embedded in profile snapshots.
PROFILE_SCHEMA_VERSION = 1


@dataclass
class ProfileBucket:
    """Accumulated cost of one (component, site) dispatch target."""

    component: str
    site: str
    events: int = 0
    sim_time_s: float = 0.0
    #: Wall clock — excluded from every determinism-checked artifact.
    wall_time_s: float = 0.0


def resolve_site(callback: Any) -> Tuple[str, str]:
    """Attribute a scheduled callback to a ``(component, site)`` pair.

    Unwraps ``functools.partial`` layers and the simulator's own
    indirection objects — a :class:`RecurringEvent` is charged to the
    callback it re-arms (the polling module's poll, not the timer), and a
    cooperative :class:`Task` step is charged to the named task.  The
    component is the callback's module path below ``repro.``, which is
    exactly the per-subsystem attribution the overhead budget of Table 2
    is argued in terms of.
    """
    for _ in range(8):  # bounded unwrap of partial/timer indirections
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, RecurringEvent):
            callback = owner._callback
            continue
        break
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Task):
        return ("kernel.sim.task", f"task:{owner.name}")
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or "<unknown>"
    if module.startswith("repro."):
        module = module[len("repro."):]
    site = (
        getattr(func, "__qualname__", None)
        or getattr(func, "__name__", None)
        or repr(callback)
    )
    return (module, site)


class SimProfiler(SimObserver):
    """Per-component event/sim-time/wall-time attribution for one run."""

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[str, str], ProfileBucket] = {}
        self._simulator: Optional[Any] = None

    # -- lifecycle ---------------------------------------------------------------

    def install(self, target: Any) -> "SimProfiler":
        """Attach to a :class:`Machine` or a bare :class:`Simulator`."""
        simulator = getattr(target, "simulator", target)
        simulator.attach(self)
        self._simulator = simulator
        return self

    def uninstall(self) -> None:
        """Detach from the simulator (no-op when not installed)."""
        if self._simulator is not None:
            self._simulator.detach(self)
            self._simulator = None

    # -- the dispatch-loop hook ----------------------------------------------------

    def after_event(self, callback: Any, advanced_s: float, wall_s: float) -> None:
        """Record one dispatched event (called by the simulator)."""
        key = resolve_site(callback)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = ProfileBucket(*key)
        bucket.events += 1
        bucket.sim_time_s += advanced_s
        bucket.wall_time_s += wall_s

    def record_site(
        self,
        component: str,
        site: str,
        *,
        events: int = 1,
        sim_time_s: float = 0.0,
        wall_s: float = 0.0,
    ) -> None:
        """Charge out-of-band work to an explicitly named bucket.

        The dispatch-loop hook only sees scheduled simulator events, but
        the direct-mode characterization sweep (scalar and vectorized)
        never schedules any — its cost is attributed through this entry
        point instead, via :func:`repro.vector.profile.record_kernel_site`.
        Event counts stay deterministic (grid cells / windows evaluated);
        wall-clock accumulates in the segregated sidecar field exactly as
        for dispatched events.
        """
        key = (component, site)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = ProfileBucket(component, site)
        bucket.events += events
        bucket.sim_time_s += sim_time_s
        bucket.wall_time_s += wall_s

    # -- views -------------------------------------------------------------------

    def buckets(self) -> List[ProfileBucket]:
        """All buckets, sorted by (component, site) for stable output."""
        return [self._buckets[key] for key in sorted(self._buckets)]

    @property
    def total_events(self) -> int:
        return sum(b.events for b in self._buckets.values())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe **sim-time-only** dump (byte-identical per seed)."""
        buckets = self.buckets()
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "total_events": sum(b.events for b in buckets),
            "total_sim_time_s": sum(b.sim_time_s for b in buckets),
            "buckets": [
                {
                    "component": b.component,
                    "site": b.site,
                    "events": b.events,
                    "sim_time_s": b.sim_time_s,
                }
                for b in buckets
            ],
        }

    def wall_snapshot(self) -> Dict[str, Any]:
        """JSON-safe **wall-clock** dump — never determinism-checked."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "wall": True,
            "buckets": [
                {
                    "component": b.component,
                    "site": b.site,
                    "events": b.events,
                    "wall_time_s": b.wall_time_s,
                }
                for b in self.buckets()
            ],
        }

    # -- exports -----------------------------------------------------------------

    def to_collapsed(self) -> str:
        """Collapsed-stack text (``component;site events`` per line).

        Weights are processed-event counts — integers, so the file is
        byte-identical across identical seeded runs and feeds directly
        into ``flamegraph.pl`` / ``inferno-flamegraph``.
        """
        lines = [
            f"{b.component};{b.site} {b.events}" for b in self.buckets()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, *, name: str = "repro sim profile") -> str:
        """A speedscope JSON document with sim-time and event profiles.

        Contains only deterministic sim-time fields; wall-clock lives in
        :meth:`wall_snapshot` alone.
        """
        buckets = self.buckets()
        frames: List[Dict[str, str]] = []
        frame_index: Dict[str, int] = {}

        def frame(label: str) -> int:
            index = frame_index.get(label)
            if index is None:
                index = frame_index[label] = len(frames)
                frames.append({"name": label})
            return index

        samples: List[List[int]] = []
        sim_weights: List[float] = []
        event_weights: List[int] = []
        for bucket in buckets:
            samples.append([frame(bucket.component), frame(bucket.site)])
            sim_weights.append(bucket.sim_time_s)
            event_weights.append(bucket.events)
        document = {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.observe",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": "sim-time (s)",
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": sum(sim_weights),
                    "samples": samples,
                    "weights": sim_weights,
                },
                {
                    "type": "sampled",
                    "name": "events processed",
                    "unit": "none",
                    "startValue": 0,
                    "endValue": sum(event_weights),
                    "samples": samples,
                    "weights": event_weights,
                },
            ],
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":"))

    def write_collapsed(self, path: Union[str, Path]) -> Path:
        """Write the collapsed-stack artifact; returns the path."""
        return _write(path, self.to_collapsed())

    def write_speedscope(
        self, path: Union[str, Path], *, name: str = "repro sim profile"
    ) -> Path:
        """Write the speedscope artifact; returns the path."""
        return _write(path, self.to_speedscope(name=name))

    def __repr__(self) -> str:
        return (
            f"SimProfiler(buckets={len(self._buckets)}, "
            f"events={self.total_events})"
        )


def _write(path: Union[str, Path], text: str) -> Path:
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target
