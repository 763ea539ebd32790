"""Metric instruments: counters and sim-time histograms.

The registry is the numeric half of :mod:`repro.telemetry` (the event
tracer is the other).  Instruments are keyed by dotted names following
the module-path convention (``countermeasure.polls``,
``msr.reads``, ...) and are handed out once, at *instrument time*: a
component asks the registry for its counter during construction and then
increments a plain attribute on the hot path.  Every machine owns a real
registry (a default machine builds its own), so counts are always exact
and never leak between machines.

All histogram observations are *simulated-time* quantities (seconds on
the :class:`~repro.kernel.sim.Simulator` clock) or other deterministic
values — never wall-clock — so two identical runs produce identical
metric state.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """A distribution of observed values (sim-time latencies, sizes...).

    Keeps the raw observations (bounded by ``max_samples``) together with
    exact aggregate count/sum/sum-of-squares/min/max, so tests can assert
    on individual latencies while long runs stay bounded in memory.
    """

    __slots__ = (
        "name", "count", "total", "sum_sq", "min", "max", "_values", "_max_samples"
    )

    def __init__(self, name: str, *, max_samples: int = 100_000) -> None:
        if max_samples < 0:
            raise ConfigurationError("max_samples must be non-negative")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._values: List[float] = []
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self.sum_sq += value * value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._values) < self._max_samples:
            self._values.append(value)

    @property
    def values(self) -> Tuple[float, ...]:
        """The recorded raw observations (up to ``max_samples``)."""
        return tuple(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def truncated(self) -> bool:
        """Whether ``max_samples`` has dropped raw observations.

        The aggregates (``count``/``total``/``sum_sq``/``min``/``max``)
        stay exact either way; only the raw-sample window is incomplete.
        """
        return self.count > len(self._values)

    def stddev(self) -> float:
        """Population standard deviation, exact even when truncated.

        Computed from the running sum-of-squares, so it covers every
        observation regardless of the ``max_samples`` window.
        """
        if not self.count:
            return 0.0
        mean = self.mean
        variance = self.sum_sq / self.count - mean * mean
        return math.sqrt(variance) if variance > 0.0 else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; exact aggregates at the extremes.

        ``q`` lies in [0, 100]; raises when the histogram is empty.  When
        ``max_samples`` truncation has dropped raw observations, the
        extreme ranks fall back to the exact ``min``/``max`` aggregates
        and interior ranks are computed over the retained window but
        clamped into ``[min, max]`` — never silently reported from a
        window that no longer covers the distribution's tails.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile {q} outside [0, 100]")
        if not self.count:
            raise ConfigurationError(f"histogram {self.name} is empty")
        if self.truncated:
            if q == 0.0:
                return self.min
            if q == 100.0:
                return self.max
        if not self._values:
            # max_samples=0: only the exact aggregates exist.
            return self.min if q <= 50.0 else self.max
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        value = ordered[int(rank)]
        if self.truncated:
            value = max(self.min, min(self.max, value))
        return value

    def marshal(self) -> Dict[str, object]:
        """A JSON/pickle-safe snapshot that :meth:`merge` can absorb.

        Carries the exact aggregates plus the retained raw-sample window
        — this is how worker-process histogram observations cross the
        pool boundary inside a :class:`~repro.engine.jobs.JobResult`.
        """
        return {
            "count": self.count,
            "total": self.total,
            "sum_sq": self.sum_sq,
            "min": self.min,
            "max": self.max,
            "values": list(self._values),
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`marshal` snapshot into this histogram.

        Aggregates add exactly (count/total/sum_sq are commutative,
        min/max are joins); the raw-sample window extends until this
        histogram's own ``max_samples`` cap.  Merging results in input
        order therefore produces identical state whichever executor
        collected the snapshots.
        """
        count = int(snapshot.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(snapshot.get("total", 0.0))
        self.sum_sq += float(snapshot.get("sum_sq", 0.0))
        other_min = snapshot.get("min")
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = float(other_min)
        other_max = snapshot.get("max")
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = float(other_max)
        for value in snapshot.get("values", []):
            if len(self._values) >= self._max_samples:
                break
            self._values.append(float(value))

    def reset(self) -> None:
        """Drop all observations."""
        self.count = 0
        self.total = 0.0
        self.sum_sq = 0.0
        self.min = None
        self.max = None
        self._values.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.3g})"


class Registry:
    """Named metric instruments for one machine/run.

    ``counter``/``histogram`` get-or-create by name, so
    independent components referring to the same dotted name share one
    instrument — that sharing is what lets the polling module, the MSR
    driver and ``repro status`` read a single source of truth.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str, *, max_samples: int = 100_000) -> Histogram:
        """Get or create the histogram called ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, max_samples=max_samples)
        return instrument

    def counters(self) -> Iterator[Counter]:
        """All counters, in name order (deterministic for dumps)."""
        for name in sorted(self._counters):
            yield self._counters[name]

    def counter_values(self) -> Dict[str, int]:
        """Name → value snapshot of every counter (conservation audits)."""
        return {c.name: c.value for c in self.counters()}

    def histograms(self) -> Iterator[Histogram]:
        """All histograms, in name order."""
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dump of every instrument's current state."""
        return {
            "counters": {c.name: c.value for c in self.counters()},
            "histograms": {
                h.name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                    "stddev": h.stddev(),
                    "truncated": h.truncated,
                }
                for h in self.histograms()
            },
        }

    def render(self) -> str:
        """Human-readable dump for ``repro status``."""
        lines = []
        for counter in self.counters():
            lines.append(f"{counter.name:40s} {counter.value}")
        for hist in self.histograms():
            line = f"{hist.name:40s} count={hist.count} mean={hist.mean:.3g}"
            if hist.count:
                line += (
                    f" min={hist.min:.3g} max={hist.max:.3g}"
                    f" p50={hist.percentile(50):.3g}"
                    f" p95={hist.percentile(95):.3g}"
                    f" p99={hist.percentile(99):.3g}"
                    f" stddev={hist.stddev():.3g}"
                )
                if hist.truncated:
                    line += " (window truncated)"
            lines.append(line)
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        """Reset every instrument (counters to 0, histograms emptied)."""
        for instrument in (*self._counters.values(), *self._histograms.values()):
            instrument.reset()
