"""Performance trajectories and the CI regression gate.

A *trajectory* is the append-only series of benchmark points for one
named bench (``engine_campaign``, ``telemetry_overhead``, …).  It lives
in one place: a canonical ``BENCH_<name>.json`` file under
``benchmarks/trajectories/`` — sorted-keys, indented,
newline-terminated — which is committed so CI has a baseline to gate
against.

``repro trajectory check`` compares a candidate point against the best
baseline value and fails (exit nonzero) when the candidate regresses by
more than ``max_regress`` (a ratio: 0.25 = 25%).  Direction matters:
``lower_is_better`` is part of every point, so a *drop* in a
higher-is-better metric (e.g. speedup) is a regression too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import RegistryError

#: Default regression budget for ``repro trajectory check`` (25%).
DEFAULT_MAX_REGRESS = 0.25

#: File-name convention for committed trajectory baselines.
FILE_PREFIX = "BENCH_"


def trajectory_filename(bench: str) -> str:
    """The canonical committed file name for a bench trajectory."""
    return f"{FILE_PREFIX}{bench}.json"


def make_point(
    bench: str,
    metric: str,
    value: float,
    *,
    unit: str = "s",
    lower_is_better: bool = True,
    context: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One canonical trajectory point (plain JSON-safe dict)."""
    return {
        "bench": bench,
        "metric": metric,
        "value": float(value),
        "unit": unit,
        "lower_is_better": bool(lower_is_better),
        "context": dict(sorted((context or {}).items())),
    }


def load_trajectory(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The points in a ``BENCH_<name>.json`` file (empty file = [])."""
    target = Path(path)
    if not target.exists():
        return []
    text = target.read_text().strip()
    if not text:
        return []
    points = json.loads(text)
    if not isinstance(points, list):
        raise RegistryError(f"{target} is not a trajectory file (expected a list)")
    return points


def write_trajectory(
    path: Union[str, Path], points: List[Dict[str, Any]]
) -> Path:
    """Write points canonically (sorted keys, indent 2, trailing newline)."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(points, sort_keys=True, indent=2) + "\n")
    return target


def extract_metric(artifact: Union[str, Path, Dict[str, Any]], metric: str) -> float:
    """Pull one numeric metric out of a benchmark artifact JSON."""
    if not isinstance(artifact, dict):
        artifact = json.loads(Path(artifact).read_text())
    if metric not in artifact:
        raise RegistryError(
            f"metric {metric!r} not in artifact (has: "
            f"{', '.join(sorted(artifact))})"
        )
    value = artifact[metric]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise RegistryError(f"metric {metric!r} is not numeric: {value!r}")
    return float(value)


def record_point(
    point: Dict[str, Any], *, file: Union[str, Path]
) -> Dict[str, Any]:
    """Append a point to a ``BENCH_<name>.json`` trajectory file."""
    points = load_trajectory(file)
    points.append(point)
    write_trajectory(file, points)
    return point


@dataclass
class TrajectoryCheck:
    """The verdict of one regression check."""

    bench: str
    metric: str
    baseline_best: float
    candidate: float
    max_regress: float
    lower_is_better: bool = True
    baseline_points: int = 0
    regression: float = 0.0
    ok: bool = True
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "baseline_best": self.baseline_best,
            "candidate": self.candidate,
            "max_regress": self.max_regress,
            "lower_is_better": self.lower_is_better,
            "baseline_points": self.baseline_points,
            "regression": self.regression,
            "ok": self.ok,
            "notes": self.notes,
        }

    def render(self) -> str:
        direction = "lower" if self.lower_is_better else "higher"
        verdict = "OK" if self.ok else "REGRESSION"
        lines = [
            f"trajectory check [{self.bench}/{self.metric}] {verdict}: "
            f"candidate {self.candidate:.6g} vs baseline best "
            f"{self.baseline_best:.6g} ({direction} is better, "
            f"{self.baseline_points} baseline point(s))",
            f"  regression {self.regression * 100:+.1f}% against a budget "
            f"of {self.max_regress * 100:.0f}%",
        ]
        lines.extend(f"  {note}" for note in self.notes)
        return "\n".join(lines)


def check_point(
    baseline: List[Dict[str, Any]],
    candidate: Dict[str, Any],
    *,
    max_regress: float = DEFAULT_MAX_REGRESS,
) -> TrajectoryCheck:
    """Gate a candidate point against a baseline trajectory.

    The candidate is compared against the *best* baseline value for the
    same metric (min for lower-is-better, max otherwise): a trajectory
    is a ratchet — once a perf win is recorded, later code must not give
    it back, no matter how mediocre the intermediate points were.
    """
    bench = candidate.get("bench", "?")
    metric = candidate.get("metric", "?")
    matching = [
        point
        for point in baseline
        if point.get("metric") == metric
        and isinstance(point.get("value"), (int, float))
    ]
    if not matching:
        raise RegistryError(
            f"baseline trajectory has no points for metric {metric!r} "
            f"(bench {bench!r}) — record one first"
        )
    lower = bool(candidate.get("lower_is_better", True))
    values = [float(point["value"]) for point in matching]
    best = min(values) if lower else max(values)
    value = float(candidate["value"])
    if best == 0.0:
        regression = 0.0 if value == 0.0 else float("inf")
    elif lower:
        regression = (value - best) / best
    else:
        regression = (best - value) / best
    check = TrajectoryCheck(
        bench=bench,
        metric=metric,
        baseline_best=best,
        candidate=value,
        max_regress=max_regress,
        lower_is_better=lower,
        baseline_points=len(matching),
        regression=regression,
        ok=regression <= max_regress,
    )
    if not check.ok:
        check.notes.append(
            "the committed BENCH baseline is a ratchet: either fix the "
            "regression or consciously re-baseline the trajectory file"
        )
    return check
