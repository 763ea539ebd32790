"""Compare two sets of benchmark runs metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appends, one per workload
run; a set is several runs, usually one per seed.  For every (workload,
end-to-end metric) the table shows both sides' median and quartiles, the
change of B against A, the bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved`` — either side's interquartile spread, as a share of its
  median, exceeds the bound, so the runs cannot tell a change that size;
* ``worse`` / ``better`` — B's median moved by more than the bound;
* ``within`` — otherwise.

Exits 1 when any pair is ``worse``, and 2 without comparing when the two
sets were measured with different run lengths (``--seconds``).
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], Set[float]]:
    """A file's untraced metric values per (workload, metric), and the
    run lengths (``--seconds``) its records were measured with."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    seconds: Set[float] = set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        seconds.add(record["seconds"])
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values, seconds


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """The verdict for one pair and B's relative change (signed)."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    change = (b_median - a_median) / a_median
    worsening = change if better == "lower" else -change
    if (a_q3 - a_q1) / a_median > bound or (b_q3 - b_q1) / b_median > bound:
        return "unresolved", change
    if worsening > bound:
        return "worse", change
    if worsening < -bound:
        return "better", change
    return "within", change


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("a", help="baseline result file (run.py --out)")
    parser.add_argument("b", help="candidate result file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    (a, a_seconds), (b, b_seconds) = load(args.a), load(args.b)
    if len(a_seconds | b_seconds) > 1:
        print(f"run lengths differ (A: {sorted(a_seconds)} s, B: {sorted(b_seconds)} s); "
              "both sets must be measured with the same --seconds")
        return 2
    workloads = sorted({workload for workload, _ in a} & {workload for workload, _ in b})
    header = (
        f"{'workload':<15} {'metric':<12} {'A median':>11} {'A q1..q3':>21} "
        f"{'B median':>11} {'B q1..q3':>21} {'change':>8} {'bound':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = False
    for workload in workloads:
        for name, entry in metrics.items():
            key = (workload, name)
            if key not in a or key not in b:
                continue
            result, change = verdict(a[key], b[key], entry["better"], entry["bound"])
            worse |= result == "worse"
            a_q1, a_median, a_q3 = quartiles(a[key])
            b_q1, b_median, b_q3 = quartiles(b[key])
            print(
                f"{workload:<15} {name:<12} {a_median:>11.5g} "
                f"{f'{a_q1:.5g}..{a_q3:.5g}':>21} {b_median:>11.5g} "
                f"{f'{b_q1:.5g}..{b_q3:.5g}':>21} {change:>+8.1%} "
                f"{entry['bound']:>6.0%}  {result}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
