"""End-to-end benchmark of the Plug Your Volt reproduction.

Runs each workload in fresh processes (``child.py``), one closed-loop
client per process, checks every unit's output, and prints every metric
by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Metric names,
units and bounds live in ``BENCHMARK.json`` at the repository root;
``README.md`` next to this file explains them.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--units N] [--out F]

Untraced runs report the end-to-end metrics, measured in three fresh
processes that split ``--seconds`` between them.  ``--trace`` runs one
process, half untraced and half under the per-layer tracer, and reports
the per-layer metrics; it also writes one Chrome trace per workload and
``layers.json`` to ``.e2e_work/trace/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".e2e_work"
TRACE_DIR = WORK / "trace"

#: Fresh processes per untraced run; ``setup_s`` is their median.
PROCESSES = 3

#: A run must end within 180 s; a child gets what is left of this.
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def child_env(rundir: Path) -> Dict[str, str]:
    """The environment of every benchmark process.

    ``REPRO_*`` knobs from the caller are dropped so every run takes the
    library defaults.  Bytecode is cached under the work directory (the
    caller's ``PYTHONDONTWRITEBYTECODE`` would make every import compile
    from source), the default run registry points into the run's own
    directory, and ``git describe`` (the registry's code fingerprint)
    never searches above the checkout.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONHOME")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["REPRO_REGISTRY_DIR"] = str(rundir / "registry")
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def spawn(args, workload: str, rundir: Path, index: int, seconds: float, units: int,
          deadline: float) -> Optional[Dict[str, Any]]:
    """Run one child process to completion; returns its record or None."""
    workdir = rundir / f"process-{index}"
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--units", str(units),
        "--workdir", str(workdir), "--root", str(ROOT), "--result", str(result),
    ]
    if args.trace:
        command += ["--trace", "--chrome-trace", str(TRACE_DIR / f"{workload}.trace.json")]
    process = subprocess.Popen(
        [*command, "--spawned", repr(time.monotonic())],
        cwd=ROOT,
        env=child_env(workdir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        _, stderr = process.communicate()
        stderr += "\ntimed out"
    # The child's process group holds any pool workers or launched
    # interpreters it left behind.
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if process.returncode != 0 or not result.exists():
        print(f"[{workload}] process {index} failed:\n{stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def failed_units(units: List[Dict[str, Any]]) -> List[str]:
    """Errors of failed units, after the cross-process digest check."""
    errors = [unit["error"] for unit in units if not unit["ok"]]
    passed = [unit for unit in units if unit["ok"]]
    for unit in passed[1:]:
        if unit["digests"] != passed[0]["digests"]:
            unit["ok"] = False
            errors.append("unit digests differ between processes")
    return errors


def golden_mismatches(workload: str, seed: int, digests: Dict[str, str]) -> List[str]:
    """Digest names that differ from ``golden.json`` (which covers one seed)."""
    golden = json.loads((HERE / "golden.json").read_text())
    if seed != golden["seed"]:
        return []
    expected = golden["workloads"].get(workload, {})
    return sorted(name for name, value in expected.items() if digests.get(name) != value)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(args, workload: str, records: List[Optional[Dict[str, Any]]],
              spec: Dict[str, Any]) -> Dict[str, Any]:
    """Aggregate child records into the printed result."""
    alive = [record for record in records if record is not None]
    units = [unit for record in alive for unit in record["units"]]
    errors = failed_units(units) + ["a benchmark process failed"] * (len(records) - len(alive))
    passed = [unit for unit in units if unit["ok"]]
    digests = passed[0]["digests"] if passed else {}
    mismatched = golden_mismatches(workload, args.seed, digests)
    if mismatched:
        errors.append(f"digests differ from golden.json for seed {args.seed}: {mismatched}")
    # A run whose processes all died still attempted (and failed) one unit.
    attempted = len(units) or 1
    failed = attempted - len(passed)

    if args.trace:
        record = alive[0] if alive else {}
        values = dict(record.get("layers", {}))
        untraced = statistics.median(record.get("untraced_walls") or [0.0])
        traced = statistics.median(record.get("traced_walls") or [0.0])
        values["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        values["trace.unit_wall_s"] = traced
        names = spec["per_layer"]
    else:
        # Medians of host-adjusted times (child.py explains them) over the
        # run's processes and over its passed units.
        values = {
            "setup_s": median(r["setup_adjusted_s"] for r in alive),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in alive),
            "unit_s": median(u["adjusted_s"] for u in passed),
            "work_per_s": median(u["work"] / u["adjusted_s"] for u in passed),
        }
        names = spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in names
    }
    claims: Dict[str, float] = {}
    for unit in passed:
        claims.update(unit.get("claims", {}))
    summary = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    extra = {
        "errors": errors,
        "digests": digests,
        "claims": claims,
        "processes": len(records),
        "units": len(units),
        # Raw samples, per process, for estimators other than the printed ones.
        "setups_s": [record["setup_s"] for record in alive],
        "setups_adjusted_s": [record.get("setup_adjusted_s") for record in alive],
        "unit_walls_s": [[u["wall_s"] for u in record["units"] if u["ok"]] for record in alive],
        "unit_adjusted_s": [
            [u["adjusted_s"] for u in record["units"] if "adjusted_s" in u] for record in alive
        ],
    }
    if args.trace and alive:
        extra["self_s"] = alive[0].get("self_s", {})
        extra["layer_coverage"] = alive[0].get("layer_coverage", 0.0)
    return {"summary": summary, "extra": extra}


def print_table(workload: str, args, result: Dict[str, Any]) -> None:
    summary, extra = result["summary"], result["extra"]
    item = workloads.WORKLOADS[workload].item
    mode = "traced" if args.trace else "untraced"
    print(
        f"== {workload} ({mode}, seed {args.seed}): {extra['units']} units in "
        f"{extra['processes']} process(es), correct: {summary['correct']}"
    )
    walls = [wall for process in extra["unit_walls_s"] for wall in process]
    for name, metric in summary["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (host-adjusted, median of n={len(extra['setups_s'])})"
        elif name == "unit_s":
            note = f"  (host-adjusted, median of n={len(walls)})"
        elif name == "work_per_s":
            note = f"  ({item} per host-adjusted second, median unit)"
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    if walls and not args.trace:
        # The same, as measured: wall-clock times at whatever speed the
        # host ran.
        print(f"  {'setup_wall_s (not gated)':<40} {median(extra['setups_s']):>14.6g} s")
        print(f"  {'wall_p50_s (not gated)':<40} {median(walls):>14.6g} s")
        print(f"  {'wall_min_s (not gated)':<40} {min(walls):>14.6g} s")
    print(
        f"  {'error_rate':<40} {summary['failed'] / summary['attempted']:>14.6g} fraction"
        f"  ({summary['failed']}/{summary['attempted']})"
    )
    overhead = extra["claims"].get("table2_mean_base_overhead")
    if overhead is not None:
        print(
            f"  Table 2 mean base overhead {overhead:.3%} "
            f"(paper: {workloads.PAPER_TABLE2_OVERHEAD:.2%}, claim: < "
            f"{workloads.TABLE2_BUDGET:.0%})"
        )
    if "layer_coverage" in extra:
        print(
            f"  named layers cover {extra['layer_coverage']:.1%} of the traced unit wall time"
        )
    for error in extra["errors"][:3]:
        print(f"  FAILED: {error.strip().splitlines()[-1]}")


def run_workload(args, workload: str, spec: Dict[str, Any], rundir: Path) -> Dict[str, Any]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        plan = [(args.seconds, args.units)]
    elif args.units:
        count = min(PROCESSES, args.units)
        plan = [(0.0, args.units // count + (i < args.units % count)) for i in range(count)]
    else:
        plan = [(args.seconds / PROCESSES, 0)] * PROCESSES
    records = [
        spawn(args, workload, rundir, index, seconds, units, deadline)
        for index, (seconds, units) in enumerate(plan)
    ]
    result = summarize(args, workload, records, spec)
    if args.trace:
        layers_path = TRACE_DIR / "layers.json"
        layers = json.loads(layers_path.read_text()) if layers_path.exists() else {}
        layers[workload] = {
            "seed": args.seed,
            "metrics": {k: v["value"] for k, v in result["summary"]["metrics"].items()},
            "self_s": result["extra"].get("self_s", {}),
            "layer_coverage": result["extra"].get("layer_coverage", 0.0),
        }
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        layers_path.write_text(json.dumps(layers, indent=2, sort_keys=True) + "\n")
    return result


def machine() -> Dict[str, Any]:
    # Read from the package metadata, not by importing numpy: a child
    # process's ru_maxrss starts from this process's size at the fork.
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Plug Your Volt reproduction."
    )
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload (default: all six in turn)")
    parser.add_argument("--seed", type=int, default=5,
                        help="input seed (golden digests are committed for 5)")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run, split across its processes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer metrics of a traced run")
    parser.add_argument("--units", type=int, default=0,
                        help="run exactly this many units instead of --seconds")
    parser.add_argument("--out", help="append one JSON record per workload run to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    rundir = WORK / f"run-{os.getpid()}"
    results = {}
    try:
        for workload in names:
            result = run_workload(args, workload, spec, rundir / workload)
            results[workload] = result
            print_table(workload, args, result)
            if args.out:
                record = {
                    "workload": workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": bool(args.trace),
                    **result["summary"],
                    "units": result["extra"]["units"],
                    "processes": result["extra"]["processes"],
                    "digests": result["extra"]["digests"],
                    "claims": result["extra"]["claims"],
                    "setups_s": result["extra"]["setups_s"],
                    "setups_adjusted_s": result["extra"]["setups_adjusted_s"],
                    "unit_walls_s": result["extra"]["unit_walls_s"],
                    "unit_adjusted_s": result["extra"]["unit_adjusted_s"],
                    "machine": machine(),
                }
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if args.workload:
        last = results[args.workload]["summary"]
    else:
        last = {
            "correct": all(r["summary"]["correct"] for r in results.values()),
            "attempted": sum(r["summary"]["attempted"] for r in results.values()),
            "failed": sum(r["summary"]["failed"] for r in results.values()),
            "workloads": {name: r["summary"] for name, r in results.items()},
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
