"""Fault-space explorer acceptance: coverage with a deterministic prune ratio.

Runs the small Sky Lake exploration plan twice — undefended, then with
the polling countermeasure loaded — and asserts the coverage contract
(exploitable points > 0 open, exactly 0 protected).  The recorded metric
is the overall *prune ratio*: the fraction of the enumerated fault space
(operating points plus injection pairs) the two pruning tiers retired
without simulation.  The ratio is a pure function of the plan and the
victim trace — no wall-clock in it — so the committed baseline in
``benchmarks/trajectories/BENCH_explore.json`` is gated tightly by
``repro trajectory check`` in the registry-gate workflow.

The explorer's speed is recorded beside it: ``injections_per_s`` is the
open map's simulated injections per second of its wall time (ARMORY's
injections simulated per host second), gated in the same workflow with
a budget wide enough for CI host noise.
"""

from __future__ import annotations

import json
import time

from repro.engine import EngineSession, SerialExecutor
from repro.engine.cache import ResultCache
from repro.explore import ExplorePlan, canonical_json, coverage_holds, run_explore

from conftest import record_trajectory, write_artifact

#: Small but representative plan: spans safe, feasible and crash offsets.
FREQUENCIES = (0.8, 2.0, 3.2)
OFFSETS = tuple(range(-40, -281, -40))


def _explore(protect: bool, unsafe_json: str | None):
    plan = ExplorePlan(
        codename="Sky Lake",
        frequencies_ghz=FREQUENCIES,
        offsets_mv=OFFSETS,
        protect=protect,
        unsafe_json=unsafe_json,
    )
    session = EngineSession(
        executor=SerialExecutor(), cache=ResultCache(), registry=None
    )
    return run_explore(plan, session=session)


def test_explore_coverage_and_prune_ratio(benchmark, skylake_characterization):
    start = time.perf_counter()
    open_map = benchmark.pedantic(
        _explore, args=(False, None), rounds=1, iterations=1
    )
    open_s = time.perf_counter() - start

    unsafe_json = json.dumps(
        skylake_characterization.unsafe_states.to_dict(), sort_keys=True
    )
    protected_map = _explore(True, unsafe_json)

    # The coverage contract the whole subsystem exists for.
    assert open_map["summary"]["exploitable_points"] > 0
    assert protected_map["summary"]["exploitable_points"] == 0
    assert coverage_holds(open_map, protected_map)

    stats = open_map["stats"]
    enumerated = stats["points_enumerated"] + stats["injections_enumerated"]
    pruned = (
        stats["points_pruned_safe"]
        + stats["injections_pruned_masked"]
    )
    prune_ratio = pruned / enumerated
    injections_per_s = stats["injections_simulated"] / open_s

    write_artifact("explore_open.map.json", canonical_json(open_map).rstrip())
    write_artifact(
        "explore.json",
        json.dumps(
            {
                "plan": open_map["plan"],
                "stats": stats,
                "summary_open": open_map["summary"],
                "summary_protected": protected_map["summary"],
                "prune_ratio": prune_ratio,
                "open_seconds": open_s,
                "injections_per_s": injections_per_s,
            },
            indent=2,
            sort_keys=True,
        ),
    )
    record_trajectory(
        "explore",
        "prune_ratio",
        prune_ratio,
        unit="frac",
        lower_is_better=False,
        context={
            "points": stats["points_enumerated"],
            "injections": stats["injections_enumerated"],
        },
    )
    record_trajectory(
        "explore",
        "injections_per_s",
        injections_per_s,
        unit="1/s",
        lower_is_better=False,
        context={"injections_simulated": stats["injections_simulated"]},
    )
    assert prune_ratio > 0.0, "pruning tiers retired nothing"
