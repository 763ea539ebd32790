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

The explorer's speed is recorded beside it in two forms:

* ``injections_per_s``, the open map's simulated injections per second
  of its wall time (ARMORY's injections simulated per host second).  It
  is a wall-clock rate, written to the artifact but not gated: on a
  shared host it cannot separate a 2x regression from noise.
* ``replay_speedup``, the closed-form ``replay_with_fault`` timed against
  the op-by-op oracle ``replay_op_by_op`` on the same injections in the
  same process.  Both sides share the host, so the ratio is what the
  registry-gate workflow gates.
"""

from __future__ import annotations

import json
import time

from repro.engine import EngineSession, SerialExecutor
from repro.engine.cache import ResultCache
from repro.attacks.rsa_crt import RSAKey
from repro.explore import (
    ExplorePlan,
    canonical_json,
    corruptor,
    coverage_holds,
    enumerate_injections,
    replay_op_by_op,
    replay_with_fault,
    run_explore,
    trace_victim,
)

from conftest import write_artifact

#: Small but representative plan: spans safe, feasible and crash offsets.
FREQUENCIES = (0.8, 2.0, 3.2)
OFFSETS = tuple(range(-40, -281, -40))

#: Alternating rounds of each replay path; each side keeps its fastest.
REPLAY_ROUNDS = 5


def _plan(protect: bool = False, unsafe_json: str | None = None) -> ExplorePlan:
    return ExplorePlan(
        codename="Sky Lake",
        frequencies_ghz=FREQUENCIES,
        offsets_mv=OFFSETS,
        protect=protect,
        unsafe_json=unsafe_json,
    )


def _explore(protect: bool, unsafe_json: str | None):
    plan = _plan(protect, unsafe_json)
    session = EngineSession(
        executor=SerialExecutor(), cache=ResultCache(), registry=None
    )
    return run_explore(plan, session=session)


def _replay_speedup(plan: ExplorePlan) -> dict:
    """Time both replay paths over the plan's unmasked injections.

    The rounds alternate closed form and oracle so that host noise hits
    both; each side's minimum is its time.  Every signature is checked
    against the oracle's, so the ratio never credits a wrong answer.
    """
    key = RSAKey.generate(plan.key_bits, seed=plan.key_seed)
    trace = trace_victim(key, plan.message)
    replays = [
        (op_index, corruptor(model))
        for op_index, model in enumerate_injections(trace, plan.fault_models).replays
    ]
    closed_s = oracle_s = float("inf")
    for _ in range(REPLAY_ROUNDS):
        start = time.perf_counter()
        closed = [replay_with_fault(trace, op, fault) for op, fault in replays]
        closed_s = min(closed_s, time.perf_counter() - start)
        start = time.perf_counter()
        oracle = [
            replay_op_by_op(key, plan.message, op, fault)[0] for op, fault in replays
        ]
        oracle_s = min(oracle_s, time.perf_counter() - start)
        assert closed == oracle, "closed-form replay disagrees with the oracle"
    return {
        "replays": len(replays),
        "closed_form_seconds": closed_s,
        "oracle_seconds": oracle_s,
        "replay_speedup": oracle_s / closed_s,
    }


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
    replay = _replay_speedup(_plan())

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
                **replay,
            },
            indent=2,
            sort_keys=True,
        ),
    )
    assert prune_ratio > 0.0, "pruning tiers retired nothing"
