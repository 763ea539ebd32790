"""Exhaustive fault-space exploration (ARMORY-style) for victim kernels.

Where the attack campaigns *sample* a handful of seeded injection
points, ``repro.explore`` enumerates the **entire** (operation-index ×
instruction-class × fault-model × operating-point) space for a victim —
first target: the RSA-CRT signer — prunes the provably uninteresting
elements before simulation, fans the survivors through the campaign
engine as frozen fingerprinted job shards, and folds the results into a
canonical *exploitability map*.  Re-running the identical plan with the
polling countermeasure loaded must drive the exploitable set to exactly
zero: coverage, not anecdote.

Layout:

* :mod:`repro.explore.victim` — the tracing ALU sharing the attack
  path's ``BigIntALU`` op sequence, and the closed-form single-fault
  replay;
* :mod:`repro.explore.faultspace` — the deterministic fault-model
  catalog (``flip:<b>``, ``trunc64``, ``zero``);
* :mod:`repro.explore.plan` — frozen plans and the two pruning tiers
  (grid-safe points, masked injections);
* :mod:`repro.explore.runner` — orchestration through the engine;
* :mod:`repro.explore.emap` — map assembly, canonical JSON, coverage
  reports.
"""

from repro.explore.emap import (
    build_map,
    canonical_json,
    coverage_holds,
    load_map,
    render_report,
)
from repro.explore.faultspace import DEFAULT_FAULT_MODELS, corrupt, corruptor
from repro.explore.plan import (
    EXPLORE_SCHEMA_VERSION,
    ExplorePlan,
    InjectionPlan,
    PointPlan,
    enumerate_injections,
    prune_points,
)
from repro.explore.runner import run_explore
from repro.explore.victim import (
    TracedOp,
    TracingALU,
    VictimTrace,
    modexp_op_count,
    replay_op_by_op,
    replay_with_fault,
    trace_victim,
)

__all__ = [
    "DEFAULT_FAULT_MODELS",
    "EXPLORE_SCHEMA_VERSION",
    "ExplorePlan",
    "InjectionPlan",
    "PointPlan",
    "TracedOp",
    "TracingALU",
    "VictimTrace",
    "build_map",
    "canonical_json",
    "corrupt",
    "corruptor",
    "coverage_holds",
    "enumerate_injections",
    "load_map",
    "modexp_op_count",
    "prune_points",
    "render_report",
    "replay_op_by_op",
    "replay_with_fault",
    "run_explore",
    "trace_victim",
]
