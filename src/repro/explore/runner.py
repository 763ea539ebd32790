"""Orchestrating one exploration through the campaign engine.

``run_explore`` is the front door: trace the victim, prune the fault
space, fan the survivors out as frozen job shards through an
:class:`~repro.engine.session.EngineSession` (serial, parallel or
supervised — the explorer does not care), and fold the payloads into the
canonical exploitability map.  Sharding (``rows_per_job``) is a pure
scheduling knob: per-point seed streams and pure-arithmetic replays make
the map byte-identical whatever the chunking or executor.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from repro.engine.jobs import ExploreInjectionJob, ExplorePointJob
from repro.errors import ConfigurationError
from repro.explore.emap import build_map
from repro.explore.plan import ExplorePlan, enumerate_injections, prune_points
from repro.explore.victim import trace_victim

logger = logging.getLogger(__name__)


def point_jobs(
    plan: ExplorePlan,
    candidates: Tuple[Tuple[float, int], ...],
    instructions: Tuple[str, ...],
    *,
    rows_per_job: int,
) -> List[ExplorePointJob]:
    """Shard the surviving operating points into probe jobs."""
    return [
        ExplorePointJob(
            codename=plan.codename,
            points=tuple(candidates[start : start + rows_per_job]),
            protect=plan.protect,
            seed=plan.seed,
            unsafe_json=plan.unsafe_json,
            instructions=instructions,
        )
        for start in range(0, len(candidates), rows_per_job)
    ]


def injection_jobs(
    plan: ExplorePlan,
    replays: Tuple[Tuple[int, str], ...],
    *,
    rows_per_job: int,
) -> List[ExploreInjectionJob]:
    """Shard the unmasked (op_index, model) pairs into replay jobs."""
    return [
        ExploreInjectionJob(
            key_bits=plan.key_bits,
            key_seed=plan.key_seed,
            message=plan.message,
            reps=tuple(replays[start : start + rows_per_job]),
            seed=plan.seed,
        )
        for start in range(0, len(replays), rows_per_job)
    ]


def run_explore(
    plan: ExplorePlan, *, session=None, rows_per_job: int = 8
) -> Dict:
    """Execute one explore plan end to end; returns the map document."""
    if rows_per_job <= 0:
        raise ConfigurationError("rows_per_job must be positive")
    if session is None:
        from repro.engine.session import get_session

        session = get_session()

    from repro.attacks.rsa_crt import RSAKey

    key = RSAKey.generate(plan.key_bits, seed=plan.key_seed)
    trace = trace_victim(key, plan.message)
    instructions = tuple(sorted({op.instruction for op in trace.ops}))

    injection_plan = enumerate_injections(trace, plan.fault_models)
    point_plan = prune_points(plan, instructions)
    logger.info(
        "explore %s%s: %d ops x %d models = %d injections "
        "(%d masked, %d simulated); %d points "
        "(%d pruned safe, %d probed)",
        plan.codename,
        " [protected]" if plan.protect else "",
        trace.op_count,
        len(plan.fault_models),
        injection_plan.enumerated,
        injection_plan.pruned_masked,
        injection_plan.simulated,
        len(point_plan.points),
        point_plan.pruned_safe,
        len(point_plan.candidates),
    )

    jobs = point_jobs(
        plan, point_plan.candidates, instructions, rows_per_job=rows_per_job
    ) + injection_jobs(plan, injection_plan.replays, rows_per_job=rows_per_job)
    split = len(point_plan.candidates) // rows_per_job + (
        1 if len(point_plan.candidates) % rows_per_job else 0
    )
    payloads = session.run_jobs(jobs)
    from repro.engine.resilience import refuse_partial

    # A map folded from partial shards would silently understate the
    # exploitable set; exhaustiveness demands every shard.
    refuse_partial(payloads, "explore plan", "job shard")

    point_records: List[Dict] = []
    for payload in payloads[:split]:
        point_records.extend(payload)
    injection_verdicts: List[Dict] = []
    for payload in payloads[split:]:
        injection_verdicts.extend(payload)

    return build_map(
        plan,
        trace,
        point_plan,
        point_records,
        injection_plan,
        injection_verdicts,
    )
