"""Exploitability maps: assembly, canonical serialization, reports.

The map is the explorer's deliverable: one JSON document recording, for
the *entire* enumerated fault space, what happened to every element —
probed or pruned — plus the pruning ledger that accounts for the
difference.  It is canonical (sorted keys, no wall times, no floats that
depend on execution order), so byte-identity across shardings and
executors is a meaningful contract, and two maps diff meaningfully:
``render_report`` turns an (open, protected) pair into the
defense-coverage report the paper's "completely prevents" claim calls
for.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.explore.plan import (
    EXPLORE_SCHEMA_VERSION,
    ExplorePlan,
    InjectionPlan,
    PointPlan,
)
from repro.explore.victim import VictimTrace


def build_map(
    plan: ExplorePlan,
    trace: VictimTrace,
    point_plan: PointPlan,
    point_records: List[Dict],
    injection_plan: InjectionPlan,
    injection_verdicts: List[Dict],
) -> Dict:
    """Fold plan, pruning ledgers and job payloads into one map document."""
    # Operating points: pruned-safe entries merge with probed records,
    # in plan order.
    probed = {
        (record["frequency_ghz"], record["offset_mv"]): record
        for record in point_records
    }
    points: List[Dict] = []
    for point, predicted in zip(point_plan.points, point_plan.predicted):
        if predicted == "safe":
            points.append(
                {
                    "frequency_ghz": point[0],
                    "offset_mv": point[1],
                    "status": "safe",
                    "pruned": "grid-safe",
                }
            )
        else:
            record = dict(probed[point])
            record["pruned"] = None
            points.append(record)

    # Injections: replayed verdicts, and masked prunes with their proof
    # tag.  ``class_rep`` names the replayed model itself.
    verdict_by_pair = {
        (verdict["op_index"], verdict["model"]): verdict["verdict"]
        for verdict in injection_verdicts
    }
    injections: List[Dict] = []
    masked = set(injection_plan.masked)
    for op in trace.ops:
        for model in plan.fault_models:
            key = (op.index, model)
            entry = {
                "op_index": op.index,
                "model": model,
                "region": op.region,
                "instruction": op.instruction,
            }
            if key in masked:
                entry["verdict"] = "masked"
                entry["pruned"] = "masked"
            else:
                entry["verdict"] = verdict_by_pair[key]
                entry["pruned"] = None
                entry["class_rep"] = model
            injections.append(entry)

    feasible_points = sum(1 for p in points if p["status"] == "feasible")
    crash_points = sum(1 for p in points if p["status"] == "crash")
    exploitable_pairs = sum(
        1 for i in injections if i["verdict"] == "exploitable"
    )
    return {
        "kind": "explore-map",
        "schema": EXPLORE_SCHEMA_VERSION,
        "plan": plan.describe(),
        "victim": {
            "kernel": "rsa-crt",
            "ops": trace.op_count,
            "regions": trace.region_sizes(),
            "instructions": sorted({op.instruction for op in trace.ops}),
        },
        "points": points,
        "injections": injections,
        "stats": {
            "points_enumerated": len(point_plan.points),
            "points_pruned_safe": point_plan.pruned_safe,
            "points_probed": len(point_plan.candidates),
            "injections_enumerated": injection_plan.enumerated,
            "injections_pruned_masked": injection_plan.pruned_masked,
            "injections_pruned_equivalent": 0,
            "injections_simulated": injection_plan.simulated,
        },
        "summary": {
            "feasible_points": feasible_points,
            "crash_points": crash_points,
            "exploitable_pairs": exploitable_pairs,
            # The exploitable set of the full product space: every
            # feasible operating point can land every exploitable
            # (op, model) pair.
            "exploitable_points": feasible_points * exploitable_pairs,
        },
    }


def canonical_json(document: Dict) -> str:
    """The map's canonical byte form (what the identity tests compare)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def load_map(path) -> Dict:
    """Read a map document, rejecting files that are not explore maps."""
    with open(path) as handle:
        document = json.load(handle)
    if document.get("kind") != "explore-map":
        raise ConfigurationError(f"{path} is not an explore map")
    return document


def render_report(
    open_map: Dict, protected_map: Optional[Dict] = None
) -> str:
    """Human-readable coverage report; diffs the defended map when given."""
    lines: List[str] = []
    for label, document in (("open", open_map), ("protected", protected_map)):
        if document is None:
            continue
        stats = document["stats"]
        summary = document["summary"]
        plan = document["plan"]
        lines.append(
            f"[{label}] {plan['codename']} · rsa-crt {plan['key_bits']}-bit "
            f"· {len(plan['fault_models'])} fault models"
        )
        lines.append(
            f"  points: {stats['points_enumerated']} enumerated, "
            f"{stats['points_pruned_safe']} pruned safe, "
            f"{stats['points_probed']} probed -> "
            f"{summary['feasible_points']} feasible, "
            f"{summary['crash_points']} crash"
        )
        lines.append(
            f"  injections: {stats['injections_enumerated']} enumerated, "
            f"{stats['injections_pruned_masked']} pruned masked, "
            f"{stats['injections_simulated']} simulated -> "
            f"{summary['exploitable_pairs']} exploitable pairs"
        )
        lines.append(
            f"  exploitable points: {summary['exploitable_points']}"
        )
    if protected_map is not None:
        before = open_map["summary"]["exploitable_points"]
        after = protected_map["summary"]["exploitable_points"]
        removed = before - after
        lines.append(
            f"coverage: {before} exploitable point(s) undefended, "
            f"{after} with the polling countermeasure "
            f"({removed} removed)"
        )
        verdict = (
            "COVERED: the countermeasure eliminates the entire "
            "exploitable set"
            if coverage_holds(open_map, protected_map)
            else "NOT COVERED: exploitable points survive (or the open "
            "map found none to begin with)"
        )
        lines.append(verdict)
    return "\n".join(lines)


def coverage_holds(open_map: Dict, protected_map: Dict) -> bool:
    """The paper's prevention claim over the whole fault space.

    True iff the undefended map found a non-empty exploitable set and
    the defended map's is exactly empty — coverage, not anecdote.
    """
    return (
        open_map["summary"]["exploitable_points"] > 0
        and protected_map["summary"]["exploitable_points"] == 0
    )
