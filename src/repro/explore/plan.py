"""Deterministic explore plans and fault-space pruning.

An :class:`ExplorePlan` names the full Cartesian fault space for one
victim: every traced operation index × every deterministic fault model ×
every (frequency, offset) operating point.  Before anything is
simulated, two pruning tiers cut the space down — each one *sound*, in
the sense that a pruned element's verdict is proven, not guessed
(``tests/test_explore.py`` brute-forces a small plan unpruned to check
exactly this):

1. **Safe-region points** (:func:`prune_points`): the ``repro.vector``
   grid kernels evaluate the fault physics at every requested operating
   point; points where every instruction class present in the victim has
   zero fault probability and no crash are pruned as ``safe``.  Sound
   with the countermeasure loaded too: remediation only *raises* the
   effective voltage, and the violated fraction is monotone decreasing
   in voltage.
2. **Masked injections** (:func:`enumerate_injections`): a corrupted
   product whose residue under its consuming modulus equals the golden
   residue provably cannot reach the signature — pruned as ``masked``
   without replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cpu.models import model_by_codename
from repro.errors import ConfigurationError
from repro.explore.faultspace import DEFAULT_FAULT_MODELS, corrupt, validate_models
from repro.explore.victim import VictimTrace

#: Bumped whenever map semantics change (mirrors the engine's job schema).
EXPLORE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExplorePlan:
    """The frozen description of one exhaustive exploration.

    Everything the run depends on travels in the plan: the CPU, the
    operating-point grid, the victim key material, the fault-model
    catalog, and — when ``protect`` is set — the characterized
    unsafe-state set the polling countermeasure deploys from
    (canonical JSON, exactly as :class:`~repro.engine.jobs.AttackCampaignJob`
    carries it).
    """

    codename: str
    frequencies_ghz: Tuple[float, ...]
    offsets_mv: Tuple[int, ...]
    fault_models: Tuple[str, ...] = DEFAULT_FAULT_MODELS
    key_bits: int = 128
    key_seed: int = 42
    message: int = 0xDEADBEEF
    protect: bool = False
    unsafe_json: Optional[str] = None
    seed: int = 5

    def __post_init__(self) -> None:
        if not self.frequencies_ghz:
            raise ConfigurationError("an explore plan needs at least one frequency")
        if not self.offsets_mv:
            raise ConfigurationError("an explore plan needs at least one offset")
        validate_models(self.fault_models)
        if self.protect and self.unsafe_json is None:
            raise ConfigurationError(
                "protected explore plans must carry the characterized "
                "unsafe-state set (unsafe_json)"
            )
        model_by_codename(self.codename)  # raises on unknown CPUs

    def describe(self) -> Dict[str, object]:
        """JSON-safe plan summary embedded in the exploitability map."""
        return {
            "codename": self.codename,
            "frequencies_ghz": list(self.frequencies_ghz),
            "offsets_mv": list(self.offsets_mv),
            "fault_models": list(self.fault_models),
            "key_bits": self.key_bits,
            "key_seed": self.key_seed,
            "message": self.message,
            "protect": self.protect,
            "seed": self.seed,
        }


# -- tier 1: operating-point pruning via the vector grid kernels -----------------


@dataclass(frozen=True)
class PointPlan:
    """The operating-point axis after grid pruning."""

    #: Every requested (frequency_ghz, offset_mv), in plan order.
    points: Tuple[Tuple[float, int], ...]
    #: Grid-predicted status per point: "safe" (pruned), "candidate".
    predicted: Tuple[str, ...]

    @property
    def candidates(self) -> Tuple[Tuple[float, int], ...]:
        """Points that must be probed on a live machine."""
        return tuple(
            point
            for point, status in zip(self.points, self.predicted)
            if status == "candidate"
        )

    @property
    def pruned_safe(self) -> int:
        return sum(1 for status in self.predicted if status == "safe")


def prune_points(plan: ExplorePlan, instructions: Tuple[str, ...]) -> PointPlan:
    """Classify every requested operating point with the grid kernels.

    A point is pruned ``safe`` only when *every* instruction class the
    victim executes has zero fault probability there and the point is
    not past the crash boundary.  Everything else — feasible or crash —
    stays a candidate and is probed on a live machine (which also
    captures what the countermeasure does to the realized conditions).
    """
    from repro.faults.margin import FaultModel
    from repro.vector import explore_feasibility_grid

    fault_model = FaultModel(model_by_codename(plan.codename))
    points: List[Tuple[float, int]] = []
    predicted: List[str] = []
    for frequency in plan.frequencies_ghz:
        grid = explore_feasibility_grid(
            fault_model, frequency, plan.offsets_mv, instructions=instructions
        )
        for column, offset in enumerate(plan.offsets_mv):
            points.append((frequency, int(offset)))
            predicted.append("safe" if bool(grid.safe[column]) else "candidate")
    return PointPlan(points=tuple(points), predicted=tuple(predicted))


# -- tier 2: injection-space pruning ---------------------------------------------


@dataclass(frozen=True)
class InjectionPlan:
    """The injection axis after masked pruning."""

    #: (op_index, model) pairs to replay, in op-then-model order.
    replays: Tuple[Tuple[int, str], ...]
    #: (op_index, model) pairs proven unable to reach the signature.
    masked: Tuple[Tuple[int, str], ...]
    enumerated: int = 0

    @property
    def pruned_masked(self) -> int:
        return len(self.masked)

    @property
    def simulated(self) -> int:
        return len(self.replays)


def enumerate_injections(
    trace: VictimTrace, fault_models: Tuple[str, ...]
) -> InjectionPlan:
    """Enumerate op × model, pruning the masked pairs."""
    replays: List[Tuple[int, str]] = []
    masked: List[Tuple[int, str]] = []
    enumerated = 0
    for op in trace.ops:
        modulus = trace.consumed_modulus(op)
        golden_residue = op.product % modulus
        for model in fault_models:
            enumerated += 1
            if corrupt(model, op.product) % modulus == golden_residue:
                masked.append((op.index, model))
            else:
                replays.append((op.index, model))
    return InjectionPlan(
        replays=tuple(replays), masked=tuple(masked), enumerated=enumerated
    )
