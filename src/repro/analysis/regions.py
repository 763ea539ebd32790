"""Region extraction from characterization grids.

Turns the raw cell list of Algo 2 into the per-frequency structure the
paper's Figs. 2-4 visualise: a *safe* band of offsets, then a *fault*
band ("region of interest where faults begin to manifest"), then the
crash that bounds the unsafe region's width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.core.characterization import CharacterizationResult


@dataclass(frozen=True)
class FrequencyRegions:
    """The safe/fault/crash structure at one frequency."""

    frequency_ghz: float
    #: Deepest offset with no observed faults (the bottom of the safe band).
    deepest_safe_mv: Optional[int]
    #: Shallowest offset with observed faults (top of the fault band).
    first_fault_mv: Optional[int]
    #: Offset at which the machine crashed (bottom of the fault band).
    crash_mv: Optional[int]

    @property
    def fault_band_width_mv(self) -> Optional[int]:
        """Width of the unsafe-but-not-crashing band, if both edges known."""
        if self.first_fault_mv is None or self.crash_mv is None:
            return None
        return self.first_fault_mv - self.crash_mv

    @property
    def has_fault_band(self) -> bool:
        """Whether any faulting (non-crash) offset was observed."""
        return self.first_fault_mv is not None


def extract_regions(result: CharacterizationResult) -> List[FrequencyRegions]:
    """Per-frequency region structure, ascending frequency."""
    by_frequency: Dict[int, dict] = {}
    for cell in result.cells:
        key = round(cell.frequency_ghz * 10)
        bucket = by_frequency.setdefault(
            key, {"safe": [], "fault": [], "crash": []}
        )
        if cell.crashed:
            bucket["crash"].append(cell.offset_mv)
        elif cell.fault_count > 0:
            bucket["fault"].append(cell.offset_mv)
        else:
            bucket["safe"].append(cell.offset_mv)
    regions = []
    for key in sorted(by_frequency):
        bucket = by_frequency[key]
        faults = bucket["fault"] + bucket["crash"]
        regions.append(
            FrequencyRegions(
                frequency_ghz=key / 10.0,
                deepest_safe_mv=min(bucket["safe"]) if bucket["safe"] else None,
                first_fault_mv=max(faults) if faults else None,
                crash_mv=max(bucket["crash"]) if bucket["crash"] else None,
            )
        )
    return regions


@dataclass(frozen=True)
class RegionSummary:
    """Aggregate shape facts about one characterization."""

    system: str
    frequencies: int
    shallowest_fault_mv: float
    deepest_fault_mv: float
    mean_fault_band_width_mv: float
    maximal_safe_mv: float


def summarize(result: CharacterizationResult, *, margin_mv: float = 15.0) -> RegionSummary:
    """Shape summary used by EXPERIMENTS.md and the figure benches."""
    regions = extract_regions(result)
    boundaries = [r.first_fault_mv for r in regions if r.first_fault_mv is not None]
    widths = [r.fault_band_width_mv for r in regions if r.fault_band_width_mv is not None]
    return RegionSummary(
        system=result.model.codename,
        frequencies=len(regions),
        shallowest_fault_mv=float(max(boundaries)) if boundaries else 0.0,
        deepest_fault_mv=float(min(boundaries)) if boundaries else 0.0,
        mean_fault_band_width_mv=float(sum(widths) / len(widths)) if widths else 0.0,
        maximal_safe_mv=result.maximal_safe_offset_mv(margin_mv=margin_mv),
    )
