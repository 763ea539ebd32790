"""Analysis and reporting: region extraction, rendering, and export."""

from repro import _lazy_exports

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "boundary_to_csv": "repro.analysis.export",
    "characterization_to_csv": "repro.analysis.export",
    "characterization_to_json": "repro.analysis.export",
    "overhead_to_csv": "repro.analysis.export",
    "unsafe_set_from_json": "repro.analysis.export",
    "write_text": "repro.analysis.export",
    "FrequencyRegions": "repro.analysis.regions",
    "RegionSummary": "repro.analysis.regions",
    "extract_regions": "repro.analysis.regions",
    "summarize": "repro.analysis.regions",
    "render_boundary_series": "repro.analysis.report",
    "render_characterization_map": "repro.analysis.report",
    "render_defense_matrix": "repro.analysis.report",
    "render_table": "repro.analysis.report",
    "TraceSample": "repro.analysis.timeline",
    "VoltageTracer": "repro.analysis.timeline",
}

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "boundary_to_csv",
    "characterization_to_csv",
    "characterization_to_json",
    "overhead_to_csv",
    "unsafe_set_from_json",
    "write_text",
    "FrequencyRegions",
    "RegionSummary",
    "extract_regions",
    "summarize",
    "render_boundary_series",
    "render_characterization_map",
    "render_defense_matrix",
    "render_table",
    "TraceSample",
    "VoltageTracer",
]
