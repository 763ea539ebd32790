"""Rendering: ASCII figures and aligned tables for every experiment.

The benchmark targets print through these helpers so the harness output
reads like the paper's artefacts: a safe/unsafe characterization map per
CPU (Figs. 2-4), the Table 2 overhead rows, the timing diagram facts of
Fig. 1, and the defense-comparison matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence

from repro.analysis.regions import extract_regions

if TYPE_CHECKING:
    from repro.core.characterization import CharacterizationResult


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Monospace-aligned table."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_characterization_map(
    result: CharacterizationResult,
    *,
    offset_bin_mv: int = 10,
    max_depth_mv: int = 300,
) -> str:
    """The Figs. 2-4 view: offsets (rows) x frequencies (columns).

    Legend: ``.`` safe, ``x`` faults observed, ``#`` crash, `` `` not
    probed (beyond the crash at that frequency).
    """
    regions = extract_regions(result)
    if not regions:
        return "(empty characterization)"
    frequencies = [r.frequency_ghz for r in regions]
    lines = [
        f"{result.model.describe()}",
        f"safe '.' | fault 'x' | crash '#'   (columns: "
        f"{frequencies[0]:.1f}-{frequencies[-1]:.1f} GHz)",
    ]
    header = "offset mV  " + "".join(
        f"{f:>4.1f}"[-1] if i % 5 else f"{f:>4.1f}"[0] for i, f in enumerate(frequencies)
    )
    # A simple column ruler: mark every 5th frequency with its value.
    ruler = "           "
    for i, f in enumerate(frequencies):
        ruler += f"{f:.1f}"[0] if i % 5 == 0 else " "
    lines.append(ruler)
    del header
    by_freq = {round(r.frequency_ghz * 10): r for r in regions}
    for shallow in range(0, max_depth_mv, offset_bin_mv):
        deep = shallow + offset_bin_mv
        mid = -(shallow + offset_bin_mv / 2.0)
        row_chars = []
        for f in frequencies:
            region = by_freq[round(f * 10)]
            first_fault = region.first_fault_mv
            crash = region.crash_mv
            if crash is not None and mid <= crash:
                row_chars.append("#" if mid >= crash - offset_bin_mv else " ")
            elif first_fault is not None and mid <= first_fault:
                row_chars.append("x")
            else:
                row_chars.append(".")
        lines.append(f"{-shallow:>4d}..{-deep:<4d} " + "".join(row_chars))
    return "\n".join(lines)


def render_boundary_series(result: CharacterizationResult) -> str:
    """(frequency, first-fault offset, crash offset) series for plotting."""
    rows = []
    for region in extract_regions(result):
        rows.append(
            (
                f"{region.frequency_ghz:.1f}",
                region.first_fault_mv if region.first_fault_mv is not None else "-",
                region.crash_mv if region.crash_mv is not None else "-",
                region.fault_band_width_mv if region.fault_band_width_mv is not None else "-",
            )
        )
    return render_table(
        ["freq (GHz)", "first fault (mV)", "crash (mV)", "band width (mV)"],
        rows,
        title=f"Safe/unsafe boundary — {result.model.codename}",
    )


def render_defense_matrix(profiles: Iterable[Mapping[str, object]]) -> str:
    """The countermeasure-philosophy comparison of Sec. 1/4.1."""
    rows = []
    for profile in profiles:
        rows.append(
            (
                profile["defense"],
                "yes" if profile["prevents_injection"] else "no",
                "yes" if profile["benign_dvfs"] else "no",
                "yes" if profile["single_step_robust"] else "no",
                "yes" if profile["hw_deployable"] else "no",
                f"{float(profile['overhead']) * 100:.2f}%",
            )
        )
    return render_table(
        [
            "defense",
            "prevents injection",
            "benign DVFS",
            "single-step robust",
            "HW deployable",
            "overhead",
        ],
        rows,
        title="Countermeasure comparison",
    )
