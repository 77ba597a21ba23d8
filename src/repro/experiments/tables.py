"""Plain-text tables for sweep results.

The paper presents its results as figures; lacking a plotting dependency,
the harness prints the same series as aligned text tables — one row per
offered load, one latency and one throughput column per algorithm.  (CSV
for external plotting is :func:`repro.campaigns.export.write_campaign_csv`.)
"""

from __future__ import annotations

from typing import Dict, List

from repro.stats.summary import SimulationResult


def format_table(
    series: Dict[str, List[SimulationResult]],
    value: str = "achieved_utilization",
    precision: int = 3,
) -> str:
    """Render one metric of a multi-algorithm sweep as an aligned table.

    *value* is any numeric attribute of :class:`SimulationResult`
    (``achieved_utilization``, ``average_latency``, ...).
    """
    if not series:
        return "(no data)"
    algorithms = list(series)
    loads = [result.offered_load for result in next(iter(series.values()))]
    header = ["offered"] + algorithms
    rows = [header]
    for index, load in enumerate(loads):
        row = [f"{load:.2f}"]
        for name in algorithms:
            results = series[name]
            if index < len(results):
                row.append(f"{getattr(results[index], value):.{precision}f}")
            else:
                row.append("-")
        rows.append(row)
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header))
    ]
    lines = []
    for row_index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(widths[col]) for col, cell in enumerate(row))
        )
        if row_index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_figure(
    series: Dict[str, List[SimulationResult]], title: str
) -> str:
    """Both panels of a paper figure: latency and normalized throughput."""
    parts = [
        title,
        "",
        "Average latency (cycles):",
        format_table(series, "average_latency", precision=1),
        "",
        "Achieved channel utilization (normalized throughput):",
        format_table(series, "achieved_utilization", precision=3),
    ]
    return "\n".join(parts)


def peak_summary(series: Dict[str, List[SimulationResult]]) -> str:
    """One line per algorithm: peak throughput and where it occurs."""
    lines = []
    for name, results in series.items():
        if not results:
            continue
        best = max(results, key=lambda r: r.achieved_utilization)
        lines.append(
            f"{name:>6}: peak normalized throughput "
            f"{best.achieved_utilization:.3f} at offered load "
            f"{best.offered_load:.2f}"
        )
    return "\n".join(lines)


__all__ = ["format_figure", "format_table", "peak_summary"]
