"""Plain-text tables for sweep results.

The paper presents its results as figures; lacking a plotting dependency,
the harness prints the same series as aligned text tables — one row per
offered load, one latency and one throughput column per algorithm, each
cell the mean over that load's seeds.  (CSV for external plotting is
:func:`repro.campaigns.export.write_campaign_csv`.)
"""

from __future__ import annotations

from typing import Dict, List

from repro.stats.summary import SimulationResult


def _load_means(
    results: List[SimulationResult], value: str
) -> Dict[float, float]:
    """*value* per offered load, averaged over that load's seeds.

    ``sum / len`` in expansion order, as the claim evaluator
    (``paper_figures._values``) reads seed means: one seed gives back
    its own value exactly.
    """
    by_load: Dict[float, List[float]] = {}
    for result in results:
        by_load.setdefault(result.offered_load, []).append(
            getattr(result, value)
        )
    return {load: sum(seeds) / len(seeds) for load, seeds in by_load.items()}


def format_table(
    series: Dict[str, List[SimulationResult]],
    value: str = "achieved_utilization",
    precision: int = 3,
) -> str:
    """Render one metric of a multi-algorithm sweep as an aligned table.

    *value* is any numeric attribute of :class:`SimulationResult`
    (``achieved_utilization``, ``average_latency``, ...).  One row per
    offered load, in the first series' order; a cell is the mean over
    that load's seeds, ``-`` where the algorithm has no point.
    """
    if not series:
        return "(no data)"
    algorithms = list(series)
    means = {
        name: _load_means(results, value) for name, results in series.items()
    }
    header = ["offered"] + algorithms
    rows = [header]
    for load in means[algorithms[0]]:
        row = [f"{load:.2f}"]
        for name in algorithms:
            mean = means[name].get(load)
            row.append("-" if mean is None else f"{mean:.{precision}f}")
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
    """One line per algorithm: peak seed-mean throughput and its load."""
    lines = []
    for name, results in series.items():
        if not results:
            continue
        means = _load_means(results, "achieved_utilization")
        load = max(means, key=means.__getitem__)
        lines.append(
            f"{name:>6}: peak normalized throughput "
            f"{means[load]:.3f} at offered load {load:.2f}"
        )
    return "\n".join(lines)


__all__ = ["format_figure", "format_table", "peak_summary"]
