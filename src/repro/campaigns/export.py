"""Exports straight from the campaign store: CSV rows and paper tables.

A campaign's export never simulates: it expands the spec, pulls every
point from the store (failing loudly when points are missing), and
renders one CSV row per point — the campaign context columns (topology,
seed) a cross-topology grid needs, then the result's own — and the
paper-style tables per (topology, traffic) grid.  Exports are
deterministic: the same store contents produce byte-identical files.
"""

from __future__ import annotations

import csv
from typing import Dict, Iterator, List, Sequence, TextIO, Tuple

from repro.campaigns.spec import CampaignSpec, grid_label
from repro.campaigns.store import ResultStore
from repro.experiments.tables import format_figure, peak_summary
from repro.simulator.config import SimulationConfig
from repro.stats.summary import SimulationResult
from repro.util.errors import ReproError


class IncompleteCampaignError(ReproError):
    """An export was requested for a campaign with unsimulated points."""

    def __init__(
        self, spec_name: str, missing: Sequence[SimulationConfig]
    ) -> None:
        preview = ", ".join(
            config.label() for config in list(missing)[:3]
        )
        more = len(missing) - min(len(missing), 3)
        suffix = f" (+{more} more)" if more else ""
        super().__init__(
            f"campaign {spec_name!r}: {len(missing)} of its points are "
            f"not in the store yet: {preview}{suffix}; run the campaign "
            "first (repro-campaign run)"
        )
        self.missing = list(missing)


def collect(
    spec: CampaignSpec, store: ResultStore
) -> List[Tuple[SimulationConfig, SimulationResult]]:
    """Every (config, result) of the campaign, from the store only."""
    configs = spec.expand()
    pairs: List[Tuple[SimulationConfig, SimulationResult]] = []
    missing: List[SimulationConfig] = []
    for config in configs:
        result = store.get(config)
        if result is None:
            missing.append(config)
        else:
            pairs.append((config, result))
    if missing:
        raise IncompleteCampaignError(spec.name, missing)
    return pairs


def _rows(
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
) -> Iterator[Dict[str, object]]:
    """Each point's flat CSV row, built as it is asked for: campaign
    context columns + the result's row."""
    for config, result in pairs:
        row: Dict[str, object] = {
            "topology": config.topology,
            "radix": config.radix,
            "n_dims": config.n_dims,
            "switching": config.switching,
            "seed": config.seed,
        }
        row.update(result.to_dict())
        yield row


def campaign_rows(
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
) -> List[Dict[str, object]]:
    """Flat CSV rows: campaign context columns + the result's row."""
    return list(_rows(pairs))


def write_campaign_csv(
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
    stream: TextIO,
) -> None:
    """Write the campaign's points as CSV, in expansion order.

    Every row has the first row's columns in its order (one context
    block, one ``SimulationResult.to_dict`` schema), so rows are written
    by position: the bytes ``csv.DictWriter`` writes, without its
    per-row key check and lookups.  Each row is written as it is built;
    none is kept.
    """
    rows = _rows(pairs)
    first = next(rows, None)
    if first is not None:
        writer = csv.writer(stream)
        writer.writerow(first)
        writer.writerow(first.values())
        writer.writerows(row.values() for row in rows)


def grid_series(
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
) -> Dict[Tuple[str, str], Dict[str, List[SimulationResult]]]:
    """Per-(topology, traffic) grids of per-algorithm series.

    Within a grid, each algorithm's series is in expansion order
    (loads, then seeds) — the layout `format_figure` renders.
    """
    grids: Dict[Tuple[str, str], Dict[str, List[SimulationResult]]] = {}
    for config, result in pairs:
        series = grids.setdefault(grid_label(config), {})
        series.setdefault(config.algorithm, []).append(result)
    return grids


def format_campaign_tables(
    spec: CampaignSpec,
    pairs: Sequence[Tuple[SimulationConfig, SimulationResult]],
) -> str:
    """The paper-style latency/throughput tables for every grid."""
    parts = []
    for (topology, traffic), series in grid_series(pairs).items():
        title = f"Campaign {spec.name!r}: {traffic} traffic on {topology}"
        parts.append(format_figure(series, title))
        parts.append("")
        parts.append(peak_summary(series))
        parts.append("")
    return "\n".join(parts).rstrip("\n")


__all__ = [
    "IncompleteCampaignError",
    "campaign_rows",
    "collect",
    "format_campaign_tables",
    "grid_series",
    "write_campaign_csv",
]
