"""Spatial congestion heatmaps: where the traffic flows and where it waits.

Two per-physical-channel counters are accumulated while an observer is
attached:

* ``carried`` — flits that crossed the link (from the channels'
  lifetime ``flits_moved`` counts, accumulated as deltas between
  observations);
* ``blocked`` — head-blocked waits: each cycle a message fails virtual-
  channel allocation, every physical channel in its candidate set is
  charged one wait.  A hot ``blocked`` link is one worms queue for —
  the per-channel occupancy diagnostic OutFlank Routing (Versaci 2013)
  and the OQ/VOQ deadlock-avoidance study (Papaphilippou & Chu 2023)
  use to show congestion forming.

Both render as CSV (one row per link, with geometry columns) and, for
2-D networks, as per-node ASCII grids where each cell aggregates the
node's outgoing links.
"""

from __future__ import annotations

import csv
from typing import TYPE_CHECKING, Dict, List, TextIO

from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.physical_channel import PhysicalChannel

#: Density ramp for ASCII rendering, lightest to heaviest.
_RAMP = " .:-=+*#%@"


class CongestionHeatmap:
    """Per-link carried/blocked counters with CSV and ASCII rendering."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        num_links = topology.num_links
        self.carried = [0] * num_links
        self.blocked = [0] * num_links
        self._last_flits_moved = [0] * num_links

    # -- accumulation ------------------------------------------------------

    def observe_channels(
        self, channels: List["PhysicalChannel"]
    ) -> None:
        """Fold the channels' flit counters into ``carried``.

        Accumulates deltas since the previous call (the lifetime counts
        never decrease).
        """
        last = self._last_flits_moved
        carried = self.carried
        for index, channel in enumerate(channels):
            moved = channel.flits_moved
            carried[index] += moved - last[index]
            last[index] = moved

    # -- aggregation -------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        return {
            "flits_carried": sum(self.carried),
            "blocked_waits": sum(self.blocked),
        }

    def hottest(self, metric: str = "blocked") -> int:
        """Link index with the highest count of *metric*."""
        values = self._metric(metric)
        return max(range(len(values)), key=values.__getitem__)

    def _metric(self, metric: str) -> List[int]:
        if metric == "carried":
            return self.carried
        if metric == "blocked":
            return self.blocked
        raise ValueError(
            f"metric must be 'carried' or 'blocked', got {metric!r}"
        )

    def node_grid(self, metric: str = "carried") -> List[List[int]]:
        """Per-node totals over outgoing links, as a [y][x] grid (2-D only)."""
        if self.topology.n_dims != 2:
            raise ValueError(
                "node_grid requires a 2-dimensional topology; "
                f"got n_dims={self.topology.n_dims}"
            )
        values = self._metric(metric)
        radix = self.topology.radix
        grid = [[0] * radix for _ in range(radix)]
        for link in self.topology.links:
            x, y = self.topology.coords(link.src)
            grid[y][x] += values[link.index]
        return grid

    # -- rendering ---------------------------------------------------------

    def write_csv(self, stream: TextIO) -> None:
        """One row per link: geometry plus both counters."""
        writer = csv.writer(stream)
        writer.writerow(
            [
                "link",
                "src",
                "dst",
                "dim",
                "direction",
                "wraps",
                "flits_carried",
                "blocked_waits",
            ]
        )
        for link in self.topology.links:
            writer.writerow(
                [
                    link.index,
                    link.src,
                    link.dst,
                    link.dim,
                    link.direction,
                    int(link.wraps),
                    self.carried[link.index],
                    self.blocked[link.index],
                ]
            )

    def ascii(self, metric: str = "carried") -> str:
        """Density map of the per-node totals (2-D), or a top-10 list."""
        values = self._metric(metric)
        if self.topology.n_dims != 2:
            return self._ascii_toplist(metric, values)
        grid = self.node_grid(metric)
        peak = max(max(row) for row in grid)
        lines = [
            f"{metric} per node (outgoing links), "
            f"{self.topology.radix}x{self.topology.radix}, peak={peak}"
        ]
        scale = len(_RAMP) - 1
        # y grows downward so row 0 is the top of the rendering.
        for y, row in enumerate(grid):
            cells = []
            for value in row:
                level = (
                    (value * scale + peak - 1) // peak if peak else 0
                )
                cells.append(_RAMP[min(level, scale)])
            lines.append(f"y={y:<3d} " + " ".join(cells))
        lines.append(
            "scale: ' '=0"
            + "".join(
                f"  {_RAMP[level]}<= {peak * level // scale}"
                for level in range(1, scale + 1)
            )
            if peak
            else "scale: all zero"
        )
        return "\n".join(lines)

    def _ascii_toplist(self, metric: str, values: List[int]) -> str:
        ranked = sorted(
            range(len(values)), key=values.__getitem__, reverse=True
        )[:10]
        lines = [f"top links by {metric}:"]
        for index in ranked:
            link = self.topology.links[index]
            lines.append(
                f"  link {index:4d} {link.src}->{link.dst} "
                f"dim={link.dim} dir={link.direction:+d}: {values[index]}"
            )
        return "\n".join(lines)


__all__ = ["CongestionHeatmap"]
