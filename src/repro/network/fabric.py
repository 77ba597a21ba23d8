"""The fabric: every physical/virtual channel of a network, instantiated.

Pure state container — the per-cycle behaviour lives in
:mod:`repro.simulator.engine`.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.network.physical_channel import PhysicalChannel
from repro.network.virtual_channel import VirtualChannel
from repro.topology.base import Topology
from repro.util.validation import require_positive


class Fabric:
    """All channel state for one (topology, virtual-channel count) pair."""

    def __init__(
        self,
        topology: Topology,
        num_vcs: int,
        vc_capacity: int,
    ) -> None:
        require_positive(num_vcs, "num_vcs")
        require_positive(vc_capacity, "vc_capacity")
        self.topology = topology
        self.num_vcs = num_vcs
        self.vc_capacity = vc_capacity
        self.channels: List[PhysicalChannel] = [
            PhysicalChannel(link, num_vcs, vc_capacity)
            for link in topology.links
        ]
        #: Every virtual channel by flat index ``link.index * num_vcs +
        #: vc_class`` — the integers route-table entries are made of
        #: (:mod:`repro.routing.tables`).
        self.vcs: List[VirtualChannel] = []
        for channel in self.channels:
            self.vcs.extend(channel.vcs)

    def channel(self, link_index: int) -> PhysicalChannel:
        return self.channels[link_index]

    def virtual_channels(self) -> Iterator[VirtualChannel]:
        """Iterate every virtual channel in the fabric."""
        return iter(self.vcs)

    def vc_class_totals(self) -> List[int]:
        """Flits carried per virtual-channel class, summed over channels."""
        totals = [0] * self.num_vcs
        for channel in self.channels:
            for vc in channel.vcs:
                totals[vc.vc_class] += vc.flits_carried_total
        return totals

    def channel_occupancies(self) -> List[int]:
        """Currently buffered flits per physical channel (by link index)."""
        return [
            sum(vc.occupancy for vc in channel.vcs)
            for channel in self.channels
        ]

    def vc_class_occupancies(self) -> List[int]:
        """Currently buffered flits per virtual-channel class."""
        totals = [0] * self.num_vcs
        for channel in self.channels:
            for vc in channel.vcs:
                totals[vc.vc_class] += vc.occupancy
        return totals

    def occupied_flits(self) -> int:
        """Flits currently buffered anywhere in the network."""
        return sum(vc.occupancy for vc in self.virtual_channels())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Fabric({self.topology!r}, num_vcs={self.num_vcs}, "
            f"vc_capacity={self.vc_capacity})"
        )


__all__ = ["Fabric"]
