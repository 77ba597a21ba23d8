"""Unit tests for Message life-cycle state and the Fabric container."""

import pytest

from repro.network.fabric import Fabric
from repro.network.message import Message
from repro.util.errors import ConfigurationError


def make_message(**overrides):
    defaults = {
        "msg_id": 1,
        "src": 0,
        "dst": 5,
        "length": 16,
        "distance": 2,
        "route_state": None,
        "msg_class": 0,
        "created_at": 100,
    }
    defaults.update(overrides)
    return Message(**defaults)


class TestMessage:
    def test_initial_position_is_source(self):
        message = make_message()
        assert message.head_node == 0
        assert not message.head_arrived
        assert message.flits_to_inject == 16
        assert not message.injection_complete

    def test_not_delivered_initially(self):
        assert not make_message().delivered

    def test_latency_requires_delivery(self):
        with pytest.raises(ValueError):
            make_message().latency

    def test_latency_after_delivery(self):
        message = make_message()
        message.delivered_at = 150
        assert message.latency == 50

    def test_delivered_when_all_flits_ejected(self):
        message = make_message(length=4)
        message.flits_ejected = 4
        assert message.delivered

    def test_head_node_follows_path(self, torus4):
        from repro.network.virtual_channel import VirtualChannel

        message = make_message()
        link = torus4.out_link(0, 0, 1)
        vc = VirtualChannel(link, 0, 1)
        vc.reserve(message)
        message.path.append(vc)
        assert message.head_node == link.dst
        assert not message.head_arrived  # flit not transferred yet
        vc.receive_flit(0)
        assert message.head_arrived


class TestFabric:
    def test_builds_channel_per_link(self, torus4):
        fabric = Fabric(torus4, num_vcs=3, vc_capacity=1)
        assert len(fabric.channels) == torus4.num_links
        assert all(len(ch.vcs) == 3 for ch in fabric.channels)

    def test_total_virtual_channels(self, torus4):
        fabric = Fabric(torus4, num_vcs=2, vc_capacity=1)
        assert sum(1 for _ in fabric.virtual_channels()) == (
            torus4.num_links * 2
        )

    def test_rejects_zero_vcs(self, torus4):
        with pytest.raises(ConfigurationError):
            Fabric(torus4, num_vcs=0, vc_capacity=1)

    def test_rejects_zero_capacity(self, torus4):
        with pytest.raises(ConfigurationError):
            Fabric(torus4, num_vcs=1, vc_capacity=0)

    def test_lifetime_flit_counts_span_release(self, torus4):
        # Lifetime = flits retired at release + the live owner's flits_in,
        # equal at every instant to a per-flit counter.
        fabric = Fabric(torus4, num_vcs=2, vc_capacity=2)
        channel = fabric.channel(0)
        vc = channel.vcs[1]
        first = make_message(length=2)
        vc.reserve(first)
        for cycle in range(2):
            assert channel.transmit(cycle, False, True) is vc
            assert vc.flits_carried_total == channel.flits_moved == cycle + 1
        vc.occupancy = 0  # the worm drains downstream
        vc.release()
        assert vc.flits_in == 2  # kept: part of the state fingerprint
        assert vc.flits_carried_total == channel.flits_moved == 2
        vc.reserve(make_message(length=2))
        assert vc.flits_carried_total == channel.flits_moved == 2
        assert channel.transmit(2, False, True) is vc
        assert vc.flits_carried_total == channel.flits_moved == 3
        assert fabric.total_flits_moved() == 3
        assert fabric.vc_class_totals() == [0, 3]

    def test_occupied_flits(self, torus4):
        fabric = Fabric(torus4, num_vcs=1, vc_capacity=2)
        message = make_message(length=4)
        channel = fabric.channel(0)
        channel.vcs[0].reserve(message)
        channel.transmit(0, False, True)
        channel.transmit(1, False, True)
        assert fabric.occupied_flits() == 2
