"""Tests for general group connections (multicast / many-to-many)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conference import Conference
from repro.core.conflict import analyze_conflicts
from repro.core.groupcast import GroupConnection, route_group
from repro.core.routing import route_conference
from repro.topology.builders import PAPER_TOPOLOGIES, build
from repro.topology.network import MultistageNetwork, Stage
from repro.topology.permutations import identity

TOPOLOGIES = sorted(PAPER_TOPOLOGIES)


class TestGroupConnection:
    def test_constructors(self):
        mc = GroupConnection.multicast(3, [0, 5, 9])
        assert mc.is_multicast and not mc.is_conference
        assert mc.senders == (3,)
        conf = GroupConnection.conference([4, 2, 7])
        assert conf.is_conference
        assert conf.senders == conf.receivers == (2, 4, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupConnection((), (1,))
        with pytest.raises(ValueError):
            GroupConnection((1,), ())

    def test_ports_union(self):
        g = GroupConnection((1, 2), (2, 3))
        assert g.ports == frozenset({1, 2, 3})

    def test_duplicates_collapsed(self):
        g = GroupConnection((1, 1, 2), (3, 3))
        assert g.senders == (1, 2)


class TestRouteGroup:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_multicast_delivers_source_to_every_destination(self, name):
        net = build(name, 16)
        route = route_group(net, GroupConnection.multicast(5, [0, 7, 12]))
        for dest in (0, 7, 12):
            t = route.taps[dest]
            assert route.mask_at(t, dest) == 1  # the single sender's bit

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_conference_case_matches_route_conference(self, name):
        net = build(name, 16)
        members = (1, 6, 11, 12)
        as_group = route_group(net, GroupConnection.conference(members))
        as_conf = route_conference(net, Conference.of(members))
        assert as_group.links == as_conf.links
        assert as_group.taps == as_conf.taps

    def test_disjoint_senders_receivers(self):
        net = build("indirect-binary-cube", 16)
        g = GroupConnection(senders=(0, 1), receivers=(8, 9))
        route = route_group(net, g)
        full = 0b11
        for r in (8, 9):
            assert route.mask_at(route.taps[r], r) == full
        # Senders that are not receivers get no tap.
        assert set(route.taps) == {8, 9}

    def test_final_tap_mode(self):
        net = build("omega", 16)
        route = route_group(net, GroupConnection.multicast(0, [3, 9]), earliest_taps=False)
        assert set(route.taps.values()) == {4}

    @pytest.mark.parametrize(
        "earliest, message",
        [
            (True, "receiver 5 can never hear all senders (0, 1) in deg"),
            (False, "receiver 5 cannot combine all senders at the outputs"),
        ],
    )
    def test_unreachable_receiver_messages(self, earliest, message):
        """Without full access receiver 5 never hears sender 0 (receiver 1,
        on sender 0's switch, does): both tap modes name it."""
        net = MultistageNetwork(8, [Stage(identity(8), identity(8))] * 3, name="deg")
        with pytest.raises(ValueError) as info:
            route_group(net, GroupConnection((0, 1), (1, 5)), earliest_taps=earliest)
        assert type(info.value) is ValueError
        assert info.value.args == (message,)

    def test_out_of_range_rejected(self):
        net = build("omega", 8)
        with pytest.raises(ValueError):
            route_group(net, GroupConnection.multicast(0, [8]))

    @settings(max_examples=50, deadline=None)
    @given(
        name=st.sampled_from(TOPOLOGIES),
        senders=st.sets(st.integers(0, 15), min_size=1, max_size=5),
        receivers=st.sets(st.integers(0, 15), min_size=1, max_size=5),
    )
    def test_every_receiver_hears_every_sender(self, name, senders, receivers):
        net = build(name, 16)
        route = route_group(net, GroupConnection(tuple(senders), tuple(receivers)))
        full = (1 << len(route.connection.senders)) - 1
        for r, t in route.taps.items():
            assert route.mask_at(t, r) == full

    def test_multicast_uses_fewer_links_than_conference(self):
        """A one-way connection needs no combining fan-in from listeners."""
        net = build("indirect-binary-cube", 32)
        ports = (0, 9, 18, 27)
        mc = route_group(net, GroupConnection.multicast(0, ports[1:]))
        conf = route_conference(net, Conference.of(ports))
        assert mc.n_links < conf.n_links


class TestMixedTrafficConflicts:
    def test_group_routes_interoperate_with_conflict_analysis(self):
        net = build("indirect-binary-cube", 16)
        conf_route = route_conference(net, Conference.of((0, 3), conference_id=0))
        mc_route = route_group(net, GroupConnection.multicast(1, [2], connection_id=1))
        report = analyze_conflicts([conf_route, mc_route], n_stages=net.n_stages)
        assert report.n_conferences == 2
        assert report.max_multiplicity >= 1


class TestGroupFabricSimulation:
    def test_fabric_delivers_group_connections_end_to_end(self):
        """The hardware simulator verifies multicast delivery too: every
        receiver hears exactly the sender set."""
        from repro.switching.fabric import Fabric

        net = build("indirect-binary-cube", 16)
        fabric = Fabric(net, dilation=4)
        routes = [
            route_group(net, GroupConnection.multicast(0, [4, 5, 6], connection_id=0)),
            route_group(net, GroupConnection((8, 9), (10, 11), connection_id=1)),
        ]
        report = fabric.simulate(routes)
        assert report.correct
        assert report.delivered[0] == {p: frozenset({0}) for p in (4, 5, 6)}
        assert report.delivered[1] == {p: frozenset({8, 9}) for p in (10, 11)}

    def test_fabric_simulates_mixed_traffic(self):
        from repro.core.routing import route_conference
        from repro.switching.fabric import Fabric

        net = build("omega", 16)
        fabric = Fabric(net, dilation=8)
        routes = [
            route_conference(net, Conference.of((1, 2), conference_id=0)),
            route_group(net, GroupConnection.multicast(3, [12, 13], connection_id=1)),
        ]
        report = fabric.simulate(routes)
        assert report.correct

    def test_fabric_rejects_receiver_overlap(self):
        from repro.switching.fabric import Fabric

        net = build("omega", 16)
        fabric = Fabric(net, dilation=8)
        routes = [
            route_group(net, GroupConnection.multicast(0, [5], connection_id=0)),
            route_group(net, GroupConnection.multicast(1, [5], connection_id=1)),
        ]
        with pytest.raises(ValueError, match="share port"):
            fabric.simulate(routes)
