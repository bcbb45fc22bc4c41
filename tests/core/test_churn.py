"""Tests for member churn (join/leave on live conferences)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.churn import apply_churn, extend_route, prune_route
from repro.core.conference import Conference
from repro.core.routing import route_conference
from repro.topology.builders import PAPER_TOPOLOGIES, build

TOPOLOGIES = sorted(PAPER_TOPOLOGIES)


class TestJoin:
    def test_in_block_join_is_hitless_on_cube(self):
        """Growing inside the enclosing block keeps everyone's tap."""
        net = build("indirect-binary-cube", 16)
        route = route_conference(net, Conference.of([0, 3]))  # block {0..3}
        result = extend_route(net, route, 1)
        assert result.hitless
        assert result.after.conference.members == (0, 1, 3)
        assert not result.links_removed  # the old tree is a subtree

    def test_block_growing_join_moves_every_tap_on_cube(self):
        net = build("indirect-binary-cube", 16)
        route = route_conference(net, Conference.of([0, 1]))  # block {0,1}, K=1
        result = extend_route(net, route, 8)  # grows the block to {0..15}
        assert set(result.taps_moved) == {0, 1}
        for old, new in result.taps_moved.values():
            assert new > old

    def test_join_existing_member_rejected(self):
        net = build("omega", 16)
        route = route_conference(net, Conference.of([0, 1]))
        with pytest.raises(ValueError, match="already a member"):
            extend_route(net, route, 1)

    def test_diff_is_consistent(self):
        net = build("baseline", 16)
        route = route_conference(net, Conference.of([2, 9]))
        result = extend_route(net, route, 13)
        assert result.links_added == result.after.links - result.before.links
        assert result.links_removed == result.before.links - result.after.links
        assert result.reconfigured_links == len(result.links_added) + len(result.links_removed)


class TestLeave:
    def test_leave_shrinks_route(self):
        net = build("indirect-binary-cube", 16)
        route = route_conference(net, Conference.of([0, 1, 8]))
        result = prune_route(net, route, 8)
        assert result.after.conference.members == (0, 1)
        assert result.after.depth < result.before.depth
        assert result.links_removed and not result.links_added

    def test_leave_unknown_member(self):
        net = build("omega", 16)
        route = route_conference(net, Conference.of([0, 1]))
        with pytest.raises(ValueError, match="not a member"):
            prune_route(net, route, 5)

    def test_leave_last_member_rejected(self):
        net = build("omega", 16)
        route = route_conference(net, Conference.of([4]))
        with pytest.raises(ValueError, match="last member"):
            prune_route(net, route, 4)


class TestChurnInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(TOPOLOGIES),
        members=st.sets(st.integers(0, 15), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_join_then_leave_round_trips(self, name, members, data):
        net = build(name, 16)
        route = route_conference(net, Conference.of(members))
        outsiders = sorted(set(range(16)) - set(members))
        newcomer = data.draw(st.sampled_from(outsiders))
        joined = extend_route(net, route, newcomer)
        left = prune_route(net, joined.after, newcomer)
        assert left.after.links == route.links
        assert left.after.taps == route.taps

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(TOPOLOGIES),
        members=st.sets(st.integers(0, 15), min_size=2, max_size=6),
    )
    def test_churn_preserves_delivery(self, name, members):
        net = build(name, 16)
        route = route_conference(net, Conference.of(members))
        newcomer = min(set(range(16)) - set(members))
        result = extend_route(net, route, newcomer)
        full = result.after.conference.full_mask
        for port, t in result.after.taps.items():
            assert result.after.mask_at(t, port) == full

    def test_apply_churn_preserves_id(self):
        net = build("omega", 16)
        route = route_conference(net, Conference.of([0, 1], conference_id=42))
        result = apply_churn(net, route, [0, 1, 2])
        assert result.after.conference.conference_id == 42
