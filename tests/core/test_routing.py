"""Tests for the conference routing engine — the heart of the library."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conference import Conference
from repro.core.routing import (
    RoutingPolicy,
    TapPolicy,
    delivered_members,
    route_conference,
)
from repro.topology.builders import PAPER_TOPOLOGIES, TOPOLOGY_BUILDERS, build

TOPOLOGIES = sorted(TOPOLOGY_BUILDERS)

conference_strategy = st.sets(st.integers(0, 15), min_size=1, max_size=16).map(
    lambda m: Conference.of(m)
)


class TestRouteInvariants:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(TOPOLOGIES), conf=conference_strategy)
    def test_route_delivers_full_combination(self, name, conf):
        net = build(name, 16)
        route = route_conference(net, conf)
        delivered = delivered_members(net, conf, route.levels, route.taps)
        assert all(mask == conf.full_mask for mask in delivered.values())

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(TOPOLOGIES), conf=conference_strategy)
    def test_taps_are_earliest(self, name, conf):
        """No earlier level on a member's row carries the full mix."""
        net = build(name, 16)
        route = route_conference(net, conf)
        # Recompute unrestricted forward masks to check minimality.
        from repro.core.reference import _forward_masks

        forward = _forward_masks(net, conf)
        for port, t in route.taps.items():
            assert forward[t].get(port, 0) == conf.full_mask
            for earlier in range(t):
                assert forward[earlier].get(port, 0) != conf.full_mask

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(TOPOLOGIES), conf=conference_strategy)
    def test_masks_grow_along_edges(self, name, conf):
        net = build(name, 16)
        route = route_conference(net, conf)
        tab = net.successor_table
        for t in range(net.n_stages):
            for row, mask in route.levels[t].items():
                for side in (0, 1):
                    nxt = int(tab[t, row, side])
                    nxt_mask = route.levels[t + 1].get(nxt)
                    if nxt_mask is not None:
                        assert nxt_mask & mask == mask

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(TOPOLOGIES), conf=conference_strategy)
    def test_every_used_point_feeds_a_tap(self, name, conf):
        """No dead branches: each used point reaches some tap point."""
        net = build(name, 16)
        route = route_conference(net, conf)
        taps = {(t, port) for port, t in route.taps.items()}
        tab = net.successor_table
        for t in range(net.n_stages + 1):
            for row in route.levels[t]:
                # BFS forward within used region looking for a tap.
                frontier, found = {(t, row)}, False
                while frontier and not found:
                    if frontier & taps:
                        found = True
                        break
                    nxt = set()
                    for (lv, r) in frontier:
                        if lv == net.n_stages:
                            continue
                        for side in (0, 1):
                            r2 = int(tab[lv, r, side])
                            if r2 in route.levels[lv + 1]:
                                nxt.add((lv + 1, r2))
                    frontier = nxt
                assert found, f"point ({t},{row}) feeds no tap"

    def test_out_of_range_conference(self):
        net = build("omega", 8)
        with pytest.raises(ValueError, match="out of range"):
            route_conference(net, Conference.of([0, 9]))


class TestRouteShape:
    def test_singleton_uses_no_links(self):
        for name in TOPOLOGIES:
            route = route_conference(build(name, 16), Conference.of([7]))
            assert route.links == frozenset()
            assert route.taps == {7: 0}
            assert route.depth == 0

    def test_adjacent_pair_on_cube_uses_one_switch(self):
        net = build("indirect-binary-cube", 16)
        route = route_conference(net, Conference.of([4, 5]))
        assert route.taps == {4: 1, 5: 1}
        assert route.links == frozenset({(1, 4), (1, 5)})
        assert route.n_links == 2

    def test_full_conference_depth(self):
        net = build("indirect-binary-cube", 16)
        route = route_conference(net, Conference.of(range(16)))
        assert route.depth == 4
        full = route.conference.full_mask
        assert {r for r, mask in route.levels[4].items() if mask == full} == set(range(16))

    def test_members_at_helpers(self):
        net = build("indirect-binary-cube", 16)
        conf = Conference.of([4, 5])
        route = route_conference(net, conf)
        assert route.mask_at(0, 4) == 0b01  # bit i is conference member i
        assert route.mask_at(1, 4) == 0b11
        assert route.mask_at(1, 9) == 0

    def test_stages_traversed(self):
        """A member's tap level is the number of stages its signal crossed."""
        net = build("indirect-binary-cube", 16)
        route = route_conference(net, Conference.of([4, 5]))
        assert route.taps[4] == 1
        assert 9 not in route.taps

    def test_cube_depth_is_block_exponent(self):
        net = build("indirect-binary-cube", 32)
        for members in [(0, 1), (0, 3), (7, 8), (0, 31), (16, 17, 18)]:
            conf = Conference.of(members)
            route = route_conference(net, conf)
            assert route.depth == conf.enclosing_block_exponent(32)


class TestPolicies:
    def test_final_policy_taps_last_stage(self):
        net = build("omega", 16)
        conf = Conference.of([0, 8])
        route = route_conference(net, conf, RoutingPolicy(tap_policy=TapPolicy.FINAL))
        assert set(route.taps.values()) == {4}

    def test_final_policy_uses_no_fewer_stages(self):
        net = build("indirect-binary-cube", 16)
        conf = Conference.of([0, 1])
        early = route_conference(net, conf)
        late = route_conference(net, conf, RoutingPolicy(tap_policy=TapPolicy.FINAL))
        assert early.depth == 1
        assert late.depth == 4
        assert early.n_links < late.n_links

    def test_policy_accepts_strings(self):
        policy = RoutingPolicy(tap_policy="final")
        assert policy.tap_policy is TapPolicy.FINAL

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(PAPER_TOPOLOGIES)), conf=conference_strategy)
    def test_pruned_route_still_delivers(self, name, conf):
        net = build(name, 16)
        route = route_conference(net, conf, RoutingPolicy(prune=True))
        delivered = delivered_members(net, conf, route.levels, route.taps)
        assert all(mask == conf.full_mask for mask in delivered.values())

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(PAPER_TOPOLOGIES)), conf=conference_strategy)
    def test_pruning_never_adds_links(self, name, conf):
        net = build(name, 16)
        natural = route_conference(net, conf)
        pruned = route_conference(net, conf, RoutingPolicy(prune=True))
        assert pruned.links <= natural.links
