"""Properties of the incremental churn engine: validity, drift, limits.

Complements ``test_churn.py`` (the membership-change API contract) with
the 1.6 guarantees: an extended route is always a valid conference
routing, extend-then-prune restores the original link set exactly, and
``drift_limit`` demotes a join to an explicit full reroute instead of
silently violating the bound.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.churn import ChurnPolicy, extend_route, prune_route
from repro.core.conference import Conference
from repro.core.routing import RoutingPolicy, delivered_members, route_conference
from repro.topology.builders import PAPER_TOPOLOGIES, build

TOPOLOGIES = sorted(PAPER_TOPOLOGIES)
N = 16


def _scenario(draw_members, draw_joiner):
    members = sorted(draw_members)
    joiner = draw_joiner
    return members, joiner


class TestExtendValidity:
    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        ports=st.sets(st.integers(0, N - 1), min_size=3, max_size=6),
        data=st.data(),
    )
    def test_extended_route_is_a_valid_conference_routing(self, topology, ports, data):
        """Every member (old and new) still receives the full mix."""
        members = sorted(ports)
        joiner = members.pop()
        net = build(topology, N)
        route = route_conference(net, Conference.of(members))
        result = extend_route(net, route, joiner)
        after = result.after
        assert after.conference.members == tuple(sorted([*members, joiner]))
        full = (1 << len(after.conference.members)) - 1
        arriving = delivered_members(net, after.conference, after.levels, after.taps)
        for port, got in arriving.items():
            assert got == full, f"tap for {port} hears {got:b}, want {full:b}"

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        ports=st.sets(st.integers(0, N - 1), min_size=3, max_size=6),
    )
    def test_extend_on_natural_route_equals_fresh_route(self, topology, ports):
        """On a conflict-free route the incremental result is identical
        to routing the grown conference from scratch — incremental mode
        changes what gets reprogrammed, never the outcome."""
        members = sorted(ports)
        joiner = members.pop()
        net = build(topology, N)
        route = route_conference(net, Conference.of(members))
        result = extend_route(net, route, joiner)
        fresh = route_conference(
            net, Conference.of(sorted([*members, joiner]))
        )
        assert result.after.levels == fresh.levels
        assert result.after.taps == fresh.taps
        assert result.drift_links == 0

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(TOPOLOGIES),
        ports=st.sets(st.integers(0, N - 1), min_size=3, max_size=6),
    )
    def test_prune_of_extend_restores_the_link_set(self, topology, ports):
        members = sorted(ports)
        joiner = members.pop()
        net = build(topology, N)
        route = route_conference(net, Conference.of(members))
        grown = extend_route(net, route, joiner).after
        back = prune_route(net, grown, joiner).after
        assert back.links == route.links
        assert back.taps == route.taps


class TestDrift:
    """Drift needs a non-natural starting route: heal around a fault
    that moves a tap, repair the fault, then extend incrementally."""

    def _healed(self):
        net = build("omega", N)
        conf = Conference.of([2, 6, 14])
        healthy = route_conference(net, conf)
        healed = route_conference(net, conf, faults=frozenset({(3, 6)}))
        assert healed.taps != healthy.taps  # the fault moved a tap
        return net, healed

    def test_extending_a_healed_route_accrues_drift(self):
        net, healed = self._healed()
        result = extend_route(net, healed, 10)
        assert result.mode == "incremental"
        assert result.hitless  # the pins survive, nobody's tap moves...
        assert result.drift_links == 1  # ...at the price of a surplus link

    def test_prune_resets_drift(self):
        """Leaves re-tap survivors naturally, so pins never survive one."""
        net, healed = self._healed()
        grown = extend_route(net, healed, 10).after
        back = prune_route(net, grown, 10)
        assert back.drift_links == 0
        fresh = route_conference(net, Conference.of([2, 6, 14]))
        assert back.after.links == fresh.links

    def test_drift_limit_demotes_to_full_reroute(self):
        net, healed = self._healed()
        result = extend_route(net, healed, 10, drift_limit=0)
        assert result.mode == "full-reroute"
        assert result.fallback_reason == "drift:1>0"
        assert result.drift_links == 0  # the reroute shed the pins


class TestLimits:
    def test_hitless_join_passes_any_limit(self):
        net = build("indirect-binary-cube", N)
        route = route_conference(net, Conference.of([0, 3]))
        result = extend_route(net, route, 1, drift_limit=0)
        assert result.mode == "incremental"
        assert result.hitless

    # A bad limit is rejected on entry, before any routing, whether or
    # not the step would ever reach it (an in-block join accrues no
    # drift, so no limit trips on it).
    def test_negative_drift_limit_rejected_on_join(self):
        net = build("indirect-binary-cube", N)
        route = route_conference(net, Conference.of([0, 1]))
        with pytest.raises(ValueError, match="drift_limit"):
            extend_route(net, route, 2, drift_limit=-5)


class TestChurnPolicy:
    def test_defaults(self):
        policy = ChurnPolicy()
        assert policy.incremental
        assert policy.drift_limit is None

    def test_validation(self):
        with pytest.raises(ValueError, match="drift_limit"):
            ChurnPolicy(drift_limit=-1)

    def test_prune_policy_has_no_incremental_form(self):
        net = build("indirect-binary-cube", N)
        policy = RoutingPolicy(prune=True)
        route = route_conference(net, Conference.of([0, 3]), policy)
        result = extend_route(net, route, 1, policy=policy)
        assert result.mode == "full-reroute"
        assert result.fallback_reason == "prune-policy"
