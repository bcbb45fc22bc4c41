"""Tests for the radix-r generalization (r x r switch modules)."""

import numpy as np
import pytest

from repro.analysis.theory import radix_cube_link_multiplicity, radix_max_multiplicity
from repro.analysis.worstcase import (
    matching_stage_profile,
    radix_cube_adversarial_set,
)
from repro.core.conference import Conference
from repro.core.conflict import analyze_conflicts
from repro.core.routing import route_conference
from repro.switching.fabric import Fabric
from repro.topology.builders import indirect_binary_cube, omega, radix_cube, radix_delta
from repro.topology.permutations import digit_count, digit_shuffle, digit_to_front
from repro.topology.properties import has_full_access, is_banyan


class TestDigitPermutations:
    def test_digit_count(self):
        assert digit_count(27, 3) == 3
        assert digit_count(64, 4) == 3
        with pytest.raises(ValueError):
            digit_count(24, 3)
        with pytest.raises(ValueError):
            digit_count(8, 1)

    def test_digit_shuffle_generalizes_binary(self):
        from repro.topology.permutations import perfect_shuffle

        assert digit_shuffle(16, 2) == perfect_shuffle(16)

    def test_digit_shuffle_order_is_n(self):
        p = digit_shuffle(27, 3)
        for x in range(27):
            y = x
            for _ in range(3):
                y = p(y)
            assert y == x

    def test_digit_to_front_groups_digit_siblings(self):
        p = digit_to_front(27, 3, 1)
        for x in range(27):
            siblings = {x - (x // 3 % 3) * 3 + d * 3 for d in range(3)}
            assert {p(y) // 3 for y in siblings} == {p(x) // 3}


class TestRadixBuilders:
    def test_radix2_matches_binary_builders(self):
        assert np.array_equal(
            radix_cube(16, 2).successor_table, indirect_binary_cube(16).successor_table
        )
        assert np.array_equal(
            radix_delta(16, 2).successor_table, omega(16).successor_table
        )

    @pytest.mark.parametrize("radix,n_ports", [(3, 27), (4, 16), (4, 64), (8, 64)])
    def test_structure(self, radix, n_ports):
        for net in (radix_cube(n_ports, radix), radix_delta(n_ports, radix)):
            assert net.radix == radix
            assert net.n_stages == digit_count(n_ports, radix)
            assert has_full_access(net)
            assert is_banyan(net)

    @pytest.mark.parametrize("radix,n_ports", [(3, 27), (4, 64)])
    def test_straight_permutation_identity(self, radix, n_ports):
        for net in (radix_cube(n_ports, radix), radix_delta(n_ports, radix)):
            sp = net.straight_permutation()
            assert all(sp(x) == x for x in range(n_ports))

    def test_mixed_radix_rejected(self):
        from repro.topology.network import MultistageNetwork

        a = radix_cube(16, 4).stages[0]
        b = indirect_binary_cube(16).stages[0]
        with pytest.raises(ValueError, match="mix"):
            MultistageNetwork(16, [a, b])

    def test_fabric_rejects_radix_r(self):
        with pytest.raises(NotImplementedError, match="2x2"):
            Fabric(radix_cube(64, 4))


class TestRadixRouting:
    @pytest.mark.parametrize("radix,n_ports", [(3, 27), (4, 64)])
    def test_routes_deliver(self, radix, n_ports):
        net = radix_cube(n_ports, radix)
        conf = Conference.of([0, 5, n_ports - 1])
        route = route_conference(net, conf)
        for port, t in route.taps.items():
            assert route.mask_at(t, port) == conf.full_mask

    def test_digit_block_conference_combines_early(self):
        """A conference inside one radix-4 digit block combines in one
        stage — the radix analogue of the binary block locality."""
        net = radix_cube(64, 4)
        route = route_conference(net, Conference.of([0, 1, 2, 3]))
        assert route.depth == 1

    def test_radix_cube_aligned_blocks_conflict_free(self):
        """Radix-r digit blocks are the radix generalization of the
        Yang-2001 guarantee."""
        net = radix_cube(64, 4)
        groups = [[0, 1, 3], [4, 6], [16, 17, 18, 19], [32, 35]]
        routes = [route_conference(net, Conference.of(g, i)) for i, g in enumerate(groups)]
        assert analyze_conflicts(routes).conflict_free


class TestRadixLaws:
    @pytest.mark.parametrize("radix,n_ports", [(3, 27), (4, 16), (4, 64), (8, 64)])
    def test_adversarial_meets_law_at_every_level(self, radix, n_ports):
        net = radix_cube(n_ports, radix)
        n = net.n_stages
        for level in range(1, n + 1):
            cs = radix_cube_adversarial_set(n_ports, radix, level)
            routes = [route_conference(net, c) for c in cs]
            got = analyze_conflicts(routes).stage_profile[level - 1]
            assert got == radix_cube_link_multiplicity(level, n, radix)

    @pytest.mark.parametrize("radix,n_ports", [(3, 27), (4, 64)])
    def test_matching_profile_equals_law(self, radix, n_ports):
        net = radix_cube(n_ports, radix)
        n = net.n_stages
        law = tuple(radix_cube_link_multiplicity(t, n, radix) for t in range(1, n + 1))
        assert matching_stage_profile(net) == law

    def test_higher_radix_cuts_worst_case_at_fixed_n_ports(self):
        """The headline radix trade at N=64: worst dilation 8 (r=2) vs
        4 (r=4) — bigger switches buy thinner links."""
        assert radix_max_multiplicity(6, 2) == 8
        assert radix_max_multiplicity(3, 4) == 4
        assert radix_max_multiplicity(2, 8) == 8

    def test_law_validation(self):
        with pytest.raises(ValueError):
            radix_cube_link_multiplicity(0, 3, 4)
        with pytest.raises(ValueError):
            radix_cube_link_multiplicity(1, 3, 1)
        with pytest.raises(ValueError):
            radix_max_multiplicity(0, 4)


class TestRadixIntegration:
    def test_group_connections_route_on_radix_networks(self):
        from repro.core.groupcast import GroupConnection, route_group

        net = radix_cube(64, 4)
        route = route_group(net, GroupConnection.multicast(0, [17, 42, 63]))
        for r, t in route.taps.items():
            assert route.mask_at(t, r) == 1

    def test_churn_on_radix_network(self):
        from repro.core.churn import extend_route

        net = radix_cube(64, 4)
        route = route_conference(net, Conference.of([0, 1]))
        result = extend_route(net, route, 2)  # stays inside the digit block
        assert result.hitless

    def test_faults_on_radix_network(self):
        from repro.core.routing import UnroutableError

        net = radix_cube(64, 4)
        conf = Conference.of([0, 1])
        route = route_conference(net, conf)
        # Banyan fragility generalizes: any used link is fatal.
        victim = min(route.links)
        with pytest.raises(UnroutableError):
            route_conference(net, conf, faults=frozenset({victim}))

    def test_scheduling_on_radix_network(self):
        from repro.analysis.scheduling import schedule_slots

        net = radix_cube(64, 4)
        cs = radix_cube_adversarial_set(64, 4, 1)
        routes = [route_conference(net, c) for c in cs]
        res = schedule_slots(routes)
        assert res.n_slots == res.clique_bound == 4
