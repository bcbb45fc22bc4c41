"""Tests for the worst-case search machinery.

These are the reproduction's load-bearing results: the cube law is
tight (constructively and by exhaustive search), baseline matches it,
and omega exceeds it exactly as the tap-slot analysis predicts.
"""

import pytest

from repro.analysis.theory import (
    cube_link_multiplicity,
    general_link_multiplicity_bound,
    max_multiplicity_bound,
)
from repro.analysis.worstcase import (
    cube_adversarial_set,
    exhaustive_max_multiplicity,
    matching_lower_bound,
    matching_stage_profile,
    randomized_search,
)
from repro.core.conflict import analyze_conflicts
from repro.core.routing import route_conference
from repro.topology.builders import build


class TestAdversarialConstruction:
    @pytest.mark.parametrize("n_ports", [4, 8, 16, 32, 64])
    def test_achieves_cube_law_at_every_level(self, n_ports):
        n = n_ports.bit_length() - 1
        net = build("indirect-binary-cube", n_ports)
        for level in range(1, n + 1):
            cs = cube_adversarial_set(n_ports, level)
            routes = [route_conference(net, c) for c in cs]
            report = analyze_conflicts(routes)
            assert report.stage_profile[level - 1] == cube_link_multiplicity(level, n)

    def test_default_level_hits_network_worst_case(self):
        net = build("indirect-binary-cube", 64)
        cs = cube_adversarial_set(64)
        routes = [route_conference(net, c) for c in cs]
        assert analyze_conflicts(routes).max_multiplicity == max_multiplicity_bound(6)

    @pytest.mark.parametrize("n_ports", [4, 8, 16, 32, 64])
    def test_default_level_is_half_the_stages(self, n_ports):
        n = n_ports.bit_length() - 1
        assert list(cube_adversarial_set(n_ports)) == list(cube_adversarial_set(n_ports, n // 2))

    def test_one_stage_cube_defaults_to_level_one(self):
        cs = cube_adversarial_set(2)
        assert [list(c.members) for c in cs] == [[0, 1]]
        assert list(cs) == list(cube_adversarial_set(2, 1))
        net = build("indirect-binary-cube", 2)
        routes = [route_conference(net, c) for c in cs]
        assert analyze_conflicts(routes).max_multiplicity == max_multiplicity_bound(1)

    def test_set_is_valid_and_pairwise_disjoint(self):
        cs = cube_adversarial_set(32)  # ConferenceSet validates on build
        assert all(c.size == 2 for c in cs)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            cube_adversarial_set(16, 0)
        with pytest.raises(ValueError):
            cube_adversarial_set(16, 5)


class TestExhaustive:
    """Ground truth over every disjoint family at N=4 and N=8."""

    @pytest.mark.parametrize(
        "name,n_ports,expected",
        [
            ("indirect-binary-cube", 4, 2),
            ("baseline", 4, 2),
            ("omega", 4, 2),
            ("indirect-binary-cube", 8, 2),
            ("baseline", 8, 2),
            # Omega genuinely exceeds the cube law at N=8.
            ("omega", 8, 3),
        ],
    )
    def test_exhaustive_worst_case(self, name, n_ports, expected):
        res = exhaustive_max_multiplicity(build(name, n_ports))
        assert res.multiplicity == expected
        assert res.exact
        assert res.witness is not None
        # The witness reproduces its own multiplicity.
        net = build(name, n_ports)
        routes = [route_conference(net, c) for c in res.witness]
        assert analyze_conflicts(routes).max_multiplicity == expected

    def test_exhaustive_respects_general_bound(self):
        for name in ("indirect-binary-cube", "baseline", "omega"):
            res = exhaustive_max_multiplicity(build(name, 8))
            link_level = res.link[0]
            assert res.multiplicity <= general_link_multiplicity_bound(link_level, 3)


class TestMatching:
    def test_matching_matches_exhaustive_at_small_n(self):
        """2-member conferences already realize the worst case at N=8."""
        for name in ("indirect-binary-cube", "baseline", "omega"):
            exact = exhaustive_max_multiplicity(build(name, 8)).multiplicity
            pairs = matching_lower_bound(build(name, 8)).multiplicity
            assert pairs == exact

    @pytest.mark.parametrize(
        "name,profile",
        [
            ("indirect-binary-cube", (2, 4, 2, 1)),
            ("baseline", (2, 4, 2, 1)),
            ("omega", (2, 4, 3, 1)),
        ],
    )
    def test_stage_profiles_n16(self, name, profile):
        assert matching_stage_profile(build(name, 16)) == profile

    @pytest.mark.parametrize(
        "name,profile",
        [
            ("indirect-binary-cube", (2, 4, 4, 2, 1)),
            ("baseline", (2, 4, 4, 2, 1)),
            ("omega", (2, 4, 6, 3, 1)),
        ],
    )
    def test_stage_profiles_n32(self, name, profile):
        assert matching_stage_profile(build(name, 32)) == profile

    def test_matching_witness_is_reproducible(self):
        res = matching_lower_bound(build("omega", 16))
        net = build("omega", 16)
        routes = [route_conference(net, c) for c in res.witness]
        assert analyze_conflicts(routes).max_multiplicity >= res.multiplicity

    def test_profiles_respect_bounds(self):
        for name in ("indirect-binary-cube", "baseline", "omega"):
            profile = matching_stage_profile(build(name, 16))
            for t, value in enumerate(profile, start=1):
                assert value <= general_link_multiplicity_bound(t, 4)


class TestRandomizedSearch:
    def test_finds_conflicts_and_is_deterministic(self):
        net = build("indirect-binary-cube", 32)
        a = randomized_search(net, trials=20, seed=11)
        b = randomized_search(net, trials=20, seed=11)
        assert a.multiplicity == b.multiplicity >= 2
        assert not a.exact

    def test_witness_checks_out(self):
        net = build("omega", 32)
        res = randomized_search(net, trials=20, seed=3)
        routes = [route_conference(net, c) for c in res.witness]
        loads = analyze_conflicts(routes)
        assert loads.max_multiplicity >= res.multiplicity

    def test_never_beats_matching_optimum(self):
        net = build("indirect-binary-cube", 16)
        rand = randomized_search(net, trials=40, seed=5)
        exact = matching_lower_bound(net)
        assert rand.multiplicity <= exact.multiplicity
