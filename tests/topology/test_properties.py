"""Tests for structural property checkers and digests."""


import pytest

from repro.topology.builders import TOPOLOGY_BUILDERS, build
from repro.topology.graph import count_paths
from repro.topology.network import MultistageNetwork, Stage
from repro.topology.permutations import identity, perfect_shuffle
from repro.topology.properties import (
    has_full_access,
    is_banyan,
    is_buddy,
    stage_pairing_bits,
    structure_digest,
)


def degenerate_network(size: int, stages: int) -> MultistageNetwork:
    """All stages pair the same rows — neither banyan nor full access."""
    ident = identity(size)
    return MultistageNetwork(size, [Stage(ident, ident)] * stages, name="degenerate")


class TestNegativeCases:
    def test_degenerate_lacks_full_access(self):
        assert not has_full_access(degenerate_network(8, 3))

    def test_degenerate_is_not_banyan(self):
        # Same-pairs stages give multiple paths within a pair and none across.
        assert not is_banyan(degenerate_network(8, 2))

    def test_degenerate_is_not_buddy(self):
        assert not is_buddy(degenerate_network(8, 2))

    def test_single_stage_shuffle_lacks_access(self):
        net = MultistageNetwork(8, [Stage(perfect_shuffle(8), identity(8))])
        assert not has_full_access(net)


def banyan_by_paths(net: MultistageNetwork) -> bool:
    """The pairwise definition: exactly one path for every input/output pair."""
    n = net.n_ports
    return all(count_paths(net, s, d) == 1 for s in range(n) for d in range(n))


class TestBanyanDefinition:
    """``is_banyan`` reads unique paths + full access off the ancestor
    bitsets; it must agree with the pairwise path count everywhere."""

    @pytest.mark.parametrize("n_ports", (8, 16, 32))
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_registry_matches_pairwise_count(self, name, n_ports):
        net = build(name, n_ports)
        assert is_banyan(net) == banyan_by_paths(net)

    @pytest.mark.parametrize("stages", (1, 2, 3))
    def test_degenerate_matches_pairwise_count(self, stages):
        net = degenerate_network(8, stages)
        assert is_banyan(net) == banyan_by_paths(net)
        assert not is_banyan(net)

    def test_unique_paths_without_full_access_is_not_banyan(self):
        net = MultistageNetwork(8, [Stage(perfect_shuffle(8), identity(8))])
        assert net._unique_paths
        assert not is_banyan(net) and not banyan_by_paths(net)


class TestPairingBits:
    def test_cube_bits(self):
        assert stage_pairing_bits(build("indirect-binary-cube", 16)) == [0, 1, 2, 3]

    def test_degenerate_bits_are_constant_zero(self):
        assert stage_pairing_bits(degenerate_network(8, 2)) == [0, 0]


class TestStructureDigest:
    def test_paper_topologies_share_digest(self):
        """Baseline, omega and the cube are topologically equivalent."""
        nets = [build(n, 16) for n in ("baseline", "omega", "indirect-binary-cube")]
        digests = {structure_digest(net) for net in nets}
        assert len(digests) == 1

    def test_degenerate_digest_differs(self):
        assert structure_digest(degenerate_network(16, 4)) != structure_digest(
            build("omega", 16)
        )

    def test_digest_depends_on_size(self):
        assert structure_digest(build("omega", 8)) != structure_digest(build("omega", 16))
