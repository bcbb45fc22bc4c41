"""Tests for random conference-set generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conference import ConferenceSet
from repro.workloads.generators import (
    aligned_sets,
    clustered,
    draw_sizes,
    interleaved,
    uniform_partition,
)
from repro.util.rng import ensure_rng


class TestDrawSizes:
    def test_respects_budget_and_minimum(self):
        rng = ensure_rng(0)
        sizes = draw_sizes(rng, 40, mean_size=4.0)
        assert sum(sizes) <= 40
        assert all(s >= 2 for s in sizes)

    def test_max_size_cap(self):
        rng = ensure_rng(0)
        assert all(s <= 3 for s in draw_sizes(rng, 60, 4.0, max_size=3))

    def test_mean_below_min_rejected(self):
        with pytest.raises(ValueError):
            draw_sizes(ensure_rng(0), 10, mean_size=1.0, min_size=2)


class TestUniformPartition:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), load=st.floats(0.1, 1.0))
    def test_valid_and_load_respected(self, seed, load):
        cs = uniform_partition(64, load=load, seed=seed)
        assert isinstance(cs, ConferenceSet)
        assert len(cs.occupied_ports) <= int(round(load * 64))

    def test_deterministic(self):
        a = uniform_partition(64, seed=5)
        b = uniform_partition(64, seed=5)
        assert [c.members for c in a] == [c.members for c in b]

    def test_load_validation(self):
        with pytest.raises(ValueError):
            uniform_partition(64, load=1.5)


class TestClustered:
    def test_valid_and_deterministic(self):
        a = clustered(64, seed=9)
        b = clustered(64, seed=9)
        assert [c.members for c in a] == [c.members for c in b]
        assert a.load > 0

    def test_members_are_local(self):
        cs = clustered(256, load=0.3, mean_size=4.0, spread=8, seed=2)
        for conf in cs:
            assert max(conf.members) - min(conf.members) <= 4 * 8

    def test_spread_validation(self):
        with pytest.raises(ValueError):
            clustered(64, spread=0)


class TestInterleaved:
    def test_shape(self):
        cs = interleaved(64, seed=0)
        assert all(c.size == 2 for c in cs)
        assert len(cs) == 7  # 2**min(3, 3) - 1

    def test_straddles_blocks(self):
        cs = interleaved(64, seed=1)
        n = 6
        t = 3
        for conf in cs:
            lo, hi = conf.members
            assert hi == lo << t

    def test_count_validation(self):
        with pytest.raises(ValueError):
            interleaved(64, n_conferences=100)
        assert len(interleaved(64, n_conferences=3, seed=0)) == 3


class TestAlignedSets:
    def test_conferences_fit_blocks(self):
        cs = aligned_sets(64, seed=4)
        for conf in cs:
            k = conf.enclosing_block_exponent(64)
            assert (1 << k) >= conf.size

    def test_never_raises_even_at_full_load(self):
        cs = aligned_sets(16, load=1.0, mean_size=5.0, seed=8)
        assert isinstance(cs, ConferenceSet)
