"""Tests for the wiring permutation family."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.topology import permutations as perms
from repro.util.bits import bit_reverse

SIZES = [2, 4, 8, 16, 64]


def all_perm_factories(size):
    n = size.bit_length() - 1
    out = [
        perms.identity(size),
        perms.perfect_shuffle(size),
        perms.inverse_shuffle(size),
        perms.bit_reversal(size),
    ]
    out += [perms.butterfly(size, k) for k in range(n)]
    out += [perms.bit_to_front(size, k) for k in range(n)]
    return out


class TestBijectivity:
    @pytest.mark.parametrize("size", SIZES)
    def test_all_family_members_are_bijections(self, size):
        for p in all_perm_factories(size):
            assert sorted(p.table.tolist()) == list(range(size)), p.name

    @pytest.mark.parametrize("size", SIZES)
    def test_inverse_round_trip(self, size):
        for p in all_perm_factories(size):
            for x in range(size):
                assert p.inverse(p(x)) == x
                assert p(p.inverse(x)) == x


class TestSpecificPermutations:
    def test_shuffle_interleaves_halves(self):
        sh = perms.perfect_shuffle(8)
        # Input x goes to 2x mod (N-1)-style interleave: 4 -> 1, 1 -> 2.
        assert sh(4) == 1
        assert sh(1) == 2
        assert sh(0) == 0
        assert sh(7) == 7

    def test_unshuffle_is_shuffle_inverse(self):
        assert perms.inverse_shuffle(16) == perms.perfect_shuffle(16).inverse

    def test_bit_reversal_matches_helper(self):
        br = perms.bit_reversal(16)
        for x in range(16):
            assert br(x) == bit_reverse(x, 4)

    def test_butterfly_swaps_end_bits(self):
        b = perms.butterfly(8, 2)
        assert b(0b001) == 0b100
        assert b(0b101) == 0b101
        assert b == b.inverse

    def test_butterfly_zero_is_identity(self):
        assert perms.butterfly(8, 0) == perms.identity(8)

    def test_bit_to_front_moves_bit(self):
        p = perms.bit_to_front(8, 2)
        # Rows differing only in bit 2 land on adjacent rails.
        for x in range(8):
            assert p(x) // 2 == p(x ^ 4) // 2
            assert p(x) != p(x ^ 4)

    def test_bit_to_front_bounds(self):
        with pytest.raises(ValueError):
            perms.bit_to_front(8, 3)
        with pytest.raises(ValueError):
            perms.butterfly(8, -1)

    def test_bit_to_front_is_shared_and_read_only(self):
        p = perms.bit_to_front(16, 2)
        assert perms.bit_to_front(16, 2) is p
        assert perms.bit_to_front(16, 1) is not p
        assert not p.table.flags.writeable
        with pytest.raises(ValueError):
            p.table[0] = 1
        assert np.array_equal(p.table, [p(x) for x in range(16)])
        # A rejected call is not memoized: it raises every time.
        for _ in range(2):
            with pytest.raises(ValueError):
                perms.bit_to_front(16, 4)


class TestCombinators:
    def test_compose_order(self):
        sh = perms.perfect_shuffle(8)
        br = perms.bit_reversal(8)
        comp = perms.compose(sh, br)
        for x in range(8):
            assert comp(x) == br(sh(x))

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            perms.compose(perms.identity(4), perms.identity(8))

    def test_then_chains(self):
        sh = perms.perfect_shuffle(8)
        assert sh.then(sh.inverse) == perms.identity(8)

    def test_blockwise_unshuffle_stays_in_block(self):
        p = perms.blockwise(16, 4, perms.inverse_shuffle)
        for x in range(16):
            assert p(x) // 4 == x // 4

    def test_blockwise_requires_divisor(self):
        with pytest.raises(ValueError):
            perms.blockwise(16, 3, perms.identity)

    def test_from_mapping_validates(self):
        p = perms.from_mapping([2, 0, 1])
        assert p(0) == 2 and p.inverse(2) == 0
        with pytest.raises(ValueError):
            perms.from_mapping([0, 0, 1])


class TestPermutationObject:
    def test_equality_and_hash(self):
        a = perms.perfect_shuffle(8)
        b = perms.perfect_shuffle(8)
        assert a == b and hash(a) == hash(b)
        assert a != perms.identity(8)

    def test_out_of_range_call(self):
        with pytest.raises(ValueError):
            perms.identity(4)(4)

    def test_apply_vectorized_matches_scalar(self):
        p = perms.bit_reversal(16)
        xs = np.arange(16)
        assert np.array_equal(p.apply(xs), np.array([p(int(x)) for x in xs]))

    def test_invalid_fn_detected_on_table(self):
        bad = perms.Permutation(4, lambda x: 0, name="collapse")
        with pytest.raises(ValueError):
            _ = bad.table

    @given(st.sampled_from(SIZES), st.integers(0, 10_000))
    def test_shuffle_power_cycles(self, size, k):
        n = size.bit_length() - 1
        sh = perms.perfect_shuffle(size)
        x = k % size
        y = x
        for _ in range(n):
            y = sh(y)
        assert y == x  # shuffle has order n on n-bit addresses
