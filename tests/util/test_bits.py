"""Unit and property tests for the bit-field helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import bits

N_BITS = st.integers(min_value=1, max_value=16)


def value_for(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


class TestPowersAndLogs:
    def test_is_power_of_two_accepts_powers(self):
        for k in range(20):
            assert bits.is_power_of_two(1 << k)

    @pytest.mark.parametrize("x", [0, -1, -8, 3, 6, 12, 100])
    def test_is_power_of_two_rejects_non_powers(self, x):
        assert not bits.is_power_of_two(x)

    def test_ilog2_exact(self):
        for k in range(20):
            assert bits.ilog2(1 << k) == k

    @pytest.mark.parametrize("x", [0, -4, 3, 12])
    def test_ilog2_rejects(self, x):
        with pytest.raises(ValueError):
            bits.ilog2(x)


class TestBitAccess:
    def test_bit_values(self):
        assert bits.bit(0b1010, 1) == 1
        assert bits.bit(0b1010, 0) == 0
        assert bits.bit(0b1010, 3) == 1

    def test_mask_of(self):
        assert bits.mask_of(0) == 0
        assert bits.mask_of(3) == 0b111

    def test_mask_of_rejects_negative(self):
        with pytest.raises(ValueError):
            bits.mask_of(-1)

    def test_windows_partition_value(self):
        x, n = 0b110101, 6
        assert bits.low_bits(x, 3) | (bits.high_bits(x, 3, n) << 3) == x

    @given(N_BITS.flatmap(lambda n: st.tuples(st.just(n), value_for(n))))
    def test_bit_window_full_is_identity(self, n_and_x):
        n, x = n_and_x
        assert bits.bit_window(x, 0, n) == x

    def test_bit_window_bounds(self):
        with pytest.raises(ValueError):
            bits.bit_window(5, 3, 1)


class TestRotations:
    @given(st.integers(0, 255), st.integers(0, 24))
    def test_rotate_round_trip(self, x, count):
        assert bits.rotate_right(bits.rotate_left(x, 8, count), 8, count) == x & 0xFF

    def test_rotate_left_is_shuffle(self):
        # Perfect shuffle of 8 ports: 0,4,1,5,2,6,3,7 map to 0..7 order.
        assert [bits.rotate_left(x, 3) for x in range(8)] == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_rotate_full_cycle(self):
        for x in range(16):
            assert bits.rotate_left(x, 4, 4) == x

    def test_rotate_rejects_zero_width(self):
        with pytest.raises(ValueError):
            bits.rotate_left(1, 0)


class TestBitReverse:
    def test_known_values(self):
        assert bits.bit_reverse(0b001, 3) == 0b100
        assert bits.bit_reverse(0b110, 3) == 0b011

    @given(N_BITS.flatmap(lambda n: st.tuples(st.just(n), value_for(n))))
    def test_involution(self, n_and_x):
        n, x = n_and_x
        assert bits.bit_reverse(bits.bit_reverse(x, n), n) == x


class TestPrefixSuffix:
    def test_common_prefix(self):
        assert bits.common_prefix_len([0b100, 0b101], 3) == 2
        assert bits.common_prefix_len([0b100, 0b001], 3) == 0
        assert bits.common_prefix_len([5], 3) == 3
        assert bits.common_prefix_len([5, 5, 5], 3) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bits.common_prefix_len([], 3)

    @given(st.lists(value_for(8), min_size=1, max_size=6))
    def test_prefix_suffix_consistent_with_membership(self, values):
        """Every value shares the prefix; the bits below it make up the rest."""
        p = bits.common_prefix_len(values, 8)
        for v in values:
            assert bits.high_bits(v, 8 - p, 8) == bits.high_bits(values[0], 8 - p, 8)
            assert bits.high_bits(v, 8 - p, 8) << (8 - p) | bits.low_bits(v, 8 - p) == v

    @given(st.lists(value_for(8), min_size=2, max_size=6).filter(lambda v: len(set(v)) > 1))
    def test_prefix_is_maximal(self, values):
        p = bits.common_prefix_len(values, 8)
        assert p < 8
        # One more bit of prefix must differ somewhere.
        tops = {bits.high_bits(v, 8 - p - 1, 8) for v in values}
        assert len(tops) > 1


class TestBlocks:
    def test_enclosing_block_exponent(self):
        assert bits.enclosing_block_exponent([0, 1], 4) == 1
        assert bits.enclosing_block_exponent([0, 3], 4) == 2
        assert bits.enclosing_block_exponent([4, 7], 4) == 2
        assert bits.enclosing_block_exponent([3, 4], 4) == 3
        assert bits.enclosing_block_exponent([9], 4) == 0

    @given(st.lists(value_for(6), min_size=1, max_size=8))
    def test_enclosing_block_contains_members(self, members):
        k = bits.enclosing_block_exponent(members, 6)
        block = bits.aligned_block_of(members[0], k)
        assert all(m in block for m in members)

    @given(st.lists(value_for(6), min_size=2, max_size=8).filter(lambda v: len(set(v)) > 1))
    def test_enclosing_block_is_minimal(self, members):
        k = bits.enclosing_block_exponent(members, 6)
        assert k >= 1
        half = bits.aligned_block_of(members[0], k - 1)
        assert not all(m in half for m in members)

    def test_aligned_block_of(self):
        assert list(bits.aligned_block_of(5, 2)) == [4, 5, 6, 7]


class TestMisc:
    def test_same_high_low(self):
        assert bits.same_high_bits(0b1100, 0b1101, 1, 4)
        assert not bits.same_high_bits(0b1100, 0b0100, 3, 4)
        assert bits.same_low_bits(0b1101, 0b0101, 3)
        assert not bits.same_low_bits(0b1101, 0b1100, 1)
