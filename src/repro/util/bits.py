"""Bit-field helpers used throughout the topology and routing code.

Ports of an ``N = 2**n`` network are identified with ``n``-bit integers.
Every multistage topology in this library is a *bit-permutation network*:
the wiring between stages permutes the address bits of the row a signal
sits on, and a 2x2 switch toggles exactly one address bit.  All routing
and conflict analysis therefore reduces to reasoning about bit windows,
prefixes and suffixes of port addresses, which is what this module
implements.

Bit numbering convention: bit 0 is the least significant bit.  ``bits
t..n-1`` therefore means the *high* part of the address and ``bits
0..t-1`` the *low* part.  An "aligned block of size 2**k" is a set of
addresses sharing bits ``k..n-1``.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "is_power_of_two",
    "ilog2",
    "bit",
    "low_bits",
    "high_bits",
    "bit_window",
    "same_high_bits",
    "same_low_bits",
    "rotate_left",
    "rotate_right",
    "bit_reverse",
    "common_prefix_len",
    "enclosing_block_exponent",
    "aligned_block_of",
    "mask_of",
    "pack_rows",
    "unpack_rows",
]


def is_power_of_two(x: int) -> bool:
    """Return True when ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def ilog2(x: int) -> int:
    """Exact integer base-2 logarithm of a power of two.

    Raises ``ValueError`` when ``x`` is not a positive power of two, so
    callers never silently truncate.
    """
    if not is_power_of_two(x):
        raise ValueError(f"expected a positive power of two, got {x!r}")
    return x.bit_length() - 1


def bit(x: int, i: int) -> int:
    """The value (0 or 1) of bit ``i`` of ``x``."""
    return (x >> i) & 1


def mask_of(width: int) -> int:
    """A mask with the ``width`` lowest bits set."""
    if width < 0:
        raise ValueError(f"mask width must be >= 0, got {width}")
    return (1 << width) - 1


def low_bits(x: int, k: int) -> int:
    """The ``k`` least significant bits of ``x``."""
    return x & mask_of(k)


def high_bits(x: int, k: int, n: int) -> int:
    """Bits ``k..n-1`` of ``x`` (shifted down so they start at bit 0)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (x >> k) & mask_of(n - k)


def bit_window(x: int, lo: int, hi: int) -> int:
    """Bits ``lo..hi-1`` of ``x``, shifted down to start at bit 0.

    The window is half-open, mirroring Python slicing: ``bit_window(x, 0,
    n)`` is ``x`` itself for an ``n``-bit value.
    """
    if lo > hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    return (x >> lo) & mask_of(hi - lo)


def same_high_bits(a: int, b: int, k: int, n: int) -> bool:
    """True when ``a`` and ``b`` agree on bits ``k..n-1``."""
    return high_bits(a, k, n) == high_bits(b, k, n)


def same_low_bits(a: int, b: int, k: int) -> bool:
    """True when ``a`` and ``b`` agree on bits ``0..k-1``."""
    return low_bits(a, k) == low_bits(b, k)


def rotate_left(x: int, n: int, count: int = 1) -> int:
    """Rotate the ``n``-bit value ``x`` left by ``count`` positions.

    This is the *perfect shuffle* permutation on addresses: rotating the
    address of every port left by one is exactly the shuffle wiring used
    between omega-network stages.
    """
    if n <= 0:
        raise ValueError(f"bit width must be positive, got {n}")
    count %= n
    m = mask_of(n)
    x &= m
    return ((x << count) | (x >> (n - count))) & m


def rotate_right(x: int, n: int, count: int = 1) -> int:
    """Rotate the ``n``-bit value ``x`` right by ``count`` positions."""
    return rotate_left(x, n, n - (count % n))


def bit_reverse(x: int, n: int) -> int:
    """Reverse the ``n``-bit representation of ``x``.

    Baseline networks with all switches set straight realize the
    bit-reversal permutation, which makes this a handy test oracle.
    """
    r = 0
    for _ in range(n):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def common_prefix_len(values: Iterable[int], n: int) -> int:
    """Length of the shared *high-bit* prefix of ``values`` (n-bit ints).

    Returns ``n`` for a single value (or identical values).  The prefix is
    counted from bit ``n-1`` downward; ``common_prefix_len([0b100, 0b101],
    3) == 2``.
    """
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    first = vals[0]
    diff = 0
    for v in vals[1:]:
        diff |= v ^ first
    if diff == 0:
        return n
    return n - diff.bit_length()


def enclosing_block_exponent(members: Iterable[int], n: int) -> int:
    """Exponent ``k`` of the smallest aligned block containing ``members``.

    The smallest set of the form ``{x : x >> k == c}`` (an aligned block
    of size ``2**k``) that contains every member.  A singleton conference
    has ``k == 0``; members spanning the whole network give ``k == n``.
    This is the number of indirect-binary-cube stages a conference needs
    before it is fully combined on every member row.
    """
    return n - common_prefix_len(members, n)


def aligned_block_of(x: int, k: int) -> range:
    """The aligned block of size ``2**k`` that contains address ``x``."""
    size = 1 << k
    base = (x >> k) << k
    return range(base, base + size)


def pack_rows(rows: Iterable[int]) -> int:
    """Pack a set of row indices into one occupancy word (bit ``r`` set
    iff ``r`` occurs).

    The stage-major words of the columnar routing core
    (:func:`repro.core.batch.occupancy_words`) are built with this;
    :func:`unpack_rows` is its exact inverse for any set of non-negative
    indices (a hypothesis property).
    """
    word = 0
    for r in rows:
        if r < 0:
            raise ValueError(f"row indices must be >= 0, got {r}")
        word |= 1 << r
    return word


def unpack_rows(word: int) -> tuple[int, ...]:
    """The row indices packed into an occupancy word, ascending."""
    if word < 0:
        raise ValueError(f"occupancy words are non-negative, got {word}")
    out = []
    r = 0
    while word:
        if word & 1:
            out.append(r)
        word >>= 1
        r += 1
    return tuple(out)
