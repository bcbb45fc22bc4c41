"""Port permutations used as inter-stage wiring patterns.

A multistage network alternates *wiring permutations* (fixed metal) with
columns of 2x2 switches (configurable).  All the classic banyan-class
topologies — omega, baseline, indirect binary cube and their reverses —
use wiring drawn from a small family of *bit permutations*: permutations
of ``{0..N-1}`` that act by permuting the binary address bits.  This
module provides those permutations as small immutable objects with exact
inverses, plus the blockwise restriction needed by baseline networks.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cached_property, lru_cache

import numpy as np

from repro.util.bits import bit, ilog2, mask_of, rotate_left, rotate_right

__all__ = [
    "Permutation",
    "identity",
    "perfect_shuffle",
    "inverse_shuffle",
    "bit_reversal",
    "butterfly",
    "bit_to_front",
    "blockwise",
    "compose",
    "digit_count",
    "digit_shuffle",
    "digit_to_front",
    "from_mapping",
]


class Permutation:
    """An immutable permutation of ``{0 .. size-1}``.

    Wraps a callable form (fast for single lookups, used heavily by the
    routing code) and lazily materializes array forms for vectorized use.
    Instances compare equal when they map every point identically, which
    the topology-equivalence tests rely on.
    """

    __slots__ = ("_fn", "_size", "_name", "__dict__")

    def __init__(self, size: int, fn: Callable[[int], int], name: str = "perm"):
        if size <= 0:
            raise ValueError(f"permutation size must be positive, got {size}")
        self._size = size
        self._fn = fn
        self._name = name

    @property
    def size(self) -> int:
        """Number of points the permutation acts on."""
        return self._size

    @property
    def name(self) -> str:
        """Human-readable label used in network descriptions."""
        return self._name

    def __call__(self, x: int) -> int:
        if not 0 <= x < self._size:
            raise ValueError(f"point {x} out of range [0, {self._size})")
        return self._fn(x)

    def _raw_table(self) -> np.ndarray:
        """``p(x)`` for every point, unchecked: one scalar call per point."""
        return np.fromiter((self._fn(x) for x in range(self._size)), dtype=np.int64, count=self._size)

    @cached_property
    def table(self) -> np.ndarray:
        """The permutation as an int64 lookup table (``table[x] == p(x)``)."""
        tab = self._raw_table()
        if not np.array_equal(np.sort(tab), np.arange(self._size)):
            raise ValueError(f"{self._name} is not a bijection on [0, {self._size})")
        tab.setflags(write=False)
        return tab

    @cached_property
    def inverse(self) -> "Permutation":
        """The inverse permutation (materialized once, then cached)."""
        inv = np.empty(self._size, dtype=np.int64)
        inv[self.table] = np.arange(self._size, dtype=np.int64)
        inv.setflags(write=False)
        return Permutation(self._size, lambda x, _t=inv: int(_t[x]), name=f"{self._name}^-1")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Vectorized application to an array of point indices."""
        return self.table[points]

    def then(self, other: "Permutation") -> "Permutation":
        """Composition ``other(self(x))`` (self applied first)."""
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._size == other._size and bool(np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self._size, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"Permutation({self._name}, size={self._size})"


class _ArithmeticPermutation(Permutation):
    """A permutation whose callable is pure integer bit arithmetic.

    Such a callable works unchanged on an int64 array, so the table is
    one vectorized call over ``arange(size)`` instead of ``size`` scalar
    calls; single lookups still go through the scalar path.
    """

    __slots__ = ()

    def _raw_table(self) -> np.ndarray:
        return np.asarray(self._fn(np.arange(self._size, dtype=np.int64)), dtype=np.int64)


def identity(size: int) -> Permutation:
    """The identity wiring (straight wires)."""
    return Permutation(size, lambda x: x, name="identity")


def perfect_shuffle(size: int) -> Permutation:
    """The perfect shuffle: rotate the address bits left by one.

    Sends port ``x`` to ``(2x mod N) + msb(x)``, interleaving the two
    halves of the ports like a riffle shuffle of a card deck.  This is
    the wiring in front of every omega-network stage.
    """
    n = ilog2(size)
    return Permutation(size, lambda x: rotate_left(x, n), name="shuffle")


def inverse_shuffle(size: int) -> Permutation:
    """The inverse perfect shuffle: rotate the address bits right by one."""
    n = ilog2(size)
    return Permutation(size, lambda x: rotate_right(x, n), name="unshuffle")


def bit_reversal(size: int) -> Permutation:
    """Reverse the address bits; self-inverse."""
    n = ilog2(size)

    def rev(x: int) -> int:
        r = 0
        for _ in range(n):
            r = (r << 1) | (x & 1)
            x >>= 1
        return r

    return Permutation(size, rev, name="bit-reversal")


def butterfly(size: int, k: int) -> Permutation:
    """The k-th butterfly permutation: swap address bits 0 and ``k``.

    Self-inverse.  ``butterfly(size, 0)`` is the identity.
    """
    n = ilog2(size)
    if not 0 <= k < n:
        raise ValueError(f"butterfly bit {k} out of range [0, {n})")

    def fly(x: int) -> int:
        b0, bk = bit(x, 0), bit(x, k)
        if b0 != bk:
            x ^= (1 << k) | 1
        return x

    return Permutation(size, fly, name=f"butterfly[{k}]")


@lru_cache(maxsize=None)
def bit_to_front(size: int, k: int) -> Permutation:
    """Rotate address bits ``0..k`` right by one, moving bit ``k`` to bit 0.

    Used to express "pair rows differing in bit k" networks (the indirect
    binary cube) in the canonical adjacent-pair switch layout: after this
    wiring, rows that differed only in bit ``k`` sit on adjacent rails.
    Memoized: permutations are immutable, so every network built at one
    size shares the same wiring objects and their cached tables.
    """
    n = ilog2(size)
    if not 0 <= k < n:
        raise ValueError(f"bit index {k} out of range [0, {n})")
    low_mask = mask_of(k + 1)

    def fwd(x: int) -> int:
        lo = x & low_mask
        return (x & ~low_mask) | ((lo >> k) | ((lo << 1) & low_mask))

    return _ArithmeticPermutation(size, fwd, name=f"bit{k}-to-front")


def blockwise(size: int, block_size: int, factory: Callable[[int], Permutation]) -> Permutation:
    """Apply ``factory(block_size)`` independently inside each aligned block.

    Baseline networks wire each stage as an inverse shuffle restricted to
    progressively smaller subnetworks; this combinator builds exactly that
    from the whole-network permutation constructors above.
    """
    ilog2(size)
    if block_size < 1 or size % block_size:
        raise ValueError(f"block size {block_size} must divide network size {size}")
    inner = factory(block_size)
    if inner.size != block_size:
        raise ValueError("factory produced a permutation of the wrong size")
    mask = block_size - 1

    def fwd(x: int) -> int:
        return (x & ~mask) | inner(x & mask)

    return Permutation(size, fwd, name=f"blockwise[{block_size}]({inner.name})")


def compose(first: Permutation, second: Permutation) -> Permutation:
    """The permutation ``x -> second(first(x))``."""
    if first.size != second.size:
        raise ValueError(f"size mismatch: {first.size} vs {second.size}")
    return Permutation(
        first.size,
        lambda x: second(first(x)),
        name=f"{second.name}∘{first.name}",
    )


def from_mapping(mapping: Sequence[int], name: str = "explicit") -> Permutation:
    """Build a permutation from an explicit table, validating bijectivity."""
    size = len(mapping)
    if sorted(mapping) != list(range(size)):
        raise ValueError("mapping is not a permutation of its index range")
    table = tuple(mapping)
    return Permutation(size, lambda x: table[x], name=name)


def _digits(x: int, radix: int, n: int) -> list[int]:
    """Base-``radix`` digits of ``x``, least significant first."""
    out = []
    for _ in range(n):
        out.append(x % radix)
        x //= radix
    return out


def _undigits(digits: "list[int]", radix: int) -> int:
    """Inverse of :func:`_digits`."""
    x = 0
    for d in reversed(digits):
        x = x * radix + d
    return x


def digit_count(size: int, radix: int) -> int:
    """Exact base-``radix`` logarithm of ``size``.

    Raises ``ValueError`` unless ``size`` is a positive power of the
    radix — radix-``r`` delta networks need ``N = r**n``.
    """
    if radix < 2:
        raise ValueError(f"radix must be >= 2, got {radix}")
    n, x = 0, size
    while x > 1:
        if x % radix:
            raise ValueError(f"size {size} is not a power of radix {radix}")
        x //= radix
        n += 1
    if n == 0:
        raise ValueError(f"size must be at least {radix}, got {size}")
    return n


def digit_shuffle(size: int, radix: int) -> Permutation:
    """The radix-``r`` perfect shuffle: rotate base-``r`` digits left.

    Generalizes :func:`perfect_shuffle` (``radix=2``); the wiring in
    front of every stage of a radix-``r`` delta (omega-like) network.
    """
    n = digit_count(size, radix)

    def fwd(x: int) -> int:
        d = _digits(x, radix, n)
        return _undigits(d[-1:] + d[:-1], radix)

    return Permutation(size, fwd, name=f"shuffle[r{radix}]")


def digit_to_front(size: int, radix: int, k: int) -> Permutation:
    """Rotate base-``r`` digits ``0..k`` right by one (digit ``k`` to front).

    Generalizes :func:`bit_to_front`: after this wiring, rows differing
    only in digit ``k`` sit on consecutive rails, grouped per switch.
    """
    n = digit_count(size, radix)
    if not 0 <= k < n:
        raise ValueError(f"digit index {k} out of range [0, {n})")

    def fwd(x: int) -> int:
        d = _digits(x, radix, n)
        d[: k + 1] = [d[k]] + d[:k]
        return _undigits(d, radix)

    return Permutation(size, fwd, name=f"digit{k}-to-front[r{radix}]")
