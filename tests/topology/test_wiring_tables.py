"""Wiring lookup tables agree with the scalar wiring functions.

``Permutation.table`` may be built in one vectorized call (the cube's
``bit_to_front`` wiring) or one scalar call per point.  Either way it
must equal the scalar ``p(x)`` for every point, every network's
successor and predecessor tables must equal the ones the scalar
functions imply, and a callable that is not a bijection must still be
refused.
"""

import pytest

from repro.topology import permutations as perms
from repro.topology.builders import TOPOLOGY_BUILDERS

SIZES = [1 << k for k in range(1, 11)]  # 2 .. 1024


def _scalar_inverse(p, size):
    inv = [0] * size
    for x in range(size):
        inv[p(x)] = x
    return inv


@pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
def test_tables_match_scalar_wiring(name):
    for size in SIZES:
        net = TOPOLOGY_BUILDERS[name](size)
        succ = net.successor_table.tolist()
        pred = net.predecessor_table.tolist()
        for s, stage in enumerate(net.stages):
            pre = [stage.pre(x) for x in range(size)]
            post = [stage.post(x) for x in range(size)]
            assert stage.pre.table.tolist() == pre
            assert stage.post.table.tolist() == post
            pre_inv = _scalar_inverse(stage.pre, size)
            post_inv = _scalar_inverse(stage.post, size)
            assert stage.pre.inverse.table.tolist() == pre_inv
            assert stage.post.inverse.table.tolist() == post_inv
            for x in range(size):
                base = pre[x] // 2 * 2
                assert succ[s][x] == [post[base], post[base + 1]]
                base = post_inv[x] // 2 * 2
                assert pred[s][x] == [pre_inv[base], pre_inv[base + 1]]


@pytest.mark.parametrize("size", SIZES)
def test_bit_to_front_table_is_the_scalar_map(size):
    for k in range(size.bit_length() - 1):
        p = perms.bit_to_front(size, k)
        assert p.table.tolist() == [p(x) for x in range(size)]
        assert not p.table.flags.writeable


@pytest.mark.parametrize(
    "fn",
    [lambda x: x // 2, lambda x: x & 1, lambda x: x + 1, lambda x: x - 1],
    ids=["collapse", "low-bit", "past-end", "negative"],
)
@pytest.mark.parametrize("cls", [perms.Permutation, perms._ArithmeticPermutation])
def test_non_bijection_still_raises(cls, fn):
    with pytest.raises(ValueError, match="not a bijection"):
        cls(8, fn, name="bad").table
