"""Golden snapshot of group-connection routing.

``repr(route_group(...))`` for about 200 seeded connections: multicast,
panel (senders inside the receivers), disjoint and overlapping shapes
on every registered topology at N=16 and N=64, the radix-4 cube, and
connections of more than 64 senders at N=128, under both tap modes.
The repr keeps dict insertion order, so a router that builds an
"equal" route in another order shows up here as drift.  Reprs longer
than ``MAX_VERBATIM`` characters are stored as their SHA-256.
"""

import hashlib

import pytest

from repro.core.groupcast import GroupConnection, route_group
from repro.topology.builders import TOPOLOGY_BUILDERS, build, radix_cube
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

SHAPES = ("multicast", "panel", "disjoint", "overlapping")
#: Longer reprs are stored as a digest to keep the golden file small.
MAX_VERBATIM = 2000


def draw_connection(rng, n_ports: int, shape: str, cid: int):
    """One connection of ``shape`` on ``n_ports`` ports (at most 70 senders)."""
    perm = [int(p) for p in rng.permutation(n_ports)]
    cap = min(70, n_ports)
    if shape == "multicast":
        k = int(rng.integers(1, min(70, n_ports - 1) + 1))
        return GroupConnection.multicast(perm[0], perm[1 : 1 + k], cid)
    if shape == "panel":
        k = int(rng.integers(1, cap + 1))
        senders = perm[: int(rng.integers(1, k + 1))]
        return GroupConnection(tuple(senders), tuple(perm[:k]), cid)
    if shape == "disjoint":
        s = int(rng.integers(1, min(cap, n_ports - 1) + 1))
        r = int(rng.integers(1, n_ports - s + 1))
        return GroupConnection(tuple(perm[:s]), tuple(perm[s : s + r]), cid)
    senders = rng.choice(n_ports, size=int(rng.integers(1, cap + 1)), replace=False)
    receivers = rng.choice(n_ports, size=int(rng.integers(1, min(70, n_ports) + 1)), replace=False)
    return GroupConnection(
        tuple(int(p) for p in senders), tuple(int(p) for p in receivers), cid
    )


def cases():
    """``(label, network, connection, earliest_taps)`` for every golden case."""
    nets = [build(name, n) for name in sorted(TOPOLOGY_BUILDERS) for n in (16, 64)]
    nets.append(radix_cube(64, 4))
    out = []
    for net in nets:
        for earliest in (True, False):
            rng = ensure_rng(len(out) + 1000 * net.n_ports)
            for cid, shape in enumerate(SHAPES * 2 if net.n_ports == 64 else SHAPES):
                conn = draw_connection(rng, net.n_ports, shape, cid)
                out.append((f"{net.name}/{net.n_ports}/{int(earliest)}/{cid}/{shape}", net, conn, earliest))
    # More than 64 senders: a wide slot (two or more words per connection).
    for name in ("indirect-binary-cube", "omega", "extra-stage-cube"):
        net = build(name, 128)
        rng = ensure_rng(len(out))
        for cid, k in enumerate((65, 70, 100, 128)):
            perm = [int(p) for p in rng.permutation(128)]
            senders = perm[:k]
            receivers = perm[128 - int(rng.integers(1, 60)) :] if cid % 2 else perm[: k // 2]
            conn = GroupConnection(tuple(senders), tuple(receivers), cid)
            earliest = cid < 2
            out.append((f"{net.name}/128/{int(earliest)}/{cid}/wide", net, conn, earliest))
    return out


def record(net, conn, earliest):
    """The route's repr; a long one is kept as its length and SHA-256."""
    try:
        text = repr(route_group(net, conn, earliest_taps=earliest))
    except ValueError as err:
        return f"{type(err).__name__}: {err}"
    if len(text) <= MAX_VERBATIM:
        return text
    return f"sha256 {hashlib.sha256(text.encode()).hexdigest()} len {len(text)}"


def test_route_group_reprs(golden):
    golden(
        "route_group_reprs",
        {label: record(net, conn, earliest) for label, net, conn, earliest in cases()},
    )
