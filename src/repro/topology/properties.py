"""Structural property checkers for multistage networks.

These are the classical sanity properties of banyan-class networks.  The
library uses them two ways: the test suite asserts them for every
builder in the registry, and ``repro.analysis.equivalence`` uses the
digest machinery to demonstrate that baseline, omega and the indirect
binary cube are topologically equivalent (isomorphic as graphs) even
though their conference conflict behaviour differs.
"""

from __future__ import annotations

from collections import Counter

from repro.topology.graph import forward_cone
from repro.topology.network import MultistageNetwork

__all__ = [
    "has_full_access",
    "is_banyan",
    "is_buddy",
    "stage_pairing_bits",
    "structure_digest",
]


def has_full_access(net: MultistageNetwork) -> bool:
    """True when every input can reach every output."""
    n = net.n_ports
    for src in range(n):
        if len(forward_cone(net, (0, src))[-1]) != n:
            return False
    return True


def is_banyan(net: MultistageNetwork) -> bool:
    """True when there is exactly one path between every input/output pair.

    The banyan property is what makes conference conflict multiplicity a
    *routing-independent* quantity for two-member conferences: the link
    set joining two ports is forced.  It is read as *unique paths* (at
    most one path from any input to any point) plus *full access* (every
    input reaches every output), both from the network's ancestor
    bitsets — the tables backup planning screens negative plans with.
    """
    everyone = (1 << net.n_ports) - 1
    return net._unique_paths and all(inputs == everyone for inputs in net._ancestors[-1])


def is_buddy(net: MultistageNetwork) -> bool:
    """True when the network has the buddy property.

    Buddy property: the two outputs of any switch at stage ``s`` feed the
    *same pair* of switches at stage ``s+1``.  All delta/banyan networks
    built from 2x2 switches with bijective wiring have it; it guarantees
    that forward cones double in size each stage until saturation.
    """
    for s in range(net.n_stages - 1):
        stage, nxt = net.stages[s], net.stages[s + 1]
        for sw in range(net.n_ports >> 1):
            _, (out_a, out_b) = stage.switch_io(sw)
            if nxt.switch_of_row(out_a) == nxt.switch_of_row(out_b):
                return False
    return True


def stage_pairing_bits(net: MultistageNetwork) -> "list[int | None]":
    """For each stage, the address bit its switches toggle, if any.

    A stage "toggles bit b" when every switch pairs physical rows
    differing exactly in bit ``b`` *and* its outputs return to the same
    two rows.  The indirect binary cube yields ``[0, 1, ..., n-1]``;
    omega and baseline yield ``None`` entries because their stages move
    signals across rows.  Used descriptively in reports.
    """
    bits: "list[int | None]" = []
    for stage in net.stages:
        stage_bit: "int | None" = None
        ok = True
        for sw in range(net.n_ports >> 1):
            (in_a, in_b), (out_a, out_b) = stage.switch_io(sw)
            if {in_a, in_b} != {out_a, out_b}:
                ok = False
                break
            diff = in_a ^ in_b
            if diff & (diff - 1):  # not a single bit
                ok = False
                break
            b = diff.bit_length() - 1
            if stage_bit is None:
                stage_bit = b
            elif stage_bit != b:
                ok = False
                break
        bits.append(stage_bit if ok else None)
    return bits


def structure_digest(net: MultistageNetwork) -> tuple:
    """A label-independent digest of the layered graph.

    Two networks with different digests are certainly not isomorphic;
    equal digests are strong (though not logically conclusive) evidence
    of equivalence.  Plain colour refinement is blind on these uniform
    2-in/2-out layered DAGs (every node at a level looks alike), so the
    digest instead records *path-convergence structure*: for every
    point, the profile of its forward-cone sizes per depth and its
    backward-cone sizes per height, histogrammed per level.  The
    degenerate always-same-pairs network (cones stuck at size 2) and any
    properly mixing banyan network (cones doubling) separate
    immediately, while relabelled-equivalent networks coincide.
    """
    from repro.topology.graph import backward_cone, forward_cone

    per_level: list[tuple] = []
    for lvl in range(net.n_levels):
        sigs = []
        for row in range(net.n_ports):
            fwd = tuple(len(c) for c in forward_cone(net, (lvl, row)))
            bwd = tuple(len(c) for c in backward_cone(net, (lvl, row)))
            sigs.append((fwd, bwd))
        per_level.append(tuple(sorted(Counter(sigs).items())))
    return tuple(per_level)
