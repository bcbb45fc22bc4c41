#!/usr/bin/env python
"""Reconstruct the paper's worst case by hand and watch it happen.

Walks through the adversarial construction that forces the maximum
conflict multiplicity on the indirect binary cube, renders the
contested link, and demonstrates that (1) pruning cannot help — the
unique-path property forces the collision — and (2) re-homing the same
conferences into aligned blocks dissolves it.

Run:  python examples/adversarial_analysis.py
"""

from repro import ConferenceNetwork
from repro.analysis.theory import cube_link_multiplicity
from repro.analysis.worstcase import cube_adversarial_set
from repro.core.admission import place_aligned
from repro.core.routing import RoutingPolicy
from repro.report.ascii import render_routes
from repro.topology.graph import unique_path

N_PORTS = 16  # n = 4 stages; worst level t = 2 with multiplicity 4


def main() -> None:
    n = N_PORTS.bit_length() - 1
    level = n // 2
    adversarial = cube_adversarial_set(N_PORTS, level)
    print(f"adversarial conferences: {[list(c.members) for c in adversarial]}")
    print(f"theory says {cube_link_multiplicity(level, n)} of them collide "
          f"on the link entering level {level} at row 0\n")

    network = ConferenceNetwork.build("indirect-binary-cube", N_PORTS, dilation=N_PORTS)
    result = network.realize(adversarial)
    assert result.ok
    print(render_routes(network.topology, result.routes))
    print("\n" + result.conflicts.describe())

    # Why no cleverness helps: each conference has a sender s whose high
    # address bits match row 0 and a receiver j whose low bits do; the
    # banyan-unique path from s's input to j's tap is forced through the
    # hot link.
    from repro.util.bits import high_bits, low_bits

    print("\nforced sender->receiver paths through the contested link:")
    for conf in adversarial:
        s = next(m for m in conf.members if high_bits(m, level, n) == 0)
        j = next(m for m in conf.members if low_bits(m, level) == 0)
        path = unique_path(network.topology, s, j)
        assert (level, 0) in path
        print(f"  sender {s:2d} -> receiver {j:2d}: {path}")

    pruned_routes = [
        network.topology and r
        for r in (
            ConferenceNetwork.build(
                "indirect-binary-cube", N_PORTS,
                policy=RoutingPolicy(prune=True), dilation=N_PORTS,
            ).route_set(adversarial)
        )
    ]
    from repro.core.conflict import analyze_conflicts

    pruned_report = analyze_conflicts(pruned_routes, n_stages=n)
    print(f"\nafter greedy pruning: max multiplicity still "
          f"{pruned_report.max_multiplicity} (the conflict is structural)")

    # The fix the prior work (Yang 2001) uses: aligned placement.
    aligned = place_aligned(N_PORTS, [c.size for c in adversarial])
    tight = ConferenceNetwork.build("indirect-binary-cube", N_PORTS, dilation=1)
    fixed = tight.realize(aligned)
    assert fixed.ok and fixed.conflicts.conflict_free
    print("\nsame conference sizes, buddy-aligned placement: "
          f"max multiplicity {fixed.conflicts.max_multiplicity} at dilation 1")


if __name__ == "__main__":
    main()
