"""Kernel-first churn against the pinned reference walk.

``extend_route`` / ``prune_route`` route the new member set with the
kernel and return that route (drift 0) unless some continuing member's
old tap lies deeper than its kernel tap; only then is the conference
routed again, by the kernel with its pins as input.  The oracle is the
sequential walk of ``repro.core.reference`` with ``pins=``: for every
registered topology, N=16 and N=64, 0-3 faults and both tap policies,
the after-route ``repr``, ``drift_links``, ``taps_moved`` and error args
must equal what the walk gives.  Routes healed around a fault on their
own links and extended after its repair are included: their fault-era
pins lie deeper than the new natural taps, so pins bind there, and the
grid must send some cases down the pinned kernel call.
"""

import pytest

from repro.core import churn
from repro.core.churn import _diff, extend_route, prune_route
from repro.core.conference import Conference
from repro.core.reference import route_conference_sequential
from repro.core.routing import RoutingPolicy, TapPolicy, UnroutableError, route_conference
from repro.topology.builders import TOPOLOGY_BUILDERS, build
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

TOPOLOGIES = tuple(sorted(TOPOLOGY_BUILDERS))
POLICIES = (RoutingPolicy(), RoutingPolicy(tap_policy=TapPolicy.FINAL))


def _oracle(net, route, members, pins, policy, faults):
    """The pinned reference walk: the incremental result and its drift
    over the natural routing of the same members."""
    conference = Conference.of(members, conference_id=route.conference.conference_id)
    try:
        after = route_conference_sequential(net, conference, policy, faults, pins=pins)
    except ValueError as exc:
        return ("error", type(exc), exc.args)
    natural = route_conference_sequential(net, conference, policy, faults)
    drift = after.n_links - natural.n_links
    result = _diff(route, after, mode="incremental", drift_links=drift)
    return (repr(after), drift, result.taps_moved)


def _observed(step):
    try:
        result = step()
    except ValueError as exc:
        return ("error", type(exc), exc.args)
    assert result.mode == "incremental"
    return (repr(result.after), result.drift_links, result.taps_moved)


def _random_points(net, rng, count, level_from=0):
    return frozenset(
        (int(rng.integers(level_from, net.n_stages + 1)), int(rng.integers(0, net.n_ports)))
        for _ in range(count)
    )


def _degraded(net, route, policy, faults, rng):
    """The route as healed around one extra fault on its own links, when
    that fault moves a tap; the fault is then repaired (not in ``faults``).

    Such fault-era taps can lie deeper than the natural ones, which is
    where pins bind."""
    links = sorted(route.links)
    for i in rng.permutation(len(links)):
        try:
            healed = route_conference(
                net, route.conference, policy, faults | {links[int(i)]}
            )
        except UnroutableError:
            continue
        if healed.taps != route.taps:
            return healed
    return route


@pytest.mark.parametrize("n_ports", (16, 64))
def test_fast_path_equals_the_pinned_walk(n_ports, monkeypatch):
    pinned = []  # pinned kernel calls
    route_batch = churn._route_batch
    monkeypatch.setattr(
        churn, "_route_batch", lambda *args: pinned.append(1) or route_batch(*args)
    )
    rng = ensure_rng(n_ports)
    cases = bound = 0
    for topology in TOPOLOGIES:
        net = build(topology, n_ports)
        for policy in POLICIES:
            for n_faults in range(4):
                for trial in range(6):
                    faults = _random_points(net, rng, n_faults)
                    k = int(rng.integers(2, 7))
                    members = sorted(int(m) for m in rng.choice(n_ports, size=k, replace=False))
                    try:
                        route = route_conference(net, Conference.of(members, 5), policy, faults)
                    except UnroutableError:
                        continue
                    if trial % 2:
                        route = _degraded(net, route, policy, faults, rng)
                    joiner = int(rng.choice(sorted(set(range(n_ports)) - set(members))))
                    leaver = members[int(rng.integers(0, k))]
                    grown = tuple(sorted([*members, joiner]))
                    shrunk = tuple(m for m in members if m != leaver)
                    case = (topology, policy.tap_policy, faults, route)
                    before = len(pinned)
                    want = _oracle(net, route, grown, dict(route.taps), policy, faults)
                    got = _observed(
                        lambda: extend_route(net, route, joiner, policy=policy, faults=faults)
                    )
                    assert got == want, (case, joiner)
                    if len(pinned) > before:  # the extend made the pinned call
                        bound += got != _oracle(net, route, grown, {}, policy, faults)
                    want = _oracle(net, route, shrunk, {}, policy, faults)
                    got = _observed(
                        lambda: prune_route(net, route, leaver, policy=policy, faults=faults)
                    )
                    assert got == want, (case, leaver)
                    cases += 1
    assert cases >= 200
    # Some extends made the pinned call, and in some of those a pin
    # bound: the result differs from the natural routing of the members.
    assert len(pinned) >= 10
    assert bound > 0


def test_prune_and_final_taps_never_walk(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the pinned kernel call ran")

    monkeypatch.setattr(churn, "_route_batch", forbidden)
    net = build("omega", 16)
    final = RoutingPolicy(tap_policy=TapPolicy.FINAL)
    route = route_conference(net, Conference.of([0, 5, 9, 12]), final)
    extend_route(net, route, 7, policy=final)
    prune_route(net, route, 5, policy=final)
    prune_route(net, route_conference(net, Conference.of([1, 2, 6])), 2)


def test_unroutable_extend_raises_the_walks_error():
    net = build("indirect-binary-cube", 16)
    route = route_conference(net, Conference.of([0, 1]))
    faults = frozenset({(0, 4)})  # the joiner's injection is dead
    want = _oracle(net, route, (0, 1, 4), dict(route.taps), RoutingPolicy(), faults)
    got = _observed(lambda: extend_route(net, route, 4, faults=faults))
    assert got == want
    assert got[0] == "error" and got[1] is UnroutableError
