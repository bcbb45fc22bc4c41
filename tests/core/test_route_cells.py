"""``Route.cells``: the one array encoding of a route's links.

A link ``(t, r)`` is the ledger cell ``t * n_ports + r``.  The admission
ledger books, diffs and releases routes through ``cells`` alone, so the
array must hold every used link exactly once and nothing else: no
level-0 injection, no duplicate.  The grid covers every registered
topology at N=8/16/64, with and without faults, pinned routes,
``prune=True`` routes (rebuilt by the dataclass constructor) and group
routes.

The stored forms of a routing result are ``Route`` objects too: a
backup-plan hit and a primed route come back as the very object the
kernel built, equal to ``route_conference`` under the same faults, and
a primed route is served only to its own conference.
"""

import random

import numpy as np
import pytest

from repro.core.batch import _route_batch, route_batch
from repro.core.conference import Conference
from repro.core.groupcast import GroupConnection, route_group
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import RoutingPolicy, TapPolicy, route_conference
from repro.protect.plans import BackupPlanStore
from repro.sim.engine import EventLoop
from repro.topology.builders import TOPOLOGY_BUILDERS, build

pytestmark = pytest.mark.tier1

TOPOLOGIES = tuple(sorted(TOPOLOGY_BUILDERS))


def decoded(route):
    """``route.cells`` read back as points."""
    return [divmod(cell, route.n_ports) for cell in route.cells.tolist()]


def assert_encodes_links(route):
    cells = route.cells
    assert cells.dtype == np.int64
    assert len(np.unique(cells)) == len(cells) == route.n_links
    assert set(decoded(route)) == route.links
    assert not cells.flags.writeable
    assert route.cells is cells  # built once per route


def kernel_routes(net, seed):
    """Seeded kernel routes: plain, under faults, pinned and pruned."""
    rng = random.Random(seed)
    n, n_rows = net.n_stages, net.n_ports
    points = [(t, r) for t in range(n + 1) for r in range(n_rows)]
    for policy in (
        RoutingPolicy(),
        RoutingPolicy(TapPolicy.FINAL),
        RoutingPolicy(prune=True),
    ):
        confs = [
            Conference.of(rng.sample(range(n_rows), rng.randint(1, min(8, n_rows))), cid)
            for cid in range(6)
        ]
        dead = frozenset(rng.sample(points, rng.randint(1, 3)))
        pins = [{m: rng.randint(1, n) for m in c.members if rng.random() < 0.5} for c in confs]
        for faults, pinned in ((frozenset(), None), (dead, None), (frozenset(), pins)):
            for outcome in _route_batch(net, confs, policy, faults, pins=pinned):
                if outcome.ok:
                    yield outcome.route


@pytest.mark.parametrize("n_ports", [8, 16, 64])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_cells_encode_exactly_the_links(topology, n_ports):
    net = build(topology, n_ports)
    routes = list(kernel_routes(net, seed=n_ports))
    assert routes
    for route in routes:
        assert_encodes_links(route)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_cells_of_group_routes(topology):
    net = build(topology, 16)
    rng = random.Random(3)
    for cid in range(8):
        senders = rng.sample(range(16), rng.randint(1, 4))
        receivers = rng.sample(range(16), rng.randint(1, 6))
        route = route_group(net, GroupConnection(tuple(senders), tuple(receivers), cid))
        assert_encodes_links(route)


def test_cells_do_not_change_equality_or_repr():
    net = build("indirect-binary-cube", 16)
    conf = Conference.of((0, 5, 9), 2)
    warm, cold = route_conference(net, conf), route_conference(net, conf)
    before = repr(warm)
    warm.cells
    assert "cells" in vars(warm) and "cells" not in vars(cold)
    assert warm == cold and repr(warm) == repr(cold) == before


@pytest.mark.parametrize("topology", ["extra-stage-cube", "benes-cube"])
def test_plan_hit_is_the_stored_route(topology):
    net = build(topology, 16)
    conf = Conference.of((1, 4, 6, 11), 7)
    base = frozenset({(2, 3)})
    live = route_conference(net, conf, faults=base)
    store = BackupPlanStore(net, protection=len(live.links))
    store.protect([live], base)
    hits = 0
    for point, plan in store.plans_of(conf.conference_id).items():
        if plan.unroutable:
            continue
        status, route = store.lookup(conf, point, base | {point})
        assert status == "hit" and route is plan.entry
        assert route == route_conference(net, conf, faults=base | {point})
        hits += 1
    assert hits


def test_primed_route_is_the_stored_route():
    network = ConferenceNetwork.build("extra-stage-cube", 16, dilation=16)
    healing = SelfHealingController(network, rng=0)
    healing.apply_fault(EventLoop(), (1, 0))
    faults = frozenset({(1, 0)})
    conf = Conference.of((0, 1, 6), 4)
    healing.prime_batch([conf], include_healthy=True)
    primed = healing._primed[conf, faults].route
    healthy = healing._primed[conf, frozenset()].route
    route = healing.try_join(conf)
    assert route is primed
    assert route == route_conference(network.topology, conf, faults=faults)
    assert healing._healthy[conf.conference_id] is healthy
    assert not healing._primed


def test_primed_route_is_served_to_its_own_conference_only():
    """Same members, another id: the primed route is not this call's."""
    network = ConferenceNetwork.build("indirect-binary-cube", 16, dilation=16)
    healing = SelfHealingController(network, rng=0)
    primed, asked = Conference.of((2, 3, 12), 0), Conference.of((2, 3, 12), 1)
    healing.prime_batch([primed])
    route = healing.try_join(asked)
    assert route.conference == asked
    assert route == route_batch(network.topology, [asked])[0].route
    assert healing.route_of(asked.conference_id).conference == asked
