"""The kernel's per-conference fault overlay against plain fault sets.

``_route_batch(net, confs, policy, faults, overlay)`` promises that
conference ``c``'s outcome is exactly what
``route_batch(net, [c], policy, faults | overlay[c])`` returns: the same
route ``repr`` bytes, or the same error type and args.  The backup-plan
store leans on that to route every ``(conference, protected point)``
pair of a re-protect in one kernel call.  The grid covers every
registered topology and both tap policies, overlay points on the route,
already in ``faults``, off the grid and at level 0, unroutable outcomes,
batches spanning several chunks, conferences whose slot spans several
words, and the pruning ablation's post-pass.
"""

import pytest

from repro.core import batch as batch_mod
from repro.core.batch import _route_batch, route_batch
from repro.core.conference import Conference
from repro.core.routing import RoutingPolicy, TapPolicy, UnroutableError
from repro.topology.builders import TOPOLOGY_BUILDERS, build
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

TOPOLOGIES = tuple(sorted(TOPOLOGY_BUILDERS))
POLICIES = (RoutingPolicy(), RoutingPolicy(tap_policy=TapPolicy.FINAL))


def _fingerprint(outcome):
    if outcome.ok:
        return ("route", repr(outcome.route))
    return ("error", type(outcome.error), outcome.error.args)


def _random_faults(net, rng, count):
    return frozenset(
        (int(rng.integers(0, net.n_stages + 1)), int(rng.integers(0, net.n_ports)))
        for _ in range(count)
    )


def _overlay_cases(net, policy, faults, rng, n_conf):
    """Conferences paired with overlays of every interesting kind."""
    confs, overlays = [], []
    for cid in range(n_conf):
        k = int(rng.integers(2, 7))
        members = [int(m) for m in rng.choice(net.n_ports, size=k, replace=False)]
        conf = Conference.of(members, cid)
        outcome = route_batch(net, [conf], policy, faults)[0]
        kind = cid % 6
        if kind == 0 and outcome.ok and outcome.route.links:
            links = sorted(outcome.route.links)
            points = [links[int(rng.integers(0, len(links)))]]
        elif kind == 1 and faults:
            points = [sorted(faults)[0]]  # already dead for everyone
        elif kind == 2:
            points = [(net.n_stages + 1, 0), (1, net.n_ports), (-1, 3)]  # off the grid
        elif kind == 3:
            points = [(0, conf.members[int(rng.integers(0, k))])]  # a dead injection
        elif kind == 4 and outcome.ok and len(outcome.route.links) > 1:
            links = sorted(outcome.route.links)
            picks = rng.choice(len(links), size=2, replace=False)
            points = [links[int(i)] for i in picks]
        else:
            points = []
        confs.append(conf)
        overlays.append(points)
    return confs, overlays


def _assert_overlay_matches(net, policy, faults, confs, overlays):
    got = _route_batch(net, confs, policy, faults, overlays)
    for conf, points, outcome in zip(confs, overlays, got):
        want = route_batch(net, [conf], policy, faults | frozenset(points))[0]
        assert _fingerprint(outcome) == _fingerprint(want), (conf, points)
    return got


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.tap_policy.value)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_overlay_equals_faults_plus_points(topology, policy):
    net = build(topology, 16)
    rng = ensure_rng(TOPOLOGIES.index(topology))
    kinds = set()
    for n_faults in range(4):
        faults = _random_faults(net, rng, n_faults)
        confs, overlays = _overlay_cases(net, policy, faults, rng, 18)
        got = _assert_overlay_matches(net, policy, faults, confs, overlays)
        kinds.update(outcome.ok for outcome in got)
    # Injection overlays make some conferences unroutable: negative plans.
    assert kinds == {True, False}


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_overlay_batches_spanning_several_chunks(topology, monkeypatch):
    net = build(topology, 16)
    monkeypatch.setattr(batch_mod, "_MAX_CELLS", 3 * net.n_ports)  # chunks of 3
    calls = []
    kernel = batch_mod._kernel
    monkeypatch.setattr(
        batch_mod, "_kernel", lambda *args: calls.append(len(args[1])) or kernel(*args)
    )
    rng = ensure_rng(7)
    faults = _random_faults(net, rng, 2)
    confs, overlays = _overlay_cases(net, RoutingPolicy(), faults, rng, 11)
    calls.clear()
    _route_batch(net, confs, RoutingPolicy(), faults, overlays)
    assert calls == [3, 3, 3, 2]
    _assert_overlay_matches(net, RoutingPolicy(), faults, confs, overlays)


def test_no_overlay_and_empty_overlays_route_as_route_batch():
    net = build("omega", 16)
    rng = ensure_rng(3)
    faults = _random_faults(net, rng, 3)
    confs, _ = _overlay_cases(net, RoutingPolicy(), faults, rng, 12)
    want = [_fingerprint(o) for o in route_batch(net, confs, faults=faults)]
    for overlay in (None, [[] for _ in confs]):
        got = _route_batch(net, confs, RoutingPolicy(), faults, overlay)
        assert [_fingerprint(o) for o in got] == want


@pytest.mark.parametrize("topology", ("indirect-binary-cube", "extra-stage-cube"))
def test_overlay_merges_into_the_dead_set_past_the_kernel_slot(topology):
    """A 65-member slot spans two words; the overlay clears both."""
    net = build(topology, 128)
    big = Conference.of([*range(0, 128, 2), 127], 0)
    small = Conference.of([1, 5, 9], 1)
    base = route_batch(net, [big])[0].route
    link = sorted(base.links)[len(base.links) // 2]
    confs = [big, small, big, big]
    overlays = [[link], [link], [(0, big.members[3])], []]
    got = _assert_overlay_matches(net, RoutingPolicy(), frozenset(), confs, overlays)
    assert isinstance(got[2].error, UnroutableError)


def test_overlay_under_the_pruning_ablation():
    net = build("extra-stage-cube", 16)
    policy = RoutingPolicy(tap_policy=TapPolicy.FINAL, prune=True)
    rng = ensure_rng(5)
    faults = _random_faults(net, rng, 1)
    confs, overlays = _overlay_cases(net, policy, faults, rng, 8)
    got = _assert_overlay_matches(net, policy, faults, confs, overlays)
    natural = _route_batch(
        net, confs, RoutingPolicy(tap_policy=TapPolicy.FINAL), faults, overlays
    )
    # The post-pass ran on overlay routes: pruning removed links.
    assert sum(a.route.n_links - b.route.n_links for a, b in zip(natural, got) if a.ok) > 0
