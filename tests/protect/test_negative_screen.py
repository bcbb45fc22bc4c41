"""The wiring screen of backup planning against the routing kernel.

On a unique-path network ``BackupPlanStore.protect`` decides negative
plans from two bitset tables instead of a kernel call
(``repro.protect.plans._wired_verdict``).  Wherever it decides, its
verdict must be the kernel's: the same ``UnroutableError`` text and the
same ``port``.  The grid covers every registered topology at N=8/16/64,
both tap policies, pruning on and off, 0-3 base faults (level-0
injections included, and faults on the live route itself), routes cut
with random pins, and every link of every route.
"""

import random

import pytest

from repro.core import batch as batch_mod
from repro.core.batch import _route_batch
from repro.core.conference import Conference
from repro.core.routing import RoutingPolicy, TapPolicy, UnroutableError
from repro.protect.plans import BackupPlanStore, _wired_verdict
from repro.topology.builders import TOPOLOGY_BUILDERS, build
from repro.topology.properties import is_banyan

pytestmark = pytest.mark.tier1

POLICIES = [
    RoutingPolicy(tap_policy, prune)
    for tap_policy in (TapPolicy.EARLIEST, TapPolicy.FINAL)
    for prune in (False, True)
]
CASES_PER_POLICY = {8: 6, 16: 5, 64: 2}


def cases(net, seed):
    """Seeded ``(policy, live route, base faults)`` triples on ``net``.

    Half the routes are cut under the base faults; the other half
    fault-free, so base faults may sit on the live route.  Every route is
    cut with random pins (a pin holds only where the slot is full).
    """
    rng = random.Random(seed)
    n, n_rows = net.n_stages, net.n_ports
    points = [(t, r) for t in range(n + 1) for r in range(n_rows)]
    for policy in POLICIES:
        made = 0
        while made < CASES_PER_POLICY[n_rows]:
            size = rng.randint(2, min(8, n_rows))
            conf = Conference.of(rng.sample(range(n_rows), size), 1)
            base = frozenset(rng.sample(points, rng.randint(0, 3)))
            routed_under = base if rng.random() < 0.5 else frozenset()
            pins = {m: rng.randint(1, n) for m in conf.members if rng.random() < 0.5}
            outcome = _route_batch(net, [conf], policy, routed_under, pins=[pins])[0]
            if not outcome.ok:
                continue
            made += 1
            yield policy, outcome.route, base


def kernel_verdict(net, conf, policy, dead):
    return _route_batch(net, [conf], policy, dead)[0]


@pytest.mark.parametrize("n_ports", sorted(CASES_PER_POLICY))
@pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
def test_screened_verdicts_are_the_kernels(name, n_ports):
    net = build(name, n_ports)
    banyan = is_banyan(net)
    pairs = decided = negatives = 0
    for policy, route, base in cases(net, seed=n_ports):
        conf = route.conference
        for point in sorted(route.links):
            dead = base | {point}
            verdict = _wired_verdict(net, conf.members, dead, policy.tap_policy)
            pairs += 1
            if verdict is None and not banyan:
                continue
            expected = kernel_verdict(net, conf, policy, dead)
            negatives += not expected.ok
            if verdict is None:
                continue
            decided += 1
            assert isinstance(expected.error, UnroutableError), (name, conf, point, base)
            assert type(verdict) is type(expected.error)
            assert verdict.args == expected.error.args, (conf, point, base, policy)
            assert verdict.port == expected.error.port
    assert pairs
    if banyan:
        # A positive plan needs the kernel to build its route; of the
        # negative ones, the screen leaves none undecided.
        assert negatives and decided == negatives, f"{name}: decided {decided}/{negatives}"
    else:
        assert decided == 0


@pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
def test_protect_routes_only_what_the_screen_leaves(name, monkeypatch):
    """Store level: each plan equals the kernel's outcome under
    ``base | {point}``, and only the undecided pairs reach the kernel."""
    net = build(name, 16)
    routed: list[int] = []
    kernel = batch_mod._kernel

    def counted(net, confs, *args):
        routed.append(len(confs))
        return kernel(net, confs, *args)

    monkeypatch.setattr(batch_mod, "_kernel", counted)
    for policy, route, base in cases(net, seed=7):
        conf = route.conference
        links = sorted(route.links)
        store = BackupPlanStore(net, policy=policy, protection=len(links))
        routed.clear()
        assert store.protect([route], base, lambda r, k: sorted(r.links)) == len(links)
        planned = sum(routed)
        positive = 0
        for point, plan in store.plans_of(conf.conference_id).items():
            expected = kernel_verdict(net, conf, policy, base | {point})
            assert plan.base_faults == base and plan.members == conf.members
            if expected.ok:
                positive += 1
                assert not plan.unroutable
                assert plan.entry == expected.route
            else:
                assert plan.unroutable and plan.entry.args == expected.error.args
        assert planned == (positive if is_banyan(net) else len(links))


def test_first_failing_member_is_named():
    """A dead injection leaves every member short of member 5's signal:
    the verdict names the first member, as the kernel's scan does."""
    net = build("omega", 8)
    conf = Conference.of([1, 2, 5], 1)
    dead = frozenset({(0, 5)})
    verdict = _wired_verdict(net, conf.members, dead, TapPolicy.EARLIEST)
    assert verdict is not None and verdict.port == 1
    assert verdict.args == kernel_verdict(net, conf, RoutingPolicy(), dead).error.args


def test_final_policy_reads_only_the_final_level():
    """Under FINAL a member whose earlier level survives still fails when
    its final-stage output is cut."""
    net = build("indirect-binary-cube", 8)
    conf = Conference.of([0, 1], 1)
    dead = frozenset({(3, 0)})
    assert _wired_verdict(net, conf.members, dead, TapPolicy.EARLIEST) is None
    verdict = _wired_verdict(net, conf.members, dead, TapPolicy.FINAL)
    expected = kernel_verdict(net, conf, RoutingPolicy(TapPolicy.FINAL), dead).error
    assert verdict.args == expected.args and verdict.port == expected.port == 0
