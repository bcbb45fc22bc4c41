"""Unit tests for the backup-plan store (lifecycle, lookups, footprint)."""

import random

import pytest

from repro.core.conference import Conference
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import RoutingPolicy, UnroutableError, route_conference
from repro.protect.plans import BackupPlanStore
from repro.sim.engine import EventLoop
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

N_PORTS = 16


def store(topology="extra-stage-cube", protection=2, tracer=None):
    net = build(topology, N_PORTS)
    policy = RoutingPolicy()
    s = BackupPlanStore(net, policy=policy, protection=protection, tracer=tracer)

    def router(conference, faults=frozenset()):
        return route_conference(net, conference, policy, faults=faults)

    return s, router


class TestStoreLifecycle:
    def test_protection_must_be_nonnegative(self):
        net = build("extra-stage-cube", N_PORTS)
        with pytest.raises(ValueError, match="protection"):
            BackupPlanStore(net, protection=-1)

    def test_protection_zero_is_refused(self):
        # "Protection off" is a controller without a store, never an
        # empty one (SelfHealingController(protection=0).plan_store is None).
        net = build("extra-stage-cube", N_PORTS)
        with pytest.raises(ValueError, match="protection must be >= 1"):
            BackupPlanStore(net, protection=0)

    def test_protect_plans_the_budgeted_links(self):
        s, router = store(protection=2)
        conf = Conference.of([0, 1, 2, 3], 1)
        route = router(conf)
        stored = s.protect([route], frozenset())
        assert stored == min(2, len(route.links))
        assert s.protected_points(1) <= route.links
        assert len(s) == stored

    def test_budget_larger_than_route_plans_every_link(self):
        s, router = store(protection=10_000)
        conf = Conference.of([0, 5], 2)
        route = router(conf)
        assert s.protect([route], frozenset()) == len(route.links)
        assert s.protected_points(2) == route.links

    def test_load_ranking_prefers_most_loaded_links(self):
        s, router = store(protection=1)
        conf = Conference.of([0, 1], 3)
        route = router(conf)
        links = sorted(route.links)
        hot = links[-1]  # pretend the lexicographically-last link is hottest
        load = {hot: 9}
        s.protect(
            [route], frozenset(),
            ranked=lambda r, k: sorted(r.links, key=lambda p: (-load.get(p, 0), p))[:k],
        )
        assert s.protected_points(3) == frozenset({hot})

    def test_hit_returns_route_bit_identical_to_reactive(self):
        s, router = store(protection=64)
        conf = Conference.of([0, 1, 2], 4)
        route = router(conf)
        s.protect([route], frozenset())
        for point in sorted(route.links):
            faults = frozenset({point})
            status, payload = s.lookup(conf, point, faults)
            assert status == "hit"
            try:
                expected = router(conf, faults)
            except UnroutableError:
                assert isinstance(payload, UnroutableError)
            else:
                assert payload == expected

    def test_negative_plan_counts_and_returns_the_error(self):
        # On a plain banyan (no relay slack, dilation 1) every route link
        # is a single point of failure: all plans must be negative.
        s, router = store(topology="indirect-binary-cube", protection=64)
        conf = Conference.of([0, 1, 2], 5)
        route = router(conf)
        s.protect([route], frozenset())
        foot = s.footprint()
        assert foot["plans"] == foot["negative_plans"] > 0
        assert foot["route_cells"] == 0
        point = sorted(route.links)[0]
        status, payload = s.lookup(conf, point, frozenset({point}))
        assert status == "hit" and isinstance(payload, UnroutableError)

    def test_overlapping_fault_reports_stale(self):
        s, router = store(protection=64)
        conf = Conference.of([0, 1], 6)
        route = router(conf)
        s.protect([route], frozenset())
        point = sorted(route.links)[0]
        extra = (route.n_stages, N_PORTS - 1)
        status, payload = s.lookup(conf, point, frozenset({point, extra}))
        assert status == "stale" and payload is None
        assert point in s.protected_points(6)  # a stale plan is kept

    def test_membership_churn_reports_stale(self):
        s, router = store(protection=64)
        conf = Conference.of([0, 1], 8)
        route = router(conf)
        s.protect([route], frozenset())
        point = sorted(route.links)[0]
        grown = Conference.of([0, 1, 2], 8)
        status, _ = s.lookup(grown, point, frozenset({point}))
        assert status == "stale"

    def test_unknown_point_or_conference_misses(self):
        s, router = store(protection=1)
        conf = Conference.of([0, 1], 9)
        s.protect([router(conf)], frozenset())
        stranger = Conference.of([4, 5], 99)
        assert s.lookup(stranger, (1, 0), frozenset({(1, 0)}))[0] == "miss"

    def test_reprotect_replaces_wholesale(self):
        s, router = store(protection=64)
        conf = Conference.of([0, 1, 2], 10)
        route = router(conf)
        s.protect([route], frozenset())
        # Re-plan under a fault on a route link: the new plans' base must
        # be the new fault set, and old per-point plans must be gone.
        dead = sorted(route.links)[0]
        detour = router(conf, frozenset({dead}))
        s.protect([detour], frozenset({dead}))
        plans = s.plans_of(10)
        assert set(plans) == detour.links
        assert all(p.base_faults == frozenset({dead}) for p in plans.values())

    def test_invalidate_removes_and_counts(self):
        s, router = store(protection=64)
        conf = Conference.of([0, 1, 2], 11)
        s.protect([router(conf)], frozenset())
        n = len(s)
        assert n > 0
        assert s.invalidate(11) == n
        assert len(s) == 0 and s.plans_of(11) == {}
        assert s.invalidate(11) == 0  # unknown id is a no-op

    def test_footprint_grows_with_protection(self):
        cells = {}
        for level in (1, 2, 4):
            s, router = store(protection=level)
            for i, members in enumerate([(0, 1), (2, 3, 4), (5, 6)]):
                conf = Conference.of(members, i)
                s.protect([router(conf)], frozenset())
            foot = s.footprint()
            assert foot["protection"] == level
            assert foot["plans"] <= 3 * level
            cells[level] = foot["route_cells"]
        assert cells[1] <= cells[2] <= cells[4]

    def test_lookup_events_reach_the_tracer(self):
        events = []

        class Spy:
            def event(self, name, **fields):
                events.append(name)

        s, router = store(protection=64, tracer=Spy())
        conf = Conference.of([0, 1], 12)
        route = router(conf)
        s.protect([route], frozenset())
        point = sorted(route.links)[0]
        s.lookup(conf, point, frozenset({point}))
        s.lookup(conf, point, frozenset({point, (1, 15)}))
        s.lookup(conf, (1, 15), frozenset({(1, 15)}))
        assert events == ["plan.hit", "plan.stale", "plan.miss"]


class TestControllerIntegration:
    def make(self, protection):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        return SelfHealingController(network, rng=0, protection=protection)

    def test_protection_validated_and_exposed(self):
        with pytest.raises(ValueError, match="protection"):
            self.make(-1)
        healing = self.make(3)
        assert healing.protection == 3
        assert healing.plan_store is not None
        assert self.make(0).plan_store is None

    def test_admission_plans_and_leave_invalidates(self):
        healing = self.make(2)
        healing.try_join(Conference.of([0, 1, 2], 1))
        assert len(healing.plan_store.plans_of(1)) > 0
        healing.leave(1)
        assert healing.plan_store.plans_of(1) == {}
        assert len(healing.plan_store) == 0

    def test_protected_fault_is_a_plan_hit_with_zero_ticks(self):
        healing = self.make(64)  # protect every link
        route = healing.try_join(Conference.of([0, 1, 2], 1))
        loop = EventLoop()
        healing.apply_fault(loop, sorted(route.links)[0])
        assert healing.stats.plan_hits == 1
        assert healing.stats.recovery_samples == (0.0,)

    def test_unprotected_fault_is_reactive_with_one_tick(self):
        healing = self.make(0)
        route = healing.try_join(Conference.of([0, 1, 2], 1))
        loop = EventLoop()
        healing.apply_fault(loop, sorted(route.links)[0])
        assert healing.stats.plan_hits == 0
        assert healing.stats.recovery_samples == (1.0,)

    def test_fastpath_decisions_match_reactive(self):
        # Same fault schedule against F=all and F=0 controllers: every
        # observable decision (survivors, routes, drops) must agree.
        fast, slow = self.make(64), self.make(0)
        for ctl in (fast, slow):
            for i, members in enumerate([(0, 1), (2, 3, 4, 5), (8, 9)]):
                ctl.try_join(Conference.of(members, i))
        route = fast.route_of(1)
        loop = EventLoop()
        points = sorted(route.links)[:2] + [(1, 11)]
        for point in points:
            fast.apply_fault(loop, point)
            slow.apply_fault(loop, point)
            assert fast.live_conferences == slow.live_conferences
            for cid in sorted(fast.live_conferences):
                assert fast.route_of(cid) == slow.route_of(cid)
        for point in points:
            fast.apply_repair(loop, point)
            slow.apply_repair(loop, point)
            assert fast.live_conferences == slow.live_conferences
            for cid in sorted(fast.live_conferences):
                assert fast.route_of(cid) == slow.route_of(cid)
        assert fast.stats.plan_hits > 0

    def test_store_is_bound_to_the_controller_network(self):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS)
        healing = SelfHealingController(network, rng=0, protection=1)
        assert healing.plan_store.network is network.topology
        assert healing.plan_store.policy == network.policy
        assert healing.protection == 1
        assert SelfHealingController(network, rng=0).plan_store is None


def scan_invalidate(plans, links):
    """The pre-index ``invalidate_links``: scan every conference's plans
    in insertion order.  ``plans`` is ``{cid: {point: plan}}``, mutated;
    returns the number of plans removed."""
    touched = frozenset(links)
    removed = 0
    for cid in list(plans):
        doomed = [
            point
            for point, plan in plans[cid].items()
            if point in touched
            or (not plan.unroutable and any(
                (t, row) in touched
                for t in range(1, len(plan.entry.levels))
                for row in plan.entry.levels[t]
            ))
        ]
        if not doomed:
            continue
        for point in doomed:
            del plans[cid][point]
        removed += len(doomed)
        if not plans[cid]:
            del plans[cid]
    return removed


class TestInvalidateLinks:
    """The point index against the full scan it replaced: same number
    of plans removed, same survivors."""

    @pytest.mark.parametrize("topology", ("extra-stage-cube", "indirect-binary-cube"))
    def test_index_matches_full_scan(self, topology):
        rng = random.Random(5)
        s, router = store(topology, protection=3)
        net = s.network
        points = [(t, r) for t in range(net.n_stages + 1) for r in range(N_PORTS)]
        model: dict = {}
        for _ in range(300):
            op = rng.random()
            if op < 0.4:
                cids = rng.sample(range(8), rng.randint(1, 3))
                routes = [
                    router(Conference.of(rng.sample(range(N_PORTS), rng.randint(2, 5)), cid))
                    for cid in cids
                ]
                s.protect(routes, frozenset())
                for cid in cids:
                    model.pop(cid, None)
                for cid in cids:
                    model[cid] = s.plans_of(cid)
            elif op < 0.5:
                cid = rng.randrange(8)
                assert s.invalidate(cid) == len(model.pop(cid, {}))
            else:
                links = rng.sample(points, rng.randint(1, 6))
                before = len(s)
                removed = scan_invalidate(model, links)
                assert s.invalidate_links(links) is None
                assert before - len(s) == removed
            assert len(s) == sum(len(plans) for plans in model.values())
            for cid in range(8):
                assert s.plans_of(cid) == model.get(cid, {})
