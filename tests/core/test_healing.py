"""Tests for the self-healing controller and its retry policy."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionDenied
from repro.core.conference import Conference
from repro.core.healing import RetryPolicy, SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import UnroutableError
from repro.sim.engine import EventLoop
from repro.sim.faults import FaultInjector, FaultTransition, fault_universe
from repro.util.rng import ensure_rng

N_PORTS = 16


def controller(topology="extra-stage-cube", dilation=N_PORTS, retry=None, seed=0):
    network = ConferenceNetwork.build(topology, N_PORTS, dilation=dilation)
    return SelfHealingController(network, retry=retry, rng=seed)


def population():
    members = [(0, 1), (2, 3), (4, 5, 6, 7), (8, 15), (9, 10)]
    return [Conference.of(m, i) for i, m in enumerate(members)]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_delay_grows_then_caps(self):
        policy = RetryPolicy(base_delay=1.0, backoff=2.0, max_delay=5.0, jitter=0.0)
        assert [policy.delay(k) for k in range(5)] == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stretches_within_bound(self):
        policy = RetryPolicy(base_delay=1.0, backoff=1.0, jitter=0.5)
        rng = ensure_rng(0)
        delays = [policy.delay(0, rng) for _ in range(50)]
        assert all(1.0 <= d < 1.5 for d in delays)
        assert len(set(delays)) > 1


class TestAdmissionUnderFaults:
    def test_join_routes_around_live_faults(self):
        healing = controller()
        loop = EventLoop()
        healing.apply_fault(loop, (1, 0))
        route = healing.try_join(Conference.of([0, 1], 0))
        assert (1, 0) not in route.points

    def test_join_denied_with_fault_reason(self):
        healing = controller("indirect-binary-cube")
        healing.apply_fault(EventLoop(), (1, 0))
        with pytest.raises(AdmissionDenied) as excinfo:
            healing.try_join(Conference.of([0, 1], 0))
        assert excinfo.value.reason == "fault"

    def test_join_denied_on_port_clash(self):
        healing = controller()
        healing.try_join(Conference.of([0, 1], 0))
        with pytest.raises(AdmissionDenied) as excinfo:
            healing.try_join(Conference.of([1, 2], 1))
        assert excinfo.value.reason == "ports"

    def test_join_under_fault_is_marked_degraded(self):
        healing = controller()
        healing.apply_fault(EventLoop(), (1, 0))
        healing.try_join(Conference.of([0, 1], 0))
        assert healing.degraded_conferences == {0}


class TestPrimeBatch:
    """A primed entry decides a join exactly as a fresh route would."""

    @pytest.mark.parametrize(
        "topology, members, parked",
        [
            ("extra-stage-cube", (0, 1), "route"),
            # The unique-path cube has no way around (1, 0): a negative entry.
            ("indirect-binary-cube", (0, 1), "unroutable"),
            # An out-of-range member parks its ValueError, re-raised on the join.
            ("extra-stage-cube", (0, 99), "error"),
        ],
    )
    def test_primed_join_matches_unprimed(self, topology, members, parked):
        def join(prime):
            healing = controller(topology)
            healing.apply_fault(EventLoop(), (1, 0))
            conference = Conference.of(members, 0)
            if prime:
                healing.prime_batch([conference])
                primed = healing._primed[conference, frozenset({(1, 0)})]
                kind = (
                    "route" if primed.ok
                    else "unroutable" if isinstance(primed.error, UnroutableError)
                    else "error"
                )
                assert kind == parked
                # Keyed by the conference itself: its members under another id miss.
                other = Conference.of(members, 1)
                assert (other, frozenset({(1, 0)})) not in healing._primed
            try:
                outcome = repr(healing.try_join(conference))
            except AdmissionDenied as denial:
                outcome = ("denied", denial.reason)
            except ValueError as exc:
                outcome = ("error", exc.args)
            assert not healing._primed  # entries are single-shot
            return outcome

        assert join(prime=True) == join(prime=False)


class TestDegradationLadder:
    def test_fault_on_route_heals_without_drop(self):
        healing = controller()
        healing.try_join(Conference.of([0, 1], 0))
        loop = EventLoop()
        healing.apply_fault(loop, (1, 0))
        assert healing.live_conferences == (0,)
        assert (1, 0) not in healing.route_of(0).points
        assert healing.degraded_conferences == {0}
        assert healing.stats.dropped_total == 0
        assert healing.stats.tap_move_events + healing.stats.reroutes == 1

    def test_unrelated_fault_is_ignored(self):
        healing = controller()
        route = healing.try_join(Conference.of([0, 1], 0))
        dead = next(p for p in fault_universe(healing.network.topology)
                    if p not in route.points)
        healing.apply_fault(EventLoop(), dead)
        assert healing.route_of(0) == route
        assert not healing.degraded_conferences

    def test_repair_restores_healthy_route(self):
        healing = controller()
        healthy = healing.try_join(Conference.of([0, 1], 0))
        loop = EventLoop()
        healing.apply_fault(loop, (1, 0))
        assert healing.route_of(0) != healthy
        healing.apply_repair(loop, (1, 0))
        assert healing.route_of(0) == healthy
        assert not healing.degraded_conferences
        assert not healing.current_faults

    def test_unroutable_fault_drops_the_call(self):
        healing = controller("indirect-binary-cube")  # unique paths: fatal
        lost = []
        healing.on_lost = lambda loop, conf, cause: lost.append((conf.conference_id, cause))
        healing.try_join(Conference.of([0, 1], 0))
        healing.apply_fault(EventLoop(), (1, 0))
        assert healing.live_conferences == ()
        assert healing.stats.drops["fault"] == 1
        assert healing.stats.lost_calls == 1
        assert lost == [(0, "fault")]

    def test_fault_idempotent_and_repair_of_healthy_noop(self):
        healing = controller()
        healing.try_join(Conference.of([0, 1], 0))
        loop = EventLoop()
        healing.apply_fault(loop, (1, 0))
        healing.apply_fault(loop, (1, 0))
        assert healing.stats.link_failures == 1
        healing.apply_repair(loop, (2, 0))
        assert healing.current_faults == {(1, 0)}


class TestDuplicateTransitions:
    # Regression suite: duplicate/overlapping transitions must be
    # *explicit* no-ops — no double accounting, no plan churn, no
    # recovery samples — whether or not protection is armed.

    def snapshot(self, healing):
        s = healing.stats
        return (
            s.link_failures, s.link_repairs, s.dropped_total, s.reroutes,
            s.tap_move_events, s.plan_hits, s.plan_misses, s.plan_stale,
            s.recovery_samples,
        )

    @pytest.mark.parametrize("protection", [0, 4])
    def test_duplicate_fail_changes_nothing(self, protection):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        healing = SelfHealingController(network, rng=0, protection=protection)
        route = healing.try_join(Conference.of([0, 1, 2], 0))
        loop = EventLoop()
        point = sorted(route.links)[0]
        healing.apply_fault(loop, point)
        before = self.snapshot(healing)
        routes = {cid: healing.route_of(cid) for cid in healing.live_conferences}
        plans = healing.plan_store.plans_of(0) if protection else None
        healing.apply_fault(loop, point)  # exact duplicate
        assert self.snapshot(healing) == before
        assert {cid: healing.route_of(cid) for cid in healing.live_conferences} == routes
        if protection:
            assert healing.plan_store.plans_of(0) == plans

    @pytest.mark.parametrize("protection", [0, 4])
    def test_repair_of_never_failed_point_changes_nothing(self, protection):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        healing = SelfHealingController(network, rng=0, protection=protection)
        healing.try_join(Conference.of([0, 1, 2], 0))
        loop = EventLoop()
        before = self.snapshot(healing)
        plans = healing.plan_store.plans_of(0) if protection else None
        healing.apply_repair(loop, (1, 5))  # never failed
        assert healing.stats.link_repairs == 0
        assert self.snapshot(healing) == before
        assert healing.current_faults == frozenset()
        if protection:
            assert healing.plan_store.plans_of(0) == plans

    def test_stale_plan_falls_back_reactively(self):
        # A plan whose base fault set no longer matches must never be
        # used: the controller records ``stale`` and takes the reactive
        # path, landing on the same outcome as an unprotected twin.
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        prot = SelfHealingController(network, rng=0, protection=64)
        bare = SelfHealingController(
            ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS), rng=0
        )
        for ctl in (prot, bare):
            ctl.try_join(Conference.of([0, 1, 2, 3], 0))
        loop = EventLoop()
        first = sorted(prot.route_of(0).links)[0]
        for ctl in (prot, bare):
            ctl.apply_fault(loop, first)
        assert prot.stats.plan_hits == 1
        # Overwrite the (correctly re-cut) plans with ones planned under
        # the pre-fault base — exactly what an overlapping fault the
        # planner never anticipated looks like to the lookup.
        route = prot.route_of(0)
        prot.plan_store.protect([route], frozenset())  # stale base: pretends no fault is live
        second = sorted(route.links)[0]
        for ctl in (prot, bare):
            ctl.apply_fault(loop, second)
        assert prot.stats.plan_stale == 1
        assert prot.live_conferences == bare.live_conferences
        for cid in prot.live_conferences:
            assert prot.route_of(cid) == bare.route_of(cid)


class TestRetries:
    def test_dropped_call_restored_after_repair(self):
        retry = RetryPolicy(max_retries=10, base_delay=1.0, backoff=1.0, jitter=0.0)
        healing = controller("indirect-binary-cube", retry=retry)
        restored = []
        healing.on_restore = lambda loop, route: restored.append(loop.now)
        healing.try_join(Conference.of([0, 1], 0))
        script = [
            FaultTransition(1.0, (1, 0), True),
            FaultTransition(5.5, (1, 0), False),
        ]
        injector = FaultInjector(healing.network.topology, script=script)
        healing.attach(injector)
        loop = EventLoop()
        injector.start(loop)
        loop.run(until=20.0)
        assert healing.live_conferences == (0,)
        assert healing.down_conferences == frozenset()
        assert healing.stats.dropped_total == 1
        assert healing.stats.restores == 1
        assert healing.stats.lost_calls == 0
        # Retries fire every 1.0 from the drop at t=1; first success
        # lands just after the repair at t=5.5.
        assert restored == [6.0]

    def test_retry_budget_exhausts_to_lost(self):
        retry = RetryPolicy(max_retries=2, base_delay=1.0, backoff=1.0, jitter=0.0)
        healing = controller("indirect-binary-cube", retry=retry)
        lost = []
        healing.on_lost = lambda loop, conf, cause: lost.append(cause)
        healing.try_join(Conference.of([0, 1], 0))
        injector = FaultInjector(
            healing.network.topology, script=[FaultTransition(1.0, (1, 0), True)]
        )
        healing.attach(injector)
        loop = EventLoop()
        injector.start(loop)
        loop.run(until=20.0)
        assert lost == ["retry-exhausted"]
        assert healing.stats.lost_calls == 1
        assert healing.stats.retries_exhausted == 1

    def test_submit_retries_blocked_arrival_until_ports_free(self):
        retry = RetryPolicy(max_retries=10, base_delay=1.0, backoff=1.0, jitter=0.0)
        healing = controller(retry=retry)
        healing.try_join(Conference.of([0, 1], 0))
        admitted, lost = [], []
        loop = EventLoop()
        loop.schedule(2.5, lambda lp: healing.leave(0, now=lp.now))
        healing.submit(
            loop,
            Conference.of([1, 2], 1),
            on_admitted=lambda lp, route: admitted.append(lp.now),
            on_lost=lambda lp, conf, cause: lost.append(cause),
        )
        # Ports clash right now: neither verdict yet, a retry is queued.
        assert admitted == [] and lost == []
        assert healing.live_conferences == (0,)
        assert healing.stats.retries_scheduled == 1
        loop.run(until=20.0)
        assert admitted == [3.0]
        assert healing.live_conferences == (1,)
        assert healing.stats.retries_succeeded == 1

    def test_submit_without_retry_loses_immediately(self):
        healing = controller(retry=None)
        healing.try_join(Conference.of([0, 1], 0))
        lost = []
        loop = EventLoop()
        healing.submit(
            loop,
            Conference.of([1, 2], 1),
            on_lost=lambda lp, conf, cause: lost.append(cause),
        )
        assert lost == ["ports"]
        assert healing.live_conferences == (0,)
        assert healing.stats.retries_scheduled == 0

    def test_submit_admits_immediately_when_clear(self):
        healing = controller()
        loop = EventLoop()
        routes = []
        healing.submit(
            loop, Conference.of([0, 1], 0), on_admitted=lambda lp, route: routes.append(route)
        )
        assert [route.conference.conference_id for route in routes] == [0]
        assert healing.route_of(0) == routes[0]
        assert healing.live_conferences == (0,)


def universe_points():
    net = ConferenceNetwork.build("extra-stage-cube", N_PORTS).topology
    return fault_universe(net)


class TestHealingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        toggles=st.lists(
            st.sampled_from(universe_points()), min_size=1, max_size=12
        )
    )
    def test_ledger_stays_consistent_with_live_routes(self, toggles):
        """The satellite property: after any fault/repair sequence, the
        inner admission ledger (link loads, ports in use) equals what
        recomputing it from the surviving live routes gives."""
        healing = controller()
        for conf in population():
            healing.try_join(conf)
        loop = EventLoop()
        for point in toggles:
            if point in healing.current_faults:
                healing.apply_repair(loop, point)
            else:
                healing.apply_fault(loop, point)
        expected = Counter()
        ports = set()
        for cid in healing.live_conferences:
            route = healing.route_of(cid)
            expected.update(route.links)
            ports.update(route.conference.members)
        for point in universe_points():
            assert healing.link_load(point) == expected[point]
        assert healing.admission.ports_in_use == frozenset(ports)

    @settings(max_examples=40, deadline=None)
    @given(
        toggles=st.lists(
            st.sampled_from(universe_points()), min_size=1, max_size=12
        )
    )
    def test_fully_repaired_equals_healthy(self, toggles):
        """The satellite property: once every fault is repaired, the
        surviving conferences sit on exactly the routes a never-faulted
        controller builds, and the ledgers agree link for link."""
        healing = controller()
        for conf in population():
            healing.try_join(conf)
        loop = EventLoop()
        for point in toggles:
            if point in healing.current_faults:
                healing.apply_repair(loop, point)
            else:
                healing.apply_fault(loop, point)
        for point in sorted(healing.current_faults):
            healing.apply_repair(loop, point)
        assert not healing.current_faults
        assert not healing.degraded_conferences
        fresh = controller()
        for conf in population():
            if conf.conference_id in healing.live_conferences:
                fresh.try_join(conf)
        for cid in healing.live_conferences:
            assert healing.route_of(cid) == fresh.route_of(cid)
        for point in universe_points():
            assert healing.link_load(point) == fresh.link_load(point)
