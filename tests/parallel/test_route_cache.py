"""Route cache correctness: equivalence with fresh routing and fault safety.

The cache memoizes ``route_conference`` keyed on ``(members, fault
set)``.  Two properties carry the whole design: a cached route is
indistinguishable from a freshly computed one, and an entry computed on
the healthy network is never served once a link has died (the satellite
fix this suite guards: stale-route reuse under live faults).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conference import Conference
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import RoutingPolicy, UnroutableError, route_conference
from repro.parallel.cache import CacheStats, RouteCache, shared_network, shared_route_cache
from repro.sim.engine import EventLoop
from repro.sim.faults import FaultInjector, FaultTransition, fault_universe
from repro.topology.builders import build

pytestmark = [pytest.mark.tier1, pytest.mark.parallel]

N_PORTS = 16
NET = build("extra-stage-cube", N_PORTS)
POLICY = RoutingPolicy()
FAULT_POINTS = fault_universe(NET)

members_sets = st.sets(st.integers(min_value=0, max_value=N_PORTS - 1), min_size=2, max_size=6)
fault_sets = st.sets(st.sampled_from(FAULT_POINTS), max_size=3)

# One shared cache across examples on purpose: later examples hit
# entries written by earlier ones, so the equality check below covers
# the rebuild-from-(levels, taps) path, not just fresh misses.
SHARED = RouteCache(NET, POLICY)


def _outcome(fn):
    try:
        return fn()
    except UnroutableError:
        return "unroutable"


class TestCachedEqualsFresh:
    @given(members=members_sets, faults=fault_sets)
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_conferences_and_faults(self, members, faults):
        conference = Conference.of(sorted(members))
        fresh = _outcome(
            lambda: route_conference(NET, conference, POLICY, faults=frozenset(faults) or None)
        )
        cached = _outcome(lambda: SHARED.route(conference, faults=frozenset(faults)))
        again = _outcome(lambda: SHARED.route(conference, faults=frozenset(faults)))
        assert cached == fresh
        assert again == fresh

    @given(members=members_sets)
    @settings(max_examples=40, deadline=None)
    def test_conference_id_is_a_label(self, members):
        # Entries are keyed by membership; the id on the way out is the
        # requester's, not the warmer's.
        cache = shared_route_cache("extra-stage-cube", N_PORTS)
        warm = cache.route(Conference.of(sorted(members), 7))
        reuse = cache.route(Conference.of(sorted(members), 99))
        assert reuse.conference.conference_id == 99
        assert (reuse.levels, reuse.taps) == (warm.levels, warm.taps)


class TestFaultSafety:
    """A cache populated before a fault must not serve stale routes."""

    def test_pre_fault_entry_bypassed_after_link_death(self):
        # Unique-path cube: killing a point on the only route makes the
        # conference unroutable, so serving the warm healthy entry would
        # be the stale-reuse bug this test pins down.
        net = build("indirect-binary-cube", N_PORTS)
        cache = RouteCache(net)
        conference = Conference.of([0, 1])
        healthy = cache.route(conference)
        dead = next(p for p in healthy.points if p in fault_universe(net))

        injector = FaultInjector(net, script=[FaultTransition(1.0, dead, True)])
        cache.attach(injector)
        loop = EventLoop()
        injector.start(loop)
        loop.run()

        assert cache.current_faults == frozenset({dead})
        assert len(cache) == 1  # the healthy entry is still resident...
        with pytest.raises(UnroutableError):
            cache.route(conference)  # ...but unreachable under the fault

    def test_fault_forces_detour_and_repair_restores_warm_entry(self):
        net = build("extra-stage-cube", N_PORTS)
        cache = RouteCache(net)
        conference = Conference.of([0, 1])
        healthy = cache.route(conference)
        dead = next(p for p in healthy.points if p in fault_universe(net))

        script = [FaultTransition(1.0, dead, True), FaultTransition(5.0, dead, False)]
        injector = FaultInjector(net, script=script)
        cache.attach(injector)
        loop = EventLoop()
        injector.start(loop)
        loop.run(until=2.0)

        detour = cache.route(conference)
        assert dead not in detour.points
        assert detour != healthy
        assert cache.stats.misses == 2  # healthy entry was not served

        loop.run()  # plays the repair
        assert cache.current_faults == frozenset()
        hits_before = cache.stats.hits
        assert cache.route(conference) == healthy
        assert cache.stats.hits == hits_before + 1

    def test_explicit_fault_argument_overrides_tracked_context(self):
        cache = RouteCache(NET)
        conference = Conference.of([2, 3])
        baseline = cache.route(conference)
        dead = next(p for p in baseline.points if p in FAULT_POINTS)
        detour = cache.route(conference, faults=frozenset({dead}))
        assert dead not in detour.points
        assert cache.route(conference) == baseline


class TestHealingWithCache:
    """A cache beside the healing controller serves its exact routes."""

    def test_identical_behavior_and_warm_hits(self):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        healing = SelfHealingController(network, rng=0)
        cache = RouteCache(network.topology, policy=network.policy)
        loop = EventLoop()
        for i, members in enumerate([(0, 1), (2, 3), (4, 5, 6, 7), (8, 15)]):
            healing.try_join(Conference.of(members, i))

        def check():
            for _ in range(2):  # the second pass must be all warm hits
                for cid in healing.live_conferences:
                    live = healing.route_of(cid)
                    assert cache.route(live.conference, faults=healing.current_faults) == live

        for point in ((1, 0), (2, 4), (1, 0)):
            healing.apply_fault(loop, point)
            check()
            healing.apply_repair(loop, point)
            check()
        assert cache.stats.hits >= cache.stats.misses > 0


class TestLRUMechanics:
    def test_eviction_and_stats(self):
        cache = RouteCache(NET, maxsize=2)
        a, b, c = Conference.of([0, 1]), Conference.of([2, 3]), Conference.of([4, 5])
        cache.route(a)
        cache.route(b)
        cache.route(a)  # refresh a: b is now least recent
        cache.route(c)  # evicts b
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.route(b)
        assert cache.stats.misses == 4
        assert cache.stats.hits == 1
        assert 0.0 < cache.stats.hit_rate < 1.0

    def test_negative_caching(self):
        net = build("indirect-binary-cube", N_PORTS)
        cache = RouteCache(net)
        conference = Conference.of([0, 1])
        dead = frozenset({next(iter(cache.route(conference).points & set(fault_universe(net))))})
        for _ in range(3):
            with pytest.raises(UnroutableError):
                cache.route(conference, faults=dead)
        assert cache.stats.unroutable == 1  # computed once, replayed twice

    def test_clear_and_validation(self):
        cache = RouteCache(NET)
        cache.route(Conference.of([0, 1]))
        cache.clear()
        assert len(cache) == 0
        with pytest.raises(ValueError):
            RouteCache(NET, maxsize=0)

    def test_shared_registry_is_per_key(self):
        assert shared_network("omega", 32) is shared_network("omega", 32)
        assert shared_route_cache("omega", 32) is shared_route_cache("omega", 32)
        assert shared_route_cache("omega", 32) is not shared_route_cache("omega", 16)


class TestCacheStats:
    """Edge cases of the hit/miss accounting and its worker-side merge."""

    def test_zero_request_hit_rate_is_zero(self):
        stats = CacheStats()
        assert stats.requests == 0
        assert stats.hit_rate == 0.0  # no division-by-zero

    def test_fresh_cache_reports_empty_stats(self):
        cache = RouteCache(NET)
        assert cache.stats == CacheStats()
        assert cache.stats.hit_rate == 0.0

    def test_post_invalidation_accounting(self):
        # A fault-context change moves the key namespace: the warm entry
        # stays resident but the next lookup is an honest miss, and the
        # derived rates must follow the raw counts through it.
        cache = RouteCache(build("extra-stage-cube", N_PORTS))
        conference = Conference.of([0, 1])
        cache.route(conference)
        cache.route(conference)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        cache.set_faults(frozenset({FAULT_POINTS[0]}))
        cache.route(conference)
        assert (cache.stats.hits, cache.stats.misses) == (1, 2)
        assert cache.stats.requests == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_merge_is_fieldwise_addition(self):
        a = CacheStats(hits=3, misses=1, evictions=2, unroutable=1)
        b = CacheStats(hits=1, misses=3, evictions=0, unroutable=0)
        total = a.merge(b)
        assert total == CacheStats(hits=4, misses=4, evictions=2, unroutable=1)
        assert total is not a and total is not b  # inputs untouched
        assert a == CacheStats(hits=3, misses=1, evictions=2, unroutable=1)
        assert total.hit_rate == pytest.approx(0.5)  # request-weighted

    def test_merged_folds_many_workers(self):
        per_worker = [
            CacheStats(hits=5, misses=5),
            CacheStats(hits=0, misses=10),
            CacheStats(),  # an idle worker contributes nothing
        ]
        total = CacheStats.merged(per_worker)
        assert total.requests == 20
        assert total.hit_rate == pytest.approx(0.25)
        assert CacheStats.merged([]) == CacheStats()

    def test_as_dict_includes_derived_fields(self):
        stats = CacheStats(hits=1, misses=3)
        assert stats.as_dict() == {
            "hits": 1,
            "misses": 3,
            "evictions": 0,
            "unroutable": 0,
            "requests": 4,
            "hit_rate": 0.25,
        }

    def test_merged_live_caches(self):
        # The sharded-sweep idiom: each worker's cache reports its own
        # stats, and the reducer folds them into one fabric-wide view.
        caches = [RouteCache(NET), RouteCache(NET)]
        for cache in caches:
            cache.route(Conference.of([0, 1]))
            cache.route(Conference.of([0, 1]))
        total = CacheStats.merged(cache.stats for cache in caches)
        assert (total.hits, total.misses) == (2, 2)
        assert total.hit_rate == pytest.approx(0.5)


class TestBatchPriming:
    def test_primed_equals_fresh_and_counts_inserts(self):
        cache = RouteCache(NET)
        batch = [Conference.of([0, 1]), Conference.of([2, 3, 4]), [0, 1]]
        assert cache.prime(batch) == 2  # third entry dedupes onto the first
        assert len(cache) == 2
        for conference in (Conference.of([0, 1]), Conference.of([2, 3, 4])):
            assert _outcome(lambda: cache.route(conference)) == _outcome(
                lambda: route_conference(NET, conference, POLICY)
            )
        # Primed entries were found warm: no misses, no recomputation.
        assert cache.stats.misses == 0
        assert cache.stats.hits == 2

    def test_prime_skips_present_entries(self):
        cache = RouteCache(NET)
        cache.route(Conference.of([0, 1]))
        assert cache.prime([Conference.of([0, 1])]) == 0

    def test_prime_stores_negative_entries(self):
        net = build("indirect-binary-cube", N_PORTS)
        cache = RouteCache(net)
        conference = Conference.of([0, 1])
        dead = frozenset(
            {next(iter(cache.route(conference).points & set(fault_universe(net))))}
        )
        assert cache.prime([conference], faults=dead) == 1
        with pytest.raises(UnroutableError):
            cache.route(conference, faults=dead)
        assert cache.stats.unroutable == 0  # primed, never computed on lookup

    def test_prime_never_caches_out_of_range_errors(self):
        cache = RouteCache(NET)
        assert cache.prime([Conference.of([0, 99])]) == 0
        with pytest.raises(ValueError):
            cache.route(Conference.of([0, 99]))

    def test_primed_route_matches_lookup_route(self):
        conference = Conference.of([1, 2, 6])
        primed, lazy = RouteCache(NET), RouteCache(NET)
        primed.prime([conference])
        # A route resolved by the columnar priming pass is byte-identical
        # to the one a cold per-object lookup computes.
        assert repr(primed.route(conference)) == repr(lazy.route(conference))
        assert primed.stats.misses == 0
