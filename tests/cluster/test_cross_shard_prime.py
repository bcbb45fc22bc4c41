"""The cross-shard prime: one kernel call per wiring group per cluster tick.

``ClusterService.tick`` reads every live shard's upcoming prime off a
peek of its queue, routes the shards that share wiring and policy in one
``_route_batch`` call (each shard's fault set as a per-conference
overlay) and parks each outcome in its shard's primed store.  A shard's
own ``prime_batch`` then keeps the parked hits and routes only misses.
Kernel calls are counted by wrapping ``repro.core.batch._kernel`` and
tagged by the prime that made them.
"""

import pytest

from repro.cluster.controller import ClusterService
from repro.core import batch as batch_mod
from repro.core.batch import route_batch
from repro.core.conference import Conference
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import route_conference
from repro.serve.backpressure import AdmissionQueue
from repro.serve.protocol import Priority, RequestKind, SessionRequest
from repro.sim.faults import FaultTransition

pytestmark = pytest.mark.tier1

N_PORTS = 16


def _cluster(factory=None, shards=4, ports=N_PORTS, **kw):
    def same(_shard_id):
        return ConferenceNetwork.build("extra-stage-cube", ports, dilation=ports)

    return ClusterService(factory or same, shards=shards, rng=0, **kw)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Tag each kernel call ``cluster``, ``shard`` (a shard's own
    ``prime_batch``) or ``other``."""
    calls: list[str] = []
    where: list[str] = []
    kernel = batch_mod._kernel

    def counted(*args):
        calls.append(where[-1] if where else "other")
        return kernel(*args)

    def tagged(method, tag):
        def wrapper(self, *args, **kwargs):
            where.append(tag)
            try:
                return method(self, *args, **kwargs)
            finally:
                where.pop()

        return wrapper

    monkeypatch.setattr(batch_mod, "_kernel", counted)
    monkeypatch.setattr(
        SelfHealingController, "prime_batch",
        tagged(SelfHealingController.prime_batch, "shard"),
    )
    monkeypatch.setattr(
        ClusterService, "_prime_shards", tagged(ClusterService._prime_shards, "cluster")
    )
    return calls


@pytest.fixture
def parked(monkeypatch):
    """Every ``park`` call as ``(controller, entries)``, in order."""
    log: list = []
    park = SelfHealingController.park

    def spy(self, entries):
        log.append((self, dict(entries)))
        return park(self, entries)

    monkeypatch.setattr(SelfHealingController, "park", spy)
    return log


def _shard_of(cluster, csid):
    return cluster.directory.require(csid).shard_id


def _open_spread(cluster, groups):
    """Submit opens; return the shard ids they landed on."""
    return {_shard_of(cluster, cluster.submit_open(m)) for m in groups}


OPENS = [(0, 1), (2, 3, 9), (4, 5), (6, 7, 12), (8, 10), (11, 13), (14, 15)]


def _assert_exact(entries, healing):
    """Every parked outcome is ``route_batch`` on the shard's own network."""
    network = healing.network
    for (conf, faults), outcome in entries.items():
        (want,) = route_batch(network.topology, [conf], network.policy, faults)
        assert outcome.conference == conf
        if want.ok:
            assert outcome.ok and repr(outcome.route) == repr(want.route)
        else:
            assert type(outcome.error) is type(want.error)
            assert outcome.error.args == want.error.args


class TestOneCallPerTick:
    def test_opens_and_first_resizes_route_in_one_cluster_call(self, kernel_calls):
        cluster = _cluster(ports=32)
        assert len(_open_spread(cluster, OPENS)) >= 2
        cluster.tick()
        assert kernel_calls == ["cluster"]
        # First resizes on every shard: a leave for each session of three
        # members, a join of a fresh port (16 and up) for each pair.
        resized = set()
        for csid, members in enumerate(OPENS):
            resized.add(_shard_of(cluster, csid))
            if len(members) > 2:
                cluster.submit_leave(csid, members[:1])
            else:
                cluster.submit_join(csid, (16 + csid,))
        assert len(resized) >= 2
        kernel_calls.clear()
        cluster.tick()
        assert kernel_calls == ["cluster"]
        for csid, members in enumerate(OPENS):
            want = members[1:] if len(members) > 2 else (*members, 16 + csid)
            assert cluster.directory.require(csid).members == want

    def test_a_lone_busy_shard_primes_itself(self, kernel_calls):
        cluster = _cluster()
        csid = cluster.submit_open((0, 5, 9))
        cluster.tick()
        assert kernel_calls == ["shard"]
        assert cluster.directory.require(csid).shard_id is not None

    def test_an_idle_tick_makes_no_call_and_parks_nothing(self, kernel_calls, parked):
        cluster = _cluster()
        _open_spread(cluster, OPENS)
        cluster.tick()
        assert kernel_calls == ["cluster"] and parked
        # Nothing queued: no cross-shard call, and no store is touched.
        kernel_calls.clear()
        parked.clear()
        cluster.tick()
        assert kernel_calls == [] and parked == []

    def test_a_request_queued_after_the_prime_is_a_miss(
        self, kernel_calls, parked, monkeypatch
    ):
        # One request per shard batch: a high-priority open queued after
        # the cross-shard prime pushes its shard's peeked open out of the
        # batch, so that shard asks for a route nobody parked.
        cluster = _cluster(ports=32, max_batch=1)
        assert len(_open_spread(cluster, OPENS)) == len(cluster.shards)
        late: list[int] = []
        prime = ClusterService._prime_shards

        def prime_then_open(self):
            prime(self)
            late.append(self.submit_open((16, 21, 27), priority=Priority.INTERACTIVE))

        monkeypatch.setattr(ClusterService, "_prime_shards", prime_then_open)
        cluster.tick()
        assert kernel_calls == ["cluster", "shard"]  # the late open, routed by its shard
        (csid,) = late
        entry = cluster.directory.require(csid)
        healing = cluster.shards[entry.shard_id].service.healing
        (pushed_out,) = [conf for h, entries in parked if h is healing for conf, _ in entries]
        with pytest.raises(KeyError):  # still queued behind the late open
            healing.route_of(pushed_out.conference_id)
        # The parked route nobody asked for was dropped with the store.
        assert all(not h._primed for h, _ in parked)
        session = cluster.shards[entry.shard_id].service.sessions.require(entry.shard_session_id)
        conf = Conference.of(entry.members, conference_id=session.conference_id)
        topology = healing.network.topology
        assert healing.route_of(conf.conference_id) == route_conference(topology, conf)
        # The pushed-out open is admitted on a later tick, on the same route.
        monkeypatch.setattr(ClusterService, "_prime_shards", prime)
        for _ in range(len(OPENS)):
            cluster.tick()
        assert healing.route_of(pushed_out.conference_id) == route_conference(
            topology, pushed_out
        )


class TestParkedOutcomesAreExact:
    @pytest.mark.parametrize("topology", ("extra-stage-cube", "indirect-binary-cube"))
    def test_parked_equals_route_batch_under_each_shards_faults(self, topology, parked):
        cluster = _cluster(
            lambda _sid: ConferenceNetwork.build(topology, N_PORTS, dilation=N_PORTS)
        )
        ids = sorted(cluster.shards)
        # Different fault sets per shard: each conference carries its own
        # shard's faults as its overlay.
        scripts = {
            ids[0]: [FaultTransition(0.5, (1, 0), True), FaultTransition(0.5, (2, 4), True)],
            ids[1]: [FaultTransition(0.5, (1, 0), True)],
            ids[2]: [FaultTransition(0.5, (3, 7), True)],
        }
        for shard_id, script in scripts.items():
            cluster.attach_faults(shard_id, script)
        cluster.tick()  # the faults fire
        assert cluster.shards[ids[0]].service.healing.current_faults == {(1, 0), (2, 4)}
        parked.clear()
        assert len(_open_spread(cluster, OPENS)) >= 2
        cluster.tick()
        assert parked
        for healing, entries in parked:
            _assert_exact(entries, healing)
            faults = {fs for _, fs in entries}
            if healing.current_faults:
                # A faulted shard also gets its fault-free reference routes.
                assert faults == {healing.current_faults, frozenset()}
            else:
                assert faults == {frozenset()}

    def test_different_topologies_never_merge(self, kernel_calls, parked, monkeypatch):
        names = {"shard-0": "omega", "shard-1": "indirect-binary-cube",
                 "shard-2": "omega", "shard-3": "indirect-binary-cube"}
        cluster = _cluster(lambda sid: ConferenceNetwork.build(names[sid], 32, dilation=32))
        calls = []
        route = batch_mod._route_batch

        def spy(net, confs, *args, **kwargs):
            calls.append((net, len(confs)))
            return route(net, confs, *args, **kwargs)

        monkeypatch.setattr("repro.cluster.controller._route_batch", spy)
        pairs = [(2 * i, 2 * i + 1) for i in range(16)]
        assert _open_spread(cluster, pairs) == set(names)
        cluster.tick()
        assert kernel_calls == ["cluster", "cluster"]  # one per topology
        kind = {
            cluster.shards[sid].service.healing: names[sid] for sid in names
        }
        # Parks follow their call: each call's rows are exactly the
        # entries of the shards of one topology.
        called = []
        for net, rows in calls:
            (name,) = {n for sid, n in names.items()
                       if cluster.shards[sid].service.healing.network.topology is net}
            assert rows == sum(len(e) for h, e in parked if kind[h] == name)
            called.append(name)
        assert sorted(called) == ["indirect-binary-cube", "omega"]
        for healing, entries in parked:
            _assert_exact(entries, healing)


class TestFaultAfterParking:
    def test_a_fault_inside_the_shard_tick_reroutes(self, kernel_calls, parked):
        cluster = _cluster()
        others = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        target_members = (10, 12, 14)
        csid = cluster.submit_open(target_members)
        shard_id = _shard_of(cluster, csid)
        busy = {shard_id} | _open_spread(cluster, others)
        assert len(busy) >= 2
        service = cluster.shards[shard_id].service
        topology = service.healing.network.topology
        session = service.sessions.require(cluster.directory.require(csid).shard_session_id)
        conf = Conference.of(target_members, conference_id=session.conference_id)
        healthy = route_conference(topology, conf)
        point = min(healthy.links)
        # Fires inside this shard's loop.run: after the cross-shard prime
        # parked the fault-free route, before the shard's own prime.
        cluster.attach_faults(shard_id, [FaultTransition(0.5, point, True)])
        cluster.tick()
        stale = {c for h, entries in parked for (c, fs) in entries if fs == frozenset()}
        assert conf in stale  # the fault-free route was parked
        assert service.healing.current_faults == {point}
        assert "shard" in kernel_calls  # the miss is routed by the shard
        route = service.healing.route_of(conf.conference_id)
        assert point not in route.links
        assert route == route_conference(topology, conf, faults=frozenset({point}))


class TestPeek:
    @staticmethod
    def _request(rid, kind, priority):
        return SessionRequest(
            kind=kind, request_id=rid,
            members=(rid % N_PORTS, (rid + 1) % N_PORTS),
            session_id=None if kind == RequestKind.OPEN else rid,
            priority=priority,
        )

    @pytest.mark.parametrize("limit", (0, 1, 3, 5, 8, 64))
    def test_peek_then_take_is_the_same_list(self, limit):
        queue = AdmissionQueue(capacity=64, policy="priority")
        kinds = [RequestKind.OPEN, RequestKind.CLOSE, RequestKind.JOIN, RequestKind.LEAVE]
        priorities = list(Priority)
        for rid in range(12):
            queue.offer(self._request(rid, kinds[rid % 4], priorities[rid % len(priorities)]))
        before = len(queue)
        peeked = queue.peek(limit)
        assert len(queue) == before
        assert queue.peek(limit) == peeked
        taken = queue.take(limit)
        assert [r.request_id for r in peeked] == [r.request_id for r in taken]
        assert peeked == taken
