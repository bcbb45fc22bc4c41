"""Stateful model check of :class:`~repro.FabricService` (hypothesis).

Random interleavings of open / join / leave / close / tick against one
service with every bookkeeping feature on at once: retry backoff,
protection plans, a small shedding queue, small batches and a drawn
fault script firing underneath.  Only the public surface is touched.
After every step the service must keep its accounting straight:

* no request's completion callback fires twice;
* no session is lost;
* the session-state tally sums to the table size;
* the data-plane queue never exceeds its capacity;
* the healing ledger's link loads equal the occupancy recomputed from
  the live routes;
* every stored backup plan belongs to a live conference, carries that
  conference's current members and protects one of its route's links;
* every plan cut under the current fault set holds exactly what
  ``route_conference`` returns with the protected point dead too.

At teardown every session is closed, ``drain()`` must settle, and
every submitted request's callback must have fired exactly once.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    ConferenceNetwork,
    FabricService,
    FaultTransition,
    RetryPolicy,
    SessionState,
    ShedPolicy,
)
from repro.core.batch import stage_occupancy
from repro.core.routing import UnroutableError, route_conference

N_PORTS = 16
N_STAGES = 4
QUEUE_CAPACITY = 3

ports = st.integers(0, N_PORTS - 1)


@st.composite
def fault_scripts(draw):
    """A valid script: each drawn link fails once and is repaired later."""
    points = draw(
        st.lists(
            st.tuples(st.integers(1, N_STAGES), ports), max_size=4, unique=True
        )
    )
    script = []
    for point in points:
        down = draw(st.integers(0, 20))
        up = down + draw(st.integers(1, 10))
        script.append(FaultTransition(float(down), point, True))
        script.append(FaultTransition(float(up), point, False))
    return sorted(script, key=lambda tr: (tr.time, tr.point, not tr.failed))


class FabricServiceMachine(RuleBasedStateMachine):
    """The service's request and ledger bookkeeping under mixed load."""

    def __init__(self):
        super().__init__()
        self.fired: Counter = Counter()  # request token -> callback count
        self.submitted = 0
        self.session_ids: list[int] = []
        # Clients keep their ports disjoint, as the bench's port pool
        # does: a port is taken at submit and returned by the verdict.
        self.free = set(range(N_PORTS))

    @initialize(script=fault_scripts(), policy=st.sampled_from(list(ShedPolicy)))
    def build(self, script, policy):
        network = ConferenceNetwork.build("indirect-binary-cube", N_PORTS, dilation=2)
        self.service = FabricService(
            network,
            retry=RetryPolicy(max_retries=2, base_delay=1.0),
            rng=0,
            protection=1,
            queue_capacity=QUEUE_CAPACITY,
            shed_policy=policy,
            max_batch=2,
        )
        self.service.attach_faults(script)

    def _callback(self, release):
        """Count the verdict, then hand ``release`` the response."""
        token = self.submitted
        self.submitted += 1

        def on_complete(response):
            self.fired[token] += 1
            release(response)

        return on_complete

    def _members(self, sid):
        return self.service.sessions.require(sid).members

    @precondition(lambda self: len(self.free) >= 2)
    @rule(data=st.data())
    def open(self, data):
        members = data.draw(
            st.lists(st.sampled_from(sorted(self.free)), min_size=2, max_size=5, unique=True)
        )
        self.free.difference_update(members)

        def release(response):
            # A cancelled open's ports went back with the close.
            if not response.ok and response.reason != "cancelled":
                self.free.update(self._members(response.session_id))

        sid = self.service.submit_open(sorted(members), on_complete=self._callback(release))
        self.session_ids.append(sid)

    @precondition(lambda self: self.session_ids and self.free)
    @rule(data=st.data())
    def join(self, data):
        sid = data.draw(st.sampled_from(self.session_ids))
        port = data.draw(st.sampled_from(sorted(self.free)))
        self.free.discard(port)

        def release(response):
            if not response.ok:
                self.free.add(port)

        self.service.submit_join(sid, (port,), on_complete=self._callback(release))

    @precondition(lambda self: self.session_ids)
    @rule(data=st.data())
    def leave(self, data):
        sid = data.draw(st.sampled_from(self.session_ids))
        port = data.draw(st.sampled_from(self._members(sid)))

        def release(response):
            if response.ok:
                self.free.add(port)

        self.service.submit_leave(sid, (port,), on_complete=self._callback(release))

    @precondition(lambda self: self.session_ids)
    @rule(data=st.data())
    def close(self, data):
        sid = data.draw(st.sampled_from(self.session_ids))

        def release(response):
            if response.ok:
                self.free.update(self._members(sid))

        self.service.submit_close(sid, on_complete=self._callback(release))

    @rule(ticks=st.integers(1, 4))
    def tick(self, ticks):
        for _ in range(ticks):
            self.service.tick()

    @invariant()
    def no_callback_fires_twice(self):
        assert all(count == 1 for count in self.fired.values())

    @invariant()
    def no_session_lost(self):
        assert self.service.stats.lost_sessions == 0
        assert self.service.sessions.counts()[SessionState.LOST.value] == 0

    @invariant()
    def session_counts_sum_to_table(self):
        counts = self.service.sessions.counts()
        assert sum(counts.values()) == len(self.service.sessions)

    @invariant()
    def queue_stays_bounded(self):
        assert self.service.queue.depth <= QUEUE_CAPACITY

    @invariant()
    def ledger_matches_live_routes(self):
        healing = self.service.healing
        routes = [healing.route_of(cid) for cid in healing.live_conferences]
        occupancy = stage_occupancy(routes, N_STAGES, N_PORTS)
        for level in range(1, N_STAGES + 1):
            for row in range(N_PORTS):
                assert healing.link_load((level, row)) == occupancy[level, row]

    @invariant()
    def plans_follow_live_routes(self):
        healing = self.service.healing
        store = healing.plan_store
        live = healing.live_conferences
        assert len(store) == sum(len(store.plans_of(cid)) for cid in live)
        for cid in live:
            route = healing.route_of(cid)
            for point, plan in store.plans_of(cid).items():
                assert plan.point == point
                assert plan.members == route.conference.members
                assert point in route.links

    @invariant()
    def current_plans_equal_the_reactive_route(self):
        healing = self.service.healing
        network = healing.network
        faults = healing.current_faults
        for cid in healing.live_conferences:
            conference = healing.route_of(cid).conference
            for point, plan in healing.plan_store.plans_of(cid).items():
                if plan.base_faults != faults:
                    continue
                try:
                    expected = route_conference(
                        network.topology, conference, network.policy, faults | {point}
                    )
                except UnroutableError as exc:
                    assert plan.unroutable
                    assert plan.entry.args == exc.args
                else:
                    assert not plan.unroutable
                    assert repr(plan.entry) == repr(expected)

    def teardown(self):
        # Clients hang up first: a restore waits for capacity as long as
        # it takes, so drain settles only once the sessions holding that
        # capacity have closed.
        for sid in self.session_ids:
            self.service.submit_close(sid, on_complete=self._callback(lambda response: None))
        self.service.drain()
        assert not self.service.healing.down_conferences
        assert self.fired == Counter(range(self.submitted))


TestFabricServiceMachine = FabricServiceMachine.TestCase
TestFabricServiceMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
