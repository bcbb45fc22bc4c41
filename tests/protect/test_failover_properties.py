"""Property tests for the protection subsystem's two core guarantees.

1. **Bit-identity**: for any conference and any base fault set, a plan
   the store cut for point ``p`` answers exactly what the reactive
   router would compute under ``base ∪ {p}`` — same route cell for cell,
   or the same unroutable verdict.
2. **No stale entries**: however a controller population churns (joins,
   leaves, faults, repairs), the plan store never holds a plan for a
   conference that is not live, and every stored plan matches its live
   conference's current membership.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conference import Conference
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import RoutingPolicy, UnroutableError, route_conference
from repro.protect.plans import BackupPlanStore
from repro.sim.engine import EventLoop
from repro.sim.faults import fault_universe
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

N_PORTS = 16
POLICY = RoutingPolicy()
#: extra-stage-cube has relay slack, so most plans route; plain
#: indirect-binary-cube has none, so its plans are mostly negative.
NETS = {name: build(name, N_PORTS) for name in ("extra-stage-cube", "indirect-binary-cube")}
UNIVERSES = {name: fault_universe(net) for name, net in NETS.items()}
UNIVERSE = UNIVERSES["extra-stage-cube"]


def router(net, conference, faults=frozenset()):
    return route_conference(net, conference, POLICY, faults=faults)


members_strategy = st.sets(
    st.integers(min_value=0, max_value=N_PORTS - 1), min_size=2, max_size=6
).map(lambda s: tuple(sorted(s)))


def base_faults(data, topology):
    universe = st.sampled_from(UNIVERSES[topology])
    return data.draw(st.sets(universe, min_size=0, max_size=3).map(frozenset))


@pytest.mark.parametrize("topology", sorted(NETS, reverse=True))
class TestBitIdentity:
    """The kernel's fault overlay (the store's planner) against
    ``route_conference`` (the reactive router), plan by plan."""

    @settings(max_examples=60, deadline=None)
    @given(members=members_strategy, data=st.data())
    def test_stored_plan_equals_reactive_reroute(self, topology, members, data):
        net = NETS[topology]
        base = base_faults(data, topology)
        conf = Conference.of(members, 1)
        try:
            live = router(net, conf, base)
        except UnroutableError:
            return  # never admitted — nothing to protect
        store = BackupPlanStore(net, policy=POLICY, protection=len(live.links))
        store.protect([live], base)
        for point in sorted(live.links - base):
            faults = base | {point}
            status, payload = store.lookup(conf, point, faults)
            assert status == "hit"
            try:
                expected = router(net, conf, faults)
            except UnroutableError:
                assert isinstance(payload, UnroutableError), (
                    f"plan for {point} routed but reactive says unroutable"
                )
            else:
                assert payload == expected, f"plan for {point} diverged"

    @settings(max_examples=40, deadline=None)
    @given(members=members_strategy, data=st.data())
    def test_any_unanticipated_fault_is_never_a_hit(self, topology, members, data):
        net = NETS[topology]
        base = base_faults(data, topology)
        extra = data.draw(st.sampled_from(UNIVERSES[topology]))
        conf = Conference.of(members, 1)
        try:
            live = router(net, conf, base)
        except UnroutableError:
            return
        store = BackupPlanStore(net, policy=POLICY, protection=len(live.links))
        store.protect([live], base)
        for point in sorted(live.links - base):
            faults = base | {point, extra}
            if faults == base | {point}:
                continue  # extra adds nothing: the plan legitimately covers
            status, payload = store.lookup(conf, point, faults)
            assert status == "stale" and payload is None


class TestNoStaleEntries:
    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.sampled_from(["join", "leave", "fault", "repair"]),
                      st.integers(min_value=0, max_value=7)),
            min_size=1,
            max_size=24,
        ),
        protection=st.integers(min_value=1, max_value=3),
    )
    def test_store_tracks_the_live_population_exactly(self, steps, protection):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        healing = SelfHealingController(network, rng=0, protection=protection)
        store = healing.plan_store
        loop = EventLoop()
        pool = [(0, 1), (2, 3), (4, 5, 6), (7, 8), (9, 10, 11), (12, 13), (14, 15), (1, 2)]
        toggled: set = set()
        for op, k in steps:
            if op == "join":
                cid = k
                if cid not in healing.live_conferences:
                    try:
                        healing.try_join(Conference.of(pool[k], cid))
                    except Exception:
                        pass  # port clash or faulted-out: nothing admitted
            elif op == "leave":
                if k in healing.live_conferences:
                    healing.leave(k)
            elif op == "fault":
                point = UNIVERSE[k * 5 % len(UNIVERSE)]
                if point not in toggled:
                    healing.apply_fault(loop, point)
                    toggled.add(point)
            else:
                point = UNIVERSE[k * 5 % len(UNIVERSE)]
                if point in toggled:
                    healing.apply_repair(loop, point)
                    toggled.discard(point)
            # The invariant, after every step: plans exist only for live
            # conferences, and always for the *current* membership.
            live = healing.live_conferences
            planned = {cid for cid in range(16) if store.plans_of(cid)}
            assert planned <= set(live), f"stale plans for {planned - set(live)}"
            for cid in planned:
                members = healing.route_of(cid).conference.members
                for plan in store.plans_of(cid).values():
                    assert plan.members == members
                    assert plan.base_faults == healing.current_faults

    def test_leave_then_rejoin_uses_fresh_plans(self):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
        healing = SelfHealingController(network, rng=0, protection=64)
        healing.try_join(Conference.of([0, 1], 1))
        first = set(healing.plan_store.plans_of(1))
        healing.leave(1)
        assert healing.plan_store.plans_of(1) == {}
        healing.try_join(Conference.of([0, 1, 2], 1))
        plans = healing.plan_store.plans_of(1)
        assert plans and all(p.members == (0, 1, 2) for p in plans.values())
        assert set(plans) == healing.route_of(1).links
        assert first is not None  # the old keys are irrelevant, only freshness
