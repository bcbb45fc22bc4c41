"""Tests for time-slot scheduling (the TDM alternative to dilation)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scheduling import conflict_graph, schedule_slots
from repro.core.conflict import analyze_conflicts
from repro.analysis.worstcase import cube_adversarial_set
from repro.core.conference import Conference
from repro.core.conflict import link_loads
from repro.core.routing import route_conference
from repro.topology.builders import build
from repro.workloads.generators import uniform_partition


def routes_for(net, cs):
    return [route_conference(net, c) for c in cs]


class TestConflictGraph:
    def test_edges_are_link_sharers(self):
        net = build("indirect-binary-cube", 8)
        routes = routes_for(net, [Conference.of(m, i) for i, m in enumerate([(0, 3), (1, 2), (4, 5)])])
        g = conflict_graph(routes)
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 2)
        assert g.edges[0, 1]["link"] in routes[0].links & routes[1].links

    def test_all_nodes_present(self):
        net = build("omega", 8)
        routes = routes_for(net, [Conference.of(m, i) for i, m in enumerate([(0,), (1,)])])
        g = conflict_graph(routes)
        assert set(g.nodes) == {0, 1}


class TestScheduleSlots:
    def test_empty(self):
        res = schedule_slots([])
        assert res.n_slots == 0 and res.slots == {}
        assert res.clique_bound == 0

    def test_conflict_free_set_needs_one_slot(self):
        net = build("indirect-binary-cube", 16)
        routes = routes_for(net, [Conference.of(m, i) for i, m in enumerate([(0, 1), (4, 5)])])
        res = schedule_slots(routes)
        assert res.n_slots == 1
        assert res.optimal

    def test_adversarial_set_needs_clique_many_slots(self):
        """The worst-case set's conflicts form a clique, so the schedule
        needs exactly the link multiplicity."""
        net = build("indirect-binary-cube", 32)
        routes = routes_for(net, cube_adversarial_set(32))
        res = schedule_slots(routes)
        assert res.clique_bound == 4
        assert res.n_slots >= 4
        assert set(res.slots) == {r.conference.conference_id for r in routes}

    def test_slots_are_internally_conflict_free(self):
        net = build("omega", 32)
        routes = routes_for(net, uniform_partition(32, load=0.9, seed=3))
        res = schedule_slots(routes)
        by_id = {r.conference.conference_id: r for r in routes}
        for slot in range(res.n_slots):
            group = [by_id[c] for c, s in res.slots.items() if s == slot]
            loads = link_loads(group)
            assert not loads or max(loads.values()) == 1

    def test_random_sets_schedule_near_clique_bound(self):
        """Measured: greedy colouring stays within one slot of the
        multiplicity bound on random traffic at N=32."""
        net = build("indirect-binary-cube", 32)
        for seed in range(10):
            routes = routes_for(net, uniform_partition(32, load=0.75, seed=seed))
            res = schedule_slots(routes)
            assert res.clique_bound <= res.n_slots <= res.clique_bound + 2


class TestEdgeCases:
    """Edge inputs the TDM capacity model feeds in live operation."""

    def test_single_conference_graph(self):
        net = build("indirect-binary-cube", 16)
        (route,) = routes_for(net, [Conference.of((0, 5, 9), 7)])
        res = schedule_slots([route])
        assert res.slots == {7: 0}
        assert res.n_slots == 1
        assert res.clique_bound == 1
        assert res.optimal

    def test_single_conference_graph_has_no_edges(self):
        net = build("omega", 16)
        (route,) = routes_for(net, [Conference.of((1, 2, 3), 0)])
        g = conflict_graph([route])
        assert set(g.nodes) == {0}
        assert g.number_of_edges() == 0


class TestSlotCountProperty:
    """Hypothesis: the frame is never shorter than the multiplicity bound."""

    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.lists(
            st.sets(st.integers(min_value=0, max_value=15), min_size=2, max_size=5),
            min_size=1,
            max_size=10,
        ),
        topology=st.sampled_from(["omega", "indirect-binary-cube"]),
    )
    def test_slots_at_least_max_link_multiplicity(self, groups, topology):
        net = build(topology, 16)
        routes = routes_for(
            net, [Conference.of(sorted(g), cid) for cid, g in enumerate(groups)]
        )
        res = schedule_slots(routes)
        bound = analyze_conflicts(routes).max_multiplicity
        # A link shared by m conferences forces m distinct slots: no
        # valid colouring can be shorter than the largest multiplicity.
        assert res.n_slots >= bound
        assert res.clique_bound == max(bound, 1)
        # And the schedule is a function of exactly the conference ids.
        assert set(res.slots) == {r.conference.conference_id for r in routes}
