"""Unit tests for the wormhole cycle model: lanes, queues, worms, TDM."""

import pytest

from repro.analysis.scheduling import schedule_slots
from repro.analysis.worstcase import cube_adversarial_set
from repro.core.conference import Conference
from repro.core.routing import route_conference
from repro.obs.metrics import MetricsRegistry
from repro.perfmodel import (
    CycleSim,
    LaneQueue,
    LinkModel,
    PerfModelConfig,
    PerfReport,
    simulate_delivery,
)
from repro.topology.builders import build

pytestmark = pytest.mark.tier1


def routes_for(net, cs):
    return [route_conference(net, c) for c in cs]


def adversarial_routes(n_ports=32):
    net = build("indirect-binary-cube", n_ports)
    return routes_for(net, cube_adversarial_set(n_ports))


class TestConfig:
    def test_defaults(self):
        cfg = PerfModelConfig()
        assert cfg.lanes == 1 and cfg.buffer_depth == 4
        assert cfg.flits_per_packet == 4 and not cfg.tdm

    @pytest.mark.parametrize("field", ["lanes", "buffer_depth", "flits_per_packet", "cycles_per_tick"])
    def test_positive_ints_enforced(self, field):
        with pytest.raises(ValueError, match=field):
            PerfModelConfig(**{field: 0})

    def test_packets_per_tick_may_be_zero_but_not_negative(self):
        assert PerfModelConfig(packets_per_tick=0).packets_per_tick == 0
        with pytest.raises(ValueError, match="packets_per_tick"):
            PerfModelConfig(packets_per_tick=-1)

    def test_as_dict_round_trips_every_knob(self):
        cfg = PerfModelConfig(lanes=2, buffer_depth=8, flits_per_packet=2, tdm=True)
        d = cfg.as_dict()
        assert PerfModelConfig(**d) == cfg


class TestLaneQueue:
    def test_exclusive_ownership(self):
        lane = LaneQueue(0, depth=2)
        assert lane.can_accept(pid=1, cycle=0)
        lane.push(1, cycle=0)
        assert lane.owner == 1
        assert not lane.can_accept(pid=2, cycle=1)
        assert lane.stall_busy == 1

    def test_one_push_per_cycle(self):
        lane = LaneQueue(0, depth=4)
        lane.push(1, cycle=0)
        assert not lane.can_accept(pid=1, cycle=0)
        assert lane.can_accept(pid=1, cycle=1)

    def test_depth_bound(self):
        lane = LaneQueue(0, depth=2)
        lane.push(1, cycle=0)
        lane.push(1, cycle=1)
        assert not lane.can_accept(pid=1, cycle=2)
        assert lane.stall_full >= 1

    def test_release_frees_owner_only_when_empty(self):
        lane = LaneQueue(0, depth=2)
        lane.push(1, cycle=0)
        lane.push(1, cycle=1)
        lane.pop(release=True)
        assert lane.owner == 1  # one flit still buffered
        lane.pop(release=True)
        assert lane.owner is None
        assert lane.can_accept(pid=2, cycle=2)

    def test_peak_occupancy_tracks_high_water(self):
        lane = LaneQueue(0, depth=3)
        for c in range(3):
            lane.push(1, cycle=c)
        lane.pop(release=False)
        assert lane.peak_occupancy == 3


class TestLinkModel:
    def test_lanes_and_occupancy(self):
        link = LinkModel((1, 0), n_lanes=2, depth=4)
        link.lanes[0].push(1, cycle=0)
        link.lanes[1].push(2, cycle=0)
        assert link.occupancy == 2
        assert link.peak_occupancy == 1


class TestCycleSim:
    def test_single_conference_delivers_all_packets(self):
        net = build("indirect-binary-cube", 16)
        routes = routes_for(net, [Conference.of((0, 9), 0)])
        sim = CycleSim(routes, PerfModelConfig())
        sim.inject(0, 5)
        spent = sim.drain()
        assert sim.delivered_packets == 5
        assert sim.delivered_flits == sim.offered_flits == 20
        assert spent > 0
        sim.check_conservation()

    def test_duplicate_conference_ids_rejected(self):
        net = build("indirect-binary-cube", 16)
        routes = routes_for(net, [Conference.of((0, 9), 3), Conference.of((1, 2), 3)])
        with pytest.raises(ValueError, match="duplicate"):
            CycleSim(routes)

    def test_inject_unknown_conference_rejected(self):
        sim = CycleSim(adversarial_routes())
        with pytest.raises(KeyError, match="no route"):
            sim.inject(999)

    def test_latency_is_depth_plus_flits_when_uncontended(self):
        # A lone worm pipelines one level per cycle: last flit is offered
        # at cycle 0, injected at cycle F-1, then needs depth cycles to
        # traverse and 1 to drain — total depth + F.
        net = build("indirect-binary-cube", 16)
        (route,) = routes_for(net, [Conference.of((0, 9), 0)])
        cfg = PerfModelConfig(flits_per_packet=3)
        sim = CycleSim([route], cfg)
        sim.inject(0, 1)
        sim.drain()
        depth = route.depth
        lat = sim.latency_percentiles()
        # One log-bucket of error around the exact value.
        assert lat["p50"] == pytest.approx(depth + 3, rel=0.25)

    def test_deterministic_step_by_step(self):
        routes = adversarial_routes()
        a = CycleSim(routes, PerfModelConfig(lanes=2))
        b = CycleSim(routes, PerfModelConfig(lanes=2))
        for sim in (a, b):
            for cid in sim.conference_ids:
                sim.inject(cid, 3)
            sim.run(200)
        assert a.report().as_dict() == b.report().as_dict()

    def test_report_satisfies_result_protocol(self):
        from repro.api import Result

        sim = CycleSim(adversarial_routes())
        report = sim.report()
        assert isinstance(report, Result)
        assert report.ok and report.reason is None
        assert report.as_dict()["kind"] == "perf_report"

    def test_metrics_published_once_per_observe(self):
        reg = MetricsRegistry()
        routes = adversarial_routes()
        sim = CycleSim(routes, PerfModelConfig(), metrics=reg)
        for cid in sim.conference_ids:
            sim.inject(cid, 2)
        sim.run(100)
        sim.observe_metrics()
        flits = reg.counter("repro_perf_flits_total")
        assert flits.value(event="offered") == sim.offered_flits
        # A second observe adds only the delta (here: nothing).
        sim.observe_metrics()
        assert flits.value(event="offered") == sim.offered_flits

    def test_no_metrics_registry_is_fine(self):
        sim = CycleSim(adversarial_routes())
        sim.observe_metrics()  # no-op without a registry


class TestSaturation:
    """Delivered throughput saturates at L/(m*F) — not below it."""

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_knee_at_the_multiplicity_bound(self, lanes):
        routes = adversarial_routes(32)  # multiplicity 4, divisible by L
        m, F = 4, 4
        r_star = min(1.0 / F, lanes / (m * F))
        below = simulate_delivery(
            routes, config=PerfModelConfig(lanes=lanes),
            cycles=4000, offered_load=0.8 * r_star,
        )
        above = simulate_delivery(
            routes, config=PerfModelConfig(lanes=lanes),
            cycles=4000, offered_load=1.5 * r_star,
        )
        per_conf_below = below.delivered_throughput / len(routes)
        per_conf_above = above.delivered_throughput / len(routes)
        # Below the knee: delivery tracks the offer (within ramp-up loss).
        assert per_conf_below == pytest.approx(0.8 * r_star, rel=0.05)
        # Above the knee: delivery plateaus at the bound — and crucially
        # never below it (saturation at, not before, the bound).
        assert per_conf_above == pytest.approx(r_star, rel=0.05)
        assert per_conf_above <= r_star * 1.001

    def test_latency_blows_up_past_saturation(self):
        routes = adversarial_routes(32)
        r_star = 1 / 16
        calm = simulate_delivery(routes, cycles=3000, offered_load=0.5 * r_star)
        hot = simulate_delivery(routes, cycles=3000, offered_load=1.5 * r_star)
        assert hot.latency["p99"] > 10 * calm.latency["p99"]


class TestTDM:
    def test_tdm_uses_colouring_frame(self):
        routes = adversarial_routes(32)
        sched = schedule_slots(routes)
        sim = CycleSim(routes, PerfModelConfig(tdm=True))
        assert sim.n_slots == sched.n_slots

    def test_explicit_schedule_accepted(self):
        routes = adversarial_routes(32)
        slots = {r.conference.conference_id: i for i, r in enumerate(routes)}
        sim = CycleSim(routes, PerfModelConfig(tdm=True), schedule=slots)
        assert sim.n_slots == len(routes)

    def test_missing_schedule_entry_rejected(self):
        routes = adversarial_routes(32)
        slots = {routes[0].conference.conference_id: 0}
        with pytest.raises(ValueError, match="missing conference"):
            CycleSim(routes, PerfModelConfig(tdm=True), schedule=slots)

    def test_tdm_throughput_divided_by_frame_length(self):
        # Sharers get a private virtual lane but only 1/n_slots of the
        # cycles: per-conference saturation rate is 1/(F * n_slots).
        routes = adversarial_routes(32)
        sim = CycleSim(routes, PerfModelConfig(tdm=True))
        r_star = 1.0 / (4 * sim.n_slots)
        report = simulate_delivery(
            routes, config=PerfModelConfig(tdm=True),
            cycles=4000, offered_load=1.5 * r_star,
        )
        per_conf = report.delivered_throughput / len(routes)
        assert per_conf == pytest.approx(r_star, rel=0.05)

    def test_tdm_gate_stalls_are_counted(self):
        routes = adversarial_routes(32)
        report = simulate_delivery(
            routes, config=PerfModelConfig(tdm=True),
            cycles=500, offered_load=0.05,
        )
        assert report.stalls["tdm_gate"] > 0

    def test_space_mode_never_tdm_stalls(self):
        routes = adversarial_routes(32)
        report = simulate_delivery(routes, cycles=500, offered_load=0.05)
        assert report.stalls["tdm_gate"] == 0
        assert report.n_slots == 1


class TestSimulateDelivery:
    def test_drain_closes_the_books(self):
        routes = adversarial_routes(32)
        report = simulate_delivery(
            routes, cycles=200, offered_load=0.1, drain=True
        )
        assert report.delivered_flits == report.offered_flits
        assert report.in_fabric_flits == 0
        assert report.delivery_ratio == 1.0

    def test_zero_load_is_quiet(self):
        routes = adversarial_routes(32)
        report = simulate_delivery(routes, cycles=100, offered_load=0.0)
        assert report.offered_packets == 0
        assert report.ok

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="offered_load"):
            simulate_delivery(adversarial_routes(), offered_load=-0.1)

    def test_per_conference_breakdown(self):
        routes = adversarial_routes(32)
        report = simulate_delivery(routes, cycles=1000, offered_load=0.02, drain=True)
        assert set(report.per_conference) == {
            r.conference.conference_id for r in routes
        }
        for entry in report.per_conference.values():
            assert entry["delivered"] == entry["offered"] > 0
            assert entry["latency"]["p50"] is not None


class TestBufferDepthAxis:
    """Buffer depth binds once worms contend for shared lanes.

    On the cube adversarial set of the M1 bench every depth gives the
    same table; this mixed-size set on N=16 does not.
    """

    @staticmethod
    def report(depth):
        net = build("indirect-binary-cube", 16)
        groups = [[1, 14], [0, 3, 8, 15], [7, 9], [4, 6]]
        routes = routes_for(net, [Conference.of(m, i) for i, m in enumerate(groups)])
        config = PerfModelConfig(lanes=1, flits_per_packet=4, buffer_depth=depth)
        return simulate_delivery(routes, config=config, cycles=400, offered_load=0.2)

    @pytest.mark.parametrize(
        "depth, delivered, buffer_full",
        [(1, 177, 786), (2, 177, 294), (4, 176, 0), (8, 176, 0)],
    )
    def test_depth_changes_stalls_and_delivery(self, depth, delivered, buffer_full):
        report = self.report(depth)
        assert report.delivered_packets == delivered
        assert report.stalls["buffer_full"] == buffer_full


class TestPerfReportVerdict:
    def test_ok_requires_monotone_counts(self):
        report = PerfReport(
            cycles=1, config={}, n_conferences=0, n_links=0, n_slots=1,
            offered_packets=0, delivered_packets=0,
            offered_flits=0, injected_flits=5, delivered_flits=9,
            in_fabric_flits=0,
        )
        assert not report.ok
        assert "non-monotone" in report.reason

    def test_conservation_flag_controls_verdict(self):
        report = PerfReport(
            cycles=1, config={}, n_conferences=0, n_links=0, n_slots=1,
            offered_packets=0, delivered_packets=0,
            offered_flits=0, injected_flits=0, delivered_flits=0,
            in_fabric_flits=0, conserved=False,
        )
        assert not report.ok
        assert report.reason == "flit conservation violated"
