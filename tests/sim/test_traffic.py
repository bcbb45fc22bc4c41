"""Tests for the conference traffic model and statistics."""

import pytest

from repro.core.admission import AdmissionController
from repro.core.network import ConferenceNetwork
from repro.sim.engine import EventLoop
from repro.sim.metrics import TrafficStats
from repro.sim.traffic import ConferenceTrafficSource, TrafficConfig


def run_source(topology="indirect-binary-cube", ports=32, dilation=4, duration=200.0,
               seed=0, **cfg):
    network = ConferenceNetwork.build(topology, ports, dilation=dilation)
    source = ConferenceTrafficSource(
        AdmissionController(network), TrafficConfig(**cfg), seed=seed
    )
    loop = EventLoop()
    source.start(loop)
    loop.run(until=duration)
    return source


class TestTrafficConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficConfig(arrival_rate=0)
        with pytest.raises(ValueError):
            TrafficConfig(mean_holding=-1)
        with pytest.raises(ValueError):
            TrafficConfig(mean_size=1.0, min_size=2)
        with pytest.raises(ValueError):
            TrafficConfig(placement="diagonal")
        with pytest.raises(ValueError):
            TrafficConfig(min_size=0)

    def test_offered_erlangs(self):
        assert TrafficConfig(arrival_rate=2.0, mean_holding=5.0).offered_erlangs == 10.0


class TestAccounting:
    def test_offered_splits_into_admitted_and_blocked(self):
        src = run_source(arrival_rate=2.0, mean_holding=5.0)
        stats = src.stats
        assert stats.offered == stats.admitted + stats.blocked_total
        assert stats.completed <= stats.admitted
        assert stats.admitted - stats.completed == len(src._controller.live_conferences)

    def test_determinism_by_seed(self):
        a = run_source(seed=99).stats.summary()
        b = run_source(seed=99).stats.summary()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_source(seed=1, duration=300).stats
        b = run_source(seed=2, duration=300).stats
        assert (a.offered, a.admitted) != (b.offered, b.admitted)

    def test_occupancy_tracking(self):
        src = run_source(arrival_rate=3.0, mean_holding=10.0)
        assert src.stats.peak_occupancy >= 1
        assert 0 < src.stats.mean_occupancy <= src.stats.peak_occupancy

    def test_summary_keys(self):
        summary = run_source().stats.summary()
        assert {"offered", "admitted", "blocking_probability",
                "capacity_blocking_probability"} <= set(summary)


class TestPlacementModes:
    def test_aligned_cube_never_capacity_blocks_at_dilation_one(self):
        """The Yang-2001 guarantee, dynamically: aligned placement on the
        cube needs no dilation at all."""
        src = run_source(dilation=1, duration=500, arrival_rate=2.0,
                         mean_holding=8.0, placement="aligned")
        assert src.stats.blocked["capacity"] == 0
        assert src.stats.admitted > 0

    def test_uniform_cube_capacity_blocks_at_dilation_one(self):
        src = run_source(dilation=1, duration=500, arrival_rate=2.0,
                         mean_holding=8.0, placement="uniform")
        assert src.stats.blocked["capacity"] > 0

    def test_ports_block_when_network_full(self):
        src = run_source(dilation=32, duration=500, arrival_rate=5.0,
                         mean_holding=50.0, mean_size=8.0)
        assert src.stats.blocked["ports"] > 0


class TestStatsUnit:
    def test_blocking_probability_empty(self):
        assert TrafficStats().blocking_probability == 0.0

    def test_occupancy_rejects_time_travel(self):
        stats = TrafficStats()
        stats.observe_occupancy(5.0, 2)
        with pytest.raises(ValueError):
            stats.observe_occupancy(4.0, 1)

    def test_time_weighted_mean(self):
        stats = TrafficStats()
        stats.observe_occupancy(0.0, 0)
        stats.observe_occupancy(10.0, 4)  # 0 live for 10s
        stats.observe_occupancy(20.0, 0)  # 4 live for 10s
        assert stats.mean_occupancy == pytest.approx(2.0)
        assert stats.peak_occupancy == 4
