"""Serve-layer attachment: DeliveryModel, capacity_model knob, overlays.

The load-bearing contract here is *transparency*: ``capacity_model=
"abstract"`` (the default) must behave byte-identically to a service
built before this subsystem existed — same admission decisions, same
report dict, no ``"delivery"`` key, no new metric families.  The
buffered overlay adds a delivery block without perturbing anything.
"""

import pytest

from repro.analysis.worstcase import cube_adversarial_set
from repro.core.network import ConferenceNetwork
from repro.core.routing import route_conference
from repro.obs.metrics import MetricsRegistry
from repro.perfmodel import DeliveryModel, PerfModelConfig
from repro.perfmodel.capacity import validate_capacity_model
from repro.serve.bench import run_serve_bench
from repro.serve.service import FabricService
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

N_PORTS = 16


def adversarial_routes(n_ports=32):
    net = build("indirect-binary-cube", n_ports)
    return [route_conference(net, c) for c in cube_adversarial_set(n_ports)]


def service(**kwargs) -> FabricService:
    kwargs.setdefault("rng", 0)
    network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
    return FabricService(network, **kwargs)


class TestValidation:
    def test_knob_spellings(self):
        assert validate_capacity_model("abstract") == "abstract"
        assert validate_capacity_model("buffered") == "buffered"
        with pytest.raises(ValueError, match="capacity_model"):
            validate_capacity_model("queueing")

    def test_service_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="capacity_model"):
            service(capacity_model="queueing")


class TestDeliveryModel:
    def test_idle_ticks_return_none_and_are_counted(self):
        model = DeliveryModel()
        assert model.on_tick([]) is None
        assert model.on_tick([None, None]) is None
        assert model.ticks == 2 and model.idle_ticks == 2
        assert model.delivery_ratio == 1.0
        assert model.summary()["offered_packets"] == 0

    def test_tick_folds_into_aggregates(self):
        routes = adversarial_routes()
        model = DeliveryModel(PerfModelConfig(cycles_per_tick=128))
        assert model.on_tick(routes) is None
        assert (model.ticks, model.idle_ticks) == (1, 0)
        assert model.offered_packets == len(routes)  # packets_per_tick=1
        assert 0 < model.delivered_packets <= model.offered_packets
        assert (
            model.undelivered_packets
            == model.offered_packets - model.delivered_packets
        )
        assert model.latency_percentiles()["p50"] is not None

    def test_cross_tick_totals_accumulate(self):
        routes = adversarial_routes()
        model = DeliveryModel()
        for _ in range(3):
            model.on_tick(routes)
        assert model.ticks == 3
        assert model.offered_packets == 3 * len(routes)
        summary = model.summary()
        assert summary["capacity_model"] == "buffered"
        assert summary["config"] == model.config.as_dict()
        assert summary["delivery_ratio"] == model.delivery_ratio

    def test_merge_summary_adds_counts_and_maxes_peaks(self):
        routes = adversarial_routes()
        a, b = DeliveryModel(), DeliveryModel()
        a.on_tick(routes)
        b.on_tick(routes)
        b.on_tick(routes)
        merged = DeliveryModel()
        for shard in (a, b):
            merged.merge(shard)
        assert merged.ticks == 3
        assert merged.offered_packets == a.offered_packets + b.offered_packets
        assert merged.delivered_packets == a.delivered_packets + b.delivered_packets
        assert merged.peak_lane_occupancy == max(
            a.peak_lane_occupancy, b.peak_lane_occupancy
        )
        # Histogram merge carries the latency series over.
        assert merged.latency_percentiles()["p50"] is not None

    def test_metrics_flow_through(self):
        reg = MetricsRegistry()
        model = DeliveryModel(metrics=reg)
        model.on_tick(adversarial_routes())
        flits = reg.counter("repro_perf_flits_total")
        assert flits.value(event="offered") == model.offered_flits


class TestServiceAttachment:
    def test_abstract_mode_has_no_delivery_model(self):
        svc = service()
        assert svc.capacity_model == "abstract"
        assert svc.delivery is None

    def test_buffered_mode_attaches_and_observes_ticks(self):
        svc = service(capacity_model="buffered",
                      perf=PerfModelConfig(cycles_per_tick=32))
        assert svc.capacity_model == "buffered"
        got = []
        svc.submit_open([0, 1, 2], on_complete=got.append)
        svc.tick()
        assert got and got[0].ok
        assert svc.delivery.ticks == 1
        assert svc.delivery.offered_packets >= 1

    def test_admission_decisions_identical_across_modes(self):
        """The overlay never changes what gets admitted."""
        outcomes = {}
        for mode in ("abstract", "buffered"):
            svc = service(capacity_model=mode)
            got = []
            for base in range(0, 12, 3):
                svc.submit_open([base, base + 1, base + 2],
                                on_complete=got.append)
            for _ in range(4):
                svc.tick()
            outcomes[mode] = [(r.ok, r.status) for r in got]
        assert outcomes["abstract"] == outcomes["buffered"]


class TestBenchTransparency:
    def test_abstract_report_has_no_delivery_block(self):
        report = run_serve_bench(16, conferences=10, seed=0)
        assert report.delivery is None
        assert "delivery" not in report.as_dict()

    def test_abstract_dict_identical_with_and_without_knob(self):
        """Passing the default knob explicitly changes nothing."""
        base = run_serve_bench(16, conferences=15, seed=2).as_dict()
        knob = run_serve_bench(
            16, conferences=15, seed=2, capacity_model="abstract"
        ).as_dict()
        assert base == knob

    def test_buffered_adds_only_the_delivery_block(self):
        base = run_serve_bench(16, conferences=15, seed=2).as_dict()
        buff = run_serve_bench(
            16, conferences=15, seed=2, capacity_model="buffered",
            perf=PerfModelConfig(cycles_per_tick=32),
        ).as_dict()
        delivery = buff.pop("delivery")
        assert buff == base
        assert delivery["capacity_model"] == "buffered"
        assert delivery["offered_packets"] > 0
        assert 0.0 <= delivery["delivery_ratio"] <= 1.0

    def test_buffered_runs_are_deterministic(self):
        kwargs = dict(conferences=15, seed=2, capacity_model="buffered",
                      perf=PerfModelConfig(cycles_per_tick=32))
        a = run_serve_bench(16, **kwargs).as_dict()
        b = run_serve_bench(16, **kwargs).as_dict()
        assert a == b


class TestClusterTransparency:
    def test_cluster_delivery_merges_shards(self):
        from repro.cluster.bench import run_cluster_bench

        base = run_cluster_bench(
            ports=16, shards=2, conferences=12, seed=4
        ).as_dict()
        buff = run_cluster_bench(
            ports=16, shards=2, conferences=12, seed=4,
            capacity_model="buffered", perf=PerfModelConfig(cycles_per_tick=32),
        ).as_dict()
        delivery = buff.pop("delivery")
        assert buff == base
        assert delivery["shards"] == 2
        assert delivery["offered_packets"] > 0
