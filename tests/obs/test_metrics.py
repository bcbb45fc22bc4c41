"""Unit tests of the metrics registry, exposition, merge, and timed()."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_OCCUPANCY_BUCKETS,
    MetricsRegistry,
    collecting,
    maybe_registry,
    timed,
)

pytestmark = pytest.mark.tier1


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_drops_total", "drops")
        c.inc(cause="fault")
        c.inc(2, cause="fault")
        c.inc(cause="capacity")
        assert c.value(cause="fault") == 3
        assert c.value(cause="capacity") == 1
        assert c.value(cause="never") == 0

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("1starts_with_digit")
        with pytest.raises(ValueError):
            reg.counter("has space")


class TestGauge:
    def test_set_and_set_max(self):
        g = MetricsRegistry().gauge("g")
        g.set(5, stage="1")
        g.set_max(3, stage="1")  # lower: ignored
        assert g.value(stage="1") == 5
        g.set_max(9, stage="1")
        assert g.value(stage="1") == 9

    def test_inc_can_go_down(self):
        g = MetricsRegistry().gauge("g")
        g.inc(3)
        g.inc(-1)
        assert g.value() == 2


class TestHistogram:
    def test_cumulative_buckets_and_sum(self):
        h = MetricsRegistry().histogram("h", buckets=(1, 2, 4))
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == 106
        assert h._series[()]["counts"] == [1, 1, 1, 1]  # le1, le2, le4, +Inf

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestExposition:
    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_drops_total", "drops by cause").inc(cause="fault")
        h = reg.histogram("repro_link_occupancy", buckets=(1, 2))
        h.observe(1, stage="1")
        h.observe(5, stage="1")
        text = reg.render_prometheus()
        assert "# HELP repro_drops_total drops by cause" in text
        assert "# TYPE repro_drops_total counter" in text
        assert 'repro_drops_total{cause="fault"} 1' in text
        assert 'repro_link_occupancy_bucket{stage="1",le="1"} 1' in text
        assert 'repro_link_occupancy_bucket{stage="1",le="+Inf"} 2' in text
        assert 'repro_link_occupancy_sum{stage="1"} 6' in text
        assert 'repro_link_occupancy_count{stage="1"} 2' in text

    def test_deterministic_rendering(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name).inc(k=name)
            return reg.render_prometheus()

        assert build(["b", "a", "c"]) == build(["c", "a", "b"])

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(path='a"b\\c\nd')
        line = reg.render_prometheus().splitlines()[-1]
        assert line == 'c{path="a\\"b\\\\c\\nd"} 1'

    def test_to_json_parses(self):
        reg = MetricsRegistry()
        reg.gauge("g", "help").set(2, stage="3")
        data = json.loads(reg.to_json())
        assert data["g"]["kind"] == "gauge"
        assert data["g"]["series"] == [{"labels": {"stage": "3"}, "value": 2}]

    def test_write_json_vs_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        prom, jsn = tmp_path / "m.prom", tmp_path / "m.json"
        reg.write(str(prom))
        reg.write(str(jsn))
        assert prom.read_text().startswith("# TYPE c counter")
        assert json.loads(jsn.read_text())["c"]["kind"] == "counter"


class TestMerge:
    def test_counters_add_gauges_max_histograms_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, n in ((a, 1), (b, 2)):
            reg.counter("c").inc(n)
            reg.gauge("g").set(n, stage="1")
            reg.histogram("h", buckets=(1, 4)).observe(n)
        a.merge(b)
        assert a.counter("c").value() == 3
        assert a.gauge("g").value(stage="1") == 2  # max, not sum
        assert a.histogram("h").count() == 2
        assert a.histogram("h").sum() == 3

    def test_merge_accepts_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(5)
        a.merge(b.snapshot())
        assert a.counter("c").value() == 5

    def test_merge_order_invariant(self):
        regs = []
        for n in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("c").inc(n)
            reg.gauge("g").set_max(n)
            regs.append(reg)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for reg in regs:
            forward.merge(reg)
        for reg in reversed(regs):
            backward.merge(reg)
        assert forward.render_prometheus() == backward.render_prometheus()

    def test_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError, match="bucket"):
            a.merge(b)

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc()
        assert snap["c"]["series"][()] == 1


class TestCollection:
    def test_disabled_by_default(self):
        assert maybe_registry() is None

    def test_collecting_swaps_default_registry(self):
        with collecting() as outer:
            with collecting() as reg:
                assert maybe_registry() is reg
                reg.counter("c").inc()
            assert maybe_registry() is outer
            assert "c" not in outer
        assert maybe_registry() is None

    def test_collecting_into_explicit_registry(self):
        mine = MetricsRegistry()
        with collecting(mine) as reg:
            assert reg is mine

    def test_collecting_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with collecting():
                raise RuntimeError
        assert maybe_registry() is None


class TestTimed:
    def test_context_manager_records(self):
        reg = MetricsRegistry()
        with timed("repro_route", registry=reg, stage="2"):
            pass
        h = reg.get("repro_route_seconds")
        assert h is not None
        assert h.count(stage="2") == 1

    def test_untimed_without_registry(self):
        timer = timed("repro_nothing")
        with timer:
            assert timer._hist is None
        assert maybe_registry() is None

    def test_decorator_records_under_collection(self):
        @timed("repro_fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2  # fast path, no collection
        with collecting() as reg:
            assert fn(2) == 3
        assert reg.histogram("repro_fn_seconds").count() == 1

    def test_occupancy_buckets_cover_small_loads(self):
        assert DEFAULT_OCCUPANCY_BUCKETS[0] == 1
