"""The SLO engine: histograms, burn rates, alert states."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import (
    ALERT_STATES,
    BurnWindow,
    SLOEvaluator,
    SLOSpec,
    WindowedHistogram,
    default_serve_slos,
    log_bucket_edges,
)

pytestmark = [pytest.mark.tier1, pytest.mark.parallel]


class TestLogBucketEdges:
    def test_geometric_spacing(self):
        edges = log_bucket_edges(1.0, 16.0, 2.0)
        assert edges == (1.0, 2.0, 4.0, 8.0, 16.0)

    def test_last_edge_covers_high(self):
        edges = log_bucket_edges(0.5, 100.0, 3.0)
        assert edges[-1] >= 100.0
        assert edges[-2] < 100.0

    @pytest.mark.parametrize(
        "low, high, growth",
        [(0.0, 1.0, 2.0), (-1.0, 1.0, 2.0), (2.0, 1.0, 2.0), (1.0, 2.0, 1.0), (1.0, 2.0, 0.5)],
    )
    def test_invalid_parameters_raise(self, low, high, growth):
        for _ in range(2):  # a rejected call is not memoized
            with pytest.raises(ValueError):
                log_bucket_edges(low, high, growth)

    def test_repeated_calls_share_one_tuple(self):
        edges = log_bucket_edges(1.0, float(1 << 20), 2.0 ** 0.25)
        assert log_bucket_edges(1.0, float(1 << 20), 2.0 ** 0.25) is edges
        assert len(edges) == 82 and edges[0] == 1.0 and edges[-2] < 1 << 20 <= edges[-1]
        assert log_bucket_edges(1.0, 16.0, 2.0) == (1.0, 2.0, 4.0, 8.0, 16.0)


class TestWindowedHistogram:
    def test_quantile_is_bucket_upper_edge(self):
        hist = WindowedHistogram(low=1.0, high=64.0, growth=2.0, window=10.0)
        hist.observe(3.0, now=0.0)  # bucket edge 4.0
        assert hist.quantile(0.5) == 4.0
        assert hist.count() == 1

    def test_empty_histogram_has_no_quantiles(self):
        hist = WindowedHistogram()
        assert hist.quantile(0.5) is None
        assert hist.percentiles() == {"p50": None, "p95": None, "p99": None}

    def test_overflow_reports_inf(self):
        hist = WindowedHistogram(low=1.0, high=4.0, growth=2.0)
        hist.observe(1e9, now=0.0)
        assert hist.quantile(0.99) == math.inf

    def test_quantile_rejects_out_of_range(self):
        hist = WindowedHistogram()
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                hist.quantile(q)

    def test_old_windows_expire(self):
        hist = WindowedHistogram(window=10.0, windows=2)
        hist.observe(1.0, now=0.0)
        assert hist.count() == 1
        hist.advance(now=35.0)  # window 3; live windows are {2, 3}
        assert hist.count() == 0
        assert hist.observed == 1  # lifetime counter is never trimmed

    def test_observation_in_live_window_survives_advance(self):
        hist = WindowedHistogram(window=10.0, windows=3)
        hist.observe(2.0, now=25.0)
        hist.advance(now=41.0)  # windows {2, 3, 4} live; obs sits in 2
        assert hist.count() == 1

    def test_interleaved_observe_and_query_stays_consistent(self):
        # The merged-counts cache must never go stale across the
        # observe / advance / quantile interleavings the evaluator does.
        hist = WindowedHistogram(low=1.0, high=64.0, growth=2.0, window=5.0, windows=4)
        rng = random.Random(7)
        mirror = []
        for step in range(200):
            now = float(step)
            value = rng.uniform(0.5, 80.0)
            hist.observe(value, now)
            mirror.append((int(now // 5.0), value))
            if step % 3 == 0:
                hist.advance(now)
            floor = int(now // 5.0) - 3
            live = sorted(v for wid, v in mirror if wid >= floor)
            assert hist.count() == len(live)
            q = hist.quantile(0.95)
            rank_value = live[max(1, math.ceil(0.95 * len(live) - 1e-9)) - 1]
            assert q >= rank_value

    def test_merge_requires_identical_shape(self):
        a = WindowedHistogram(low=1.0, high=8.0, growth=2.0)
        b = WindowedHistogram(low=1.0, high=16.0, growth=2.0)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_merge_adds_counts_by_absolute_window(self):
        a = WindowedHistogram(window=10.0)
        b = WindowedHistogram(window=10.0)
        a.observe(1.0, now=5.0)
        b.observe(1.0, now=5.0)
        b.observe(2.0, now=15.0)
        a.merge(b.snapshot())
        assert a.count() == 3
        assert a.observed == 3


class TestPercentileErrorBound:
    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.5, max_value=4096.0, allow_nan=False),
            min_size=1,
            max_size=120,
        ),
        q=st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
    )
    def test_reported_quantile_within_growth_factor(self, samples, q):
        """For in-range data the bucket edge overestimates by < growth.

        The reported quantile is the upper edge of the bucket holding
        the true q-ranked sample ``v``, so ``v <= reported < v * growth``
        (left equality when ``v`` sits exactly on an edge).
        """
        growth = 2.0 ** 0.5
        hist = WindowedHistogram(low=0.5, high=4096.0, growth=growth, window=1e9)
        for v in samples:
            hist.observe(v, now=0.0)
        reported = hist.quantile(q)
        ordered = sorted(samples)
        true_value = ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]
        assert reported >= true_value
        assert reported < max(true_value, 0.5) * growth * (1 + 1e-9)


class TestSLOSpec:
    def test_budget_is_one_minus_objective(self):
        spec = SLOSpec("availability", objective=0.999)
        assert spec.budget == pytest.approx(0.001)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="bad name!"),
            dict(name=""),
            dict(name="x", objective=0.0),
            dict(name="x", objective=1.0),
            dict(name="x", kind="gauge"),
            dict(name="x", kind="latency"),  # missing threshold
            dict(name="x", windows=()),
        ],
    )
    def test_invalid_specs_raise(self, kwargs):
        with pytest.raises(ValueError):
            SLOSpec(**kwargs)

    def test_burn_window_validation(self):
        with pytest.raises(ValueError):
            BurnWindow(ticks=0.0, factor=1.0)
        with pytest.raises(ValueError):
            BurnWindow(ticks=10.0, factor=0.0)
        with pytest.raises(ValueError):
            BurnWindow(ticks=10.0, factor=1.0, severity="panic")

    def test_default_serve_slos_cover_the_bench_signals(self):
        names = {spec.name for spec in default_serve_slos()}
        assert names == {"admission_latency", "availability", "recovery", "shed_rate"}


def _ratio_spec(**overrides):
    base = dict(
        name="availability",
        objective=0.99,
        windows=(
            BurnWindow(ticks=40.0, factor=2.0, severity="warn"),
            BurnWindow(ticks=20.0, factor=10.0, severity="page"),
        ),
    )
    base.update(overrides)
    return SLOSpec(**base)


class TestSLOEvaluator:
    def test_all_good_traffic_stays_ok(self):
        slo = SLOEvaluator([_ratio_spec()], frame=5.0)
        for t in range(40):
            slo.record("availability", good=10, now=float(t))
            status = slo.evaluate(float(t))
        assert status["state"] == "ok"
        assert slo.state == "ok"
        assert status["slos"]["availability"]["breaches"] == 0

    def test_burn_escalates_ok_warn_page(self):
        slo = SLOEvaluator([_ratio_spec()], frame=5.0)
        seen = []
        # 3% bad: burn 3.0 fires the 2x warn window, not the 10x page.
        for t in range(20):
            slo.record("availability", good=97, bad=3, now=float(t))
            seen.append(slo.evaluate(float(t))["state"])
        assert seen[-1] == "warn"
        # 15% bad: burn 15 > 10 fires the page window.
        for t in range(20, 40):
            slo.record("availability", good=85, bad=15, now=float(t))
            seen.append(slo.evaluate(float(t))["state"])
        assert seen[-1] == "page"
        assert set(seen) <= set(ALERT_STATES)

    def test_breach_hook_fires_once_per_page_entry(self):
        slo = SLOEvaluator([_ratio_spec()], frame=5.0)
        fired = []
        slo.add_breach_hook(lambda name, status, now: fired.append((name, now)))
        for t in range(10):
            slo.record("availability", bad=100, now=float(t))
            slo.evaluate(float(t))
        assert len(fired) == 1  # stays paged; no re-fire while paged
        assert fired[0][0] == "availability"
        assert slo.last["slos"]["availability"]["breaches"] == 1

    def test_latency_objective_derives_good_from_threshold(self):
        spec = SLOSpec(
            "latency", objective=0.9, kind="latency", threshold=10.0,
            windows=(BurnWindow(ticks=30.0, factor=1.0, severity="page"),),
        )
        slo = SLOEvaluator([spec], frame=5.0)
        for t in range(10):
            slo.observe("latency", 5.0, now=float(t))
        status = slo.evaluate(9.0)["slos"]["latency"]
        assert status["state"] == "ok"
        assert status["percentiles"]["p50"] is not None
        assert status["observations"] == 10
        for t in range(10, 20):
            slo.observe("latency", 50.0, now=float(t))
        assert slo.evaluate(19.0)["state"] == "page"

    def test_observe_on_ratio_spec_raises(self):
        slo = SLOEvaluator([_ratio_spec()])
        with pytest.raises(ValueError):
            slo.observe("availability", 1.0, now=0.0)

    def test_contains_and_specs(self):
        slo = SLOEvaluator()
        assert "availability" in slo
        assert "nonexistent" not in slo
        assert [s.name for s in slo.specs] == sorted(s.name for s in slo.specs)

    def test_duplicate_spec_rejected(self):
        slo = SLOEvaluator([_ratio_spec()])
        with pytest.raises(ValueError):
            slo.add_spec(_ratio_spec())

    def test_recovers_to_ok_when_bad_traffic_ages_out(self):
        slo = SLOEvaluator([_ratio_spec()], frame=5.0)
        for t in range(5):
            slo.record("availability", bad=100, now=float(t))
            slo.evaluate(float(t))
        assert slo.state == "page"
        # Quiet good traffic long past the longest burn window.
        for t in range(5, 120):
            slo.record("availability", good=100, now=float(t))
            slo.evaluate(float(t))
        assert slo.state == "ok"

    def test_write_and_to_json(self, tmp_path):
        slo = SLOEvaluator([_ratio_spec()], frame=5.0)
        slo.record("availability", good=5, now=0.0)
        slo.evaluate(0.0)
        path = tmp_path / "slo.json"
        slo.write(str(path))
        doc = json.loads(path.read_text())
        assert doc == slo.last
        assert json.loads(slo.to_json()) == doc

    def test_to_json_before_any_evaluation(self):
        slo = SLOEvaluator([_ratio_spec()])
        doc = json.loads(SLOEvaluator([_ratio_spec()]).to_json())
        assert doc["state"] == "ok"
        assert doc["t"] is None
        assert slo.last is None

