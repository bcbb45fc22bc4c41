"""Bit-transparency: telemetry must never change what the fabric does.

Every hook in the stack is gated on ``tracer is not None`` /
``metrics is not None`` and draws nothing from the experiment RNG
streams, so an instrumented run and a bare run of the same seed are
required to produce *identical* results — not statistically close,
equal.  These tests run both variants side by side and assert equality
of the full result structures, then sanity-check that the instrumented
variant actually captured telemetry (a silently dead tracer would make
the differential vacuous).
"""

import pytest

from repro.analysis.resilience import availability_over_time
from repro.obs import MetricsRegistry, Tracer
from repro.parallel.experiments import random_load_arm, search_trials

pytestmark = [pytest.mark.tier1, pytest.mark.parallel]

N_PORTS = 16


def _availability(tracer=None, metrics=None):
    return availability_over_time(
        topology="extra-stage-cube",
        n_ports=N_PORTS,
        duration=300.0,
        seed=11,
        tracer=tracer,
        metrics=metrics,
    )


class TestAvailabilityTransparency:
    def test_rows_identical_with_and_without_telemetry(self):
        bare = _availability()
        tracer, registry = Tracer(), MetricsRegistry()
        instrumented = _availability(tracer=tracer, metrics=registry)
        assert instrumented == bare
        # ...and the telemetry side actually observed the run.
        assert tracer.emitted > 0
        assert "conference.submit" in tracer.counts()
        assert "repro_admissions_total" in registry
        assert "repro_link_occupancy" in registry

    def test_metrics_are_deterministic_across_runs(self):
        # No wall-clock metric records on this path (timed() stays off),
        # so two instrumented runs of the same seed render identically.
        first, second = MetricsRegistry(), MetricsRegistry()
        _availability(metrics=first)
        _availability(metrics=second)
        assert first.render_prometheus() == second.render_prometheus()

    def test_trace_counts_are_deterministic_across_runs(self):
        a, b = Tracer(), Tracer()
        _availability(tracer=a)
        _availability(tracer=b)
        assert a.counts() == b.counts()
        assert a.emitted == b.emitted


class TestRunnerMetricsMerge:
    """Worker-side metrics merge: deterministic, and invisible to results."""

    @staticmethod
    def _deterministic(registry):
        # timed() histograms hold wall-clock observations, which honestly
        # differ between runs; everything else must merge exactly.
        return {
            name: family
            for name, family in registry.snapshot().items()
            if not name.endswith("_seconds")
        }

    def test_results_unchanged_by_metrics_attachment(self):
        bare = random_load_arm("omega", N_PORTS, trials=8, seed=42)
        metered = random_load_arm(
            "omega", N_PORTS, trials=8, seed=42, metrics=MetricsRegistry()
        )
        assert metered == bare

    def test_serial_and_parallel_merge_identically(self):
        serial_reg, pool_reg = MetricsRegistry(), MetricsRegistry()
        serial = search_trials(
            "extra-stage-cube", N_PORTS, trials=12, pool_size=16, seed=3,
            metrics=serial_reg,
        )
        pooled = search_trials(
            "extra-stage-cube", N_PORTS, trials=12, pool_size=16, seed=3,
            workers=2, chunk_size=3, metrics=pool_reg,
        )
        assert pooled == serial
        assert self._deterministic(pool_reg) == self._deterministic(serial_reg)
        assert serial_reg.counter("repro_trials_total").value(kind="search") == 12

    def test_timed_kernel_observations_survive_the_pool(self):
        # timed() records inside worker *processes*; the chunk reducer
        # must ship those histograms back.  Each F1 trial routes its set
        # in one `route_batch` call, so that histogram holds exactly one
        # observation per trial.
        pool_reg = MetricsRegistry()
        random_load_arm(
            "indirect-binary-cube", N_PORTS, trials=6, seed=9,
            workers=2, chunk_size=2, metrics=pool_reg,
        )
        name = "repro_route_batch_seconds"
        assert name in pool_reg
        assert pool_reg.histogram(name).count() == 6
