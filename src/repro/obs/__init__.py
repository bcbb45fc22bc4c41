"""Observability: tracing, metrics, SLOs, flight recording, exposition.

Everything in this package is zero-dependency, off by default, and
**bit-transparent**: attaching a :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, an
:class:`~repro.obs.slo.SLOEvaluator` or a
:class:`~repro.obs.flight.FlightRecorder` to any component changes no
routing or admission decision and touches no RNG stream — the
transparency suite under ``tests/obs`` holds instrumented and plain
runs byte-equal.

Entry points:

* :class:`Tracer` — ring-buffered span/event records with simulation
  and wall clocks, exported as JSON Lines (``conference-net trace``,
  ``--trace-out``); supports taps and causal parent contexts.
* :class:`MetricsRegistry` — labelled counters/gauges/histograms with
  Prometheus text and JSON exposition plus a deterministic cross-process
  merge (``--metrics-out``; merged by the parallel runner).
* :class:`SLOEvaluator` / :class:`SLOSpec` — declarative objectives
  with error budgets, streaming windowed percentiles and multi-window
  burn-rate alert states (``--slo-out``, ``conference-net slo``).
* :class:`FlightRecorder` — a bounded ring of recent spans, events and
  metric deltas, frozen into a JSONL incident bundle on SLO breach or
  ``fault.fail`` (``--flight-out``).
* :class:`ExpositionServer` — a stdlib HTTP thread serving
  ``/metrics``, ``/healthz`` and ``/slo`` for a live fabric
  (``--listen``).
* :func:`timed` — context manager / decorator feeding ``*_seconds``
  histograms; installed on the hot routing paths and enabled per
  process via :func:`collecting`.
"""

from repro.obs.export import ExpositionServer
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_OCCUPANCY_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting,
    maybe_registry,
    timed,
)
from repro.obs.slo import (
    BurnWindow,
    SLOEvaluator,
    SLOSpec,
    WindowedHistogram,
    default_serve_slos,
    log_bucket_edges,
)
from repro.obs.trace import Tracer

__all__ = [
    "BurnWindow",
    "Counter",
    "DEFAULT_OCCUPANCY_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "ExpositionServer",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOEvaluator",
    "SLOSpec",
    "Tracer",
    "WindowedHistogram",
    "collecting",
    "default_serve_slos",
    "log_bucket_edges",
    "maybe_registry",
    "timed",
]
