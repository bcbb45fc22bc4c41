"""The serve-layer attachment of the buffered-switch model.

:class:`DeliveryModel` is the ``capacity_model="buffered"`` engine
behind :class:`~repro.serve.service.FabricService`: once per service
tick it simulates delivery over the *currently live* routes — a fresh
:class:`~repro.perfmodel.model.CycleSim` per tick, ``cycles_per_tick``
fabric cycles, ``packets_per_tick`` packets offered per live session —
and folds the results into cross-tick aggregates (flit totals, stall
causes, a merged latency histogram).

It is an **observation overlay**, not an admission input: the service's
admission decisions, RNG draws, session lifecycle and every existing
metric stay byte-identical whether the model is attached or not (the
abstract capacity model — the admission ledger's dilation bound — keeps
making the decisions either way).  What the overlay adds is the answer
to "what would a concrete L-lane buffered fabric have delivered for the
load we admitted?", per tick, against live faults and churn.

A fresh sim per tick means queue state does not carry across ticks —
each tick measures the steady push of ``packets_per_tick`` through the
current route set from idle, which keeps the model independent of tick
history (and therefore byte-stable under replay/resume).  The
cross-tick aggregates are where sustained trends show up.  A sim is
cheap to build: it keeps one owner slot per lane and per-level wave
counters, never per-lane queue objects, and the tick reads its peak
lane occupancy straight off those counters.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.core.routing import Route
from repro.perfmodel.model import STALL_CAUSES, CycleSim, PerfModelConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["DeliveryModel", "CAPACITY_MODELS"]

#: Valid ``capacity_model=`` spellings on the serving layer.
CAPACITY_MODELS = ("abstract", "buffered")


def validate_capacity_model(value: str) -> str:
    """Normalize and validate a ``capacity_model=`` argument."""
    if value not in CAPACITY_MODELS:
        raise ValueError(
            f"capacity_model must be one of {CAPACITY_MODELS}, got {value!r}"
        )
    return value


class DeliveryModel:
    """Cross-tick aggregator driving one :class:`CycleSim` per tick."""

    def __init__(
        self,
        config: "PerfModelConfig | None" = None,
        *,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.config = config or PerfModelConfig()
        self._metrics = metrics
        self.ticks = 0
        self.idle_ticks = 0  # ticks with no live routes to simulate
        self.offered_packets = 0
        self.delivered_packets = 0
        self.offered_flits = 0
        self.delivered_flits = 0
        self.undelivered_packets = 0  # left pending at tick horizons
        self.stalls = dict.fromkeys(STALL_CAUSES, 0)
        self.peak_lane_occupancy = 0
        self._latency = CycleSim._make_histogram()

    def on_tick(self, routes: Sequence[Route]) -> None:
        """Simulate one service tick over the live ``routes`` and fold it
        into the cross-tick aggregates (an idle tick — no live sessions —
        only counts)."""
        self.ticks += 1
        routes = [r for r in routes if r is not None]
        if not routes:
            self.idle_ticks += 1
            return
        cfg = self.config
        sim = CycleSim(routes, cfg, metrics=self._metrics)
        for cid in sim.conference_ids:
            sim.inject(cid, cfg.packets_per_tick)
        sim.run(cfg.cycles_per_tick)
        sim.observe_metrics()
        self.offered_packets += sim.offered_packets
        self.delivered_packets += sim.delivered_packets
        self.offered_flits += sim.offered_flits
        self.delivered_flits += sim.delivered_flits
        self.undelivered_packets += sim.pending_packets
        for cause, count in sim.stalls.items():
            self.stalls[cause] += count
        peak = sim.peak_lane_occupancy
        if peak > self.peak_lane_occupancy:
            self.peak_lane_occupancy = peak
        self._latency.merge(sim.latency_histogram.snapshot())

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered packets across all ticks (1.0 when idle)."""
        return (
            self.delivered_packets / self.offered_packets
            if self.offered_packets
            else 1.0
        )

    def latency_percentiles(self) -> "dict[str, float | None]":
        """Cross-tick packet-latency p50/p95/p99 in cycles."""
        return self._latency.percentiles()

    def summary(self) -> dict[str, Any]:
        """The ``"delivery"`` block buffered-mode bench reports carry."""
        return {
            "capacity_model": "buffered",
            "config": self.config.as_dict(),
            "ticks": self.ticks,
            "idle_ticks": self.idle_ticks,
            "offered_packets": self.offered_packets,
            "delivered_packets": self.delivered_packets,
            "undelivered_packets": self.undelivered_packets,
            "delivery_ratio": self.delivery_ratio,
            "offered_flits": self.offered_flits,
            "delivered_flits": self.delivered_flits,
            "latency": self.latency_percentiles(),
            "stalls": dict(self.stalls),
            "peak_lane_occupancy": self.peak_lane_occupancy,
        }

    def merge_summary(self, other: dict[str, Any]) -> None:
        """Fold a shard's :meth:`summary` into this aggregate.

        The cluster layer keeps one :class:`DeliveryModel` per shard and
        merges their summaries into a cluster-wide delivery block; counts
        add, percentiles cannot be merged from summaries and are taken
        from the per-shard histograms via :meth:`merge_histogram`.
        """
        self.ticks += other["ticks"]
        self.idle_ticks += other["idle_ticks"]
        self.offered_packets += other["offered_packets"]
        self.delivered_packets += other["delivered_packets"]
        self.undelivered_packets += other["undelivered_packets"]
        self.offered_flits += other["offered_flits"]
        self.delivered_flits += other["delivered_flits"]
        for cause, count in other["stalls"].items():
            self.stalls[cause] = self.stalls.get(cause, 0) + count
        if other["peak_lane_occupancy"] > self.peak_lane_occupancy:
            self.peak_lane_occupancy = other["peak_lane_occupancy"]

    def merge_histogram(self, other: "DeliveryModel") -> None:
        """Fold another model's latency histogram into this one
        (commutative, order-independent across shards)."""
        self._latency.merge(other._latency.snapshot())
