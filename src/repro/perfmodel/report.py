"""Summaries of a cycle-level delivery run (the ``PerfReport`` verdict).

A :class:`~repro.perfmodel.model.CycleSim` condenses into one
:class:`PerfReport` satisfying the library-wide :class:`repro.api.Result`
contract (``ok`` / ``reason`` / ``as_dict`` with a ``"kind"`` key), so
the CLI and benchmarks serialize it through the same
:func:`repro.report.serialize.result_to_dict` path as every other
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["PerfReport"]


@dataclass(frozen=True)
class PerfReport:
    """Delivered-performance summary of a buffered-switch simulation.

    Throughput figures are flit-conserving totals over the whole run;
    ``latency`` holds aggregate packet p50/p95/p99 in cycles (offer to
    last-flit drain), ``per_conference`` the same per conference plus
    offered/delivered packet counts.  ``stalls`` tallies blocked worm
    advances by cause (``lane_busy`` — wormhole serialization on a
    shared lane, ``buffer_full`` — backpressure, ``tdm_gate`` —
    off-slot cycles); ``lane_stall_busy``/``lane_stall_full`` are the
    finer per-lane tallies summed.  ``ok`` is the model's own sanity
    verdict: flits conserved and delivery monotone — load-induced
    congestion never makes a report not-ok, it just shows up in the
    numbers.
    """

    cycles: int
    config: dict[str, Any]
    n_conferences: int
    n_links: int
    n_slots: int
    offered_packets: int
    delivered_packets: int
    offered_flits: int
    injected_flits: int
    delivered_flits: int
    in_fabric_flits: int
    latency: "dict[str, float | None]" = field(default_factory=dict)
    per_conference: dict[int, dict[str, Any]] = field(default_factory=dict)
    stalls: dict[str, int] = field(default_factory=dict)
    lane_stall_busy: int = 0
    lane_stall_full: int = 0
    peak_lane_occupancy: int = 0
    conserved: bool = True

    @property
    def ok(self) -> bool:
        """Model self-consistency: conservation held, counts monotone."""
        return self.conserved and self.delivered_flits <= self.injected_flits <= self.offered_flits

    @property
    def reason(self) -> "str | None":
        """Why the model verdict failed (``None`` when ok)."""
        if not self.conserved:
            return "flit conservation violated"
        if not self.delivered_flits <= self.injected_flits <= self.offered_flits:
            return (
                f"non-monotone flit counts: offered {self.offered_flits}, "
                f"injected {self.injected_flits}, delivered {self.delivered_flits}"
            )
        return None

    @property
    def delivered_throughput(self) -> float:
        """Delivered packets per cycle, across all conferences."""
        return self.delivered_packets / self.cycles if self.cycles else 0.0

    @property
    def delivery_ratio(self) -> float:
        """Delivered / offered packets (1.0 on an empty offer)."""
        return (
            self.delivered_packets / self.offered_packets
            if self.offered_packets
            else 1.0
        )

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the shared result-serializer contract)."""
        return {
            "kind": "perf_report",
            "ok": self.ok,
            "reason": self.reason,
            "cycles": self.cycles,
            "config": dict(self.config),
            "n_conferences": self.n_conferences,
            "n_links": self.n_links,
            "n_slots": self.n_slots,
            "offered_packets": self.offered_packets,
            "delivered_packets": self.delivered_packets,
            "offered_flits": self.offered_flits,
            "injected_flits": self.injected_flits,
            "delivered_flits": self.delivered_flits,
            "in_fabric_flits": self.in_fabric_flits,
            "delivered_throughput": self.delivered_throughput,
            "offered_throughput": self.offered_packets / self.cycles if self.cycles else 0.0,
            "delivery_ratio": self.delivery_ratio,
            "latency": dict(self.latency),
            "per_conference": {
                str(cid): {
                    "offered": entry["offered"],
                    "delivered": entry["delivered"],
                    "latency": dict(entry["latency"]),
                }
                for cid, entry in self.per_conference.items()
            },
            "stalls": dict(self.stalls),
            "lane_stall_busy": self.lane_stall_busy,
            "lane_stall_full": self.lane_stall_full,
            "peak_lane_occupancy": self.peak_lane_occupancy,
        }
