"""Per-tick batching of queued session requests.

Admitting requests one at a time pays the full routing overhead —
fault-set snapshot, route computation, ledger bookkeeping — per
request.  The service instead accumulates arrivals between ticks and
admits each tick's backlog in **one pass**: the batch is drained from
the queue in service order (control first, then priority lanes), its
opens are routed together by one
:meth:`~repro.core.healing.SelfHealingController.prime_batch` kernel
call under a single fault-set snapshot, and the requests are executed
back to back and answered together.  One
pass per tick amortizes the fixed cost across the whole batch and keeps
admission decisions deterministic — batch composition depends only on
what was queued when the tick fired, never on wall-clock races.

Under a :class:`~repro.cluster.controller.ClusterService` the routing
moves one level up: before any shard ticks, the cluster peeks every
live shard's queue (:meth:`~repro.serve.backpressure.AdmissionQueue.peek`
returns exactly what the batch's ``take`` will), routes all of their
opens and first resizes in one kernel call per group of equally wired
shards, and parks each outcome in its shard's primed store under
``(conference, fault set)``.  The shard's own prime then keeps those
hits and routes only its misses — requests queued after the peek, and
conferences whose shard's fault set changed in between.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.serve.backpressure import AdmissionQueue
from repro.serve.protocol import RequestKind, ServiceResponse, SessionRequest

__all__ = ["BatchReport", "Batcher"]


@dataclass
class BatchReport:
    """What one admission pass did."""

    seq: int
    time: float
    size: int
    outcomes: "Counter[str]" = field(default_factory=Counter)
    latencies: list[float] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Requests that ended in a successful status this pass."""
        return self.outcomes["admitted"] + self.outcomes["applied"] + self.outcomes["closed"]

    def as_dict(self) -> dict:
        """A JSON-ready view of the pass."""
        return {
            "seq": self.seq,
            "time": self.time,
            "size": self.size,
            "outcomes": dict(sorted(self.outcomes.items())),
            "mean_latency": (
                sum(self.latencies) / len(self.latencies) if self.latencies else 0.0
            ),
        }


class Batcher:
    """Drains the queue into bounded batches and runs the admission pass."""

    def __init__(self, *, max_batch: int = 64):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._max_batch = max_batch
        self._seq = 0

    @property
    def max_batch(self) -> int:
        """Upper bound on requests admitted per tick."""
        return self._max_batch

    @property
    def batches_run(self) -> int:
        """Admission passes executed so far."""
        return self._seq

    def next_batch(self, queue: AdmissionQueue) -> list[SessionRequest]:
        """This tick's workload, in service order (may be empty)."""
        return queue.take(self._max_batch)

    @staticmethod
    def open_requests(batch: list[SessionRequest]) -> list[SessionRequest]:
        """The OPEN requests of one batch, in service order.

        This is the prefetch set of the admission pass: every one of
        these will ask the routing engine for a route, so the service
        primes them through the columnar kernel in one
        ``route_batch`` call before :meth:`execute` replays the
        per-request decisions.
        """
        return [request for request in batch if request.kind == RequestKind.OPEN]

    def execute(
        self,
        batch: list[SessionRequest],
        handler: "Callable[[SessionRequest, int], ServiceResponse]",
        now: float,
    ) -> BatchReport:
        """Run one admission pass over ``batch``.

        ``handler`` maps each request (plus the batch sequence number)
        to its response; the report aggregates outcomes and latencies.
        """
        seq = self._seq
        self._seq += 1
        report = BatchReport(seq=seq, time=now, size=len(batch))
        for request in batch:
            response = handler(request, seq)
            report.outcomes[response.status] += 1
            report.latencies.append(response.latency)
        return report
