"""A minimal, deterministic discrete-event simulation engine.

Events are (time, sequence, action) triples on a heap; ties in time are
broken by insertion order, so runs are exactly reproducible for a given
seed.  The engine is deliberately generic — the conference traffic model
in ``repro.sim.traffic`` schedules arrival and departure events on it —
and supports stopping either at a horizon or after an event budget.

An optional :class:`~repro.obs.trace.Tracer` (duck-typed; any object
with an ``event`` method) can be attached to observe the loop itself:
every ``schedule`` emits a ``loop.schedule`` event and every executed
event a ``loop.fire`` event.  Tracing is pure observation — the heap
order, the clock, and every action are identical with and without it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.trace import Tracer

__all__ = ["Event", "EventLoop"]

Action = Callable[["EventLoop"], None]


@dataclass(order=True)
class Event:
    """One scheduled action.  Ordering is (time, seq) so FIFO among ties."""

    time: float
    seq: int
    action: Action = field(compare=False)


class EventLoop:
    """The simulation clock and pending-event heap."""

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._running = False
        self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Events still scheduled."""
        return len(self._heap)

    def schedule(self, delay: float, action: Action) -> None:
        """Run ``action`` ``delay`` time units from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, Event(self._now + delay, self._seq, action))
        if self.tracer is not None:
            self.tracer.event(
                "loop.schedule", t=self._now, at=self._now + delay, ev=self._seq
            )
        self._seq += 1

    def schedule_at(self, time: float, action: Action) -> None:
        """Run ``action`` at absolute simulation time ``time``."""
        self.schedule(time - self._now, action)

    def run(self, until: "float | None" = None, max_events: "int | None" = None) -> None:
        """Drain events until the horizon, the budget, or an empty heap.

        Events scheduled exactly at the horizon still run; later ones
        stay pending so the loop can be resumed.  When a horizon is
        given, the clock always ends at it (unless the event budget
        stopped the loop with work still pending) — time-weighted
        statistics must account for an idle tail after the last event.
        """
        if self._running:
            raise RuntimeError("event loop is already running (re-entrant run())")
        self._running = True
        try:
            while self._heap:
                if max_events is not None and self._processed >= max_events:
                    break
                if until is not None and self._heap[0].time > until:
                    break
                ev = heapq.heappop(self._heap)
                self._now = ev.time
                self._processed += 1
                if self.tracer is not None:
                    self.tracer.event("loop.fire", t=ev.time, ev=ev.seq)
                ev.action(self)
        finally:
            self._running = False
        if until is not None and until > self._now and not (
            max_events is not None and self._processed >= max_events and self._heap
        ):
            self._now = until
