"""Bounded admission queueing with load-shedding policies.

The service never lets its backlog grow without bound: data-plane
requests (``open``/``join``) wait in a bounded queue and, once it is
full, a :class:`ShedPolicy` decides who pays:

* ``reject-newest`` — classic tail drop: the arriving request bounces.
* ``shed-largest`` — the queued request touching the most ports is
  evicted to make room (a large conference costs the most links and
  blocks the most later arrivals; shedding it frees the most capacity
  per victim).  When the arrival itself is the largest, it bounces.
* ``priority`` — lanes drain highest-:class:`~repro.serve.protocol.Priority`
  first, and a full queue evicts the newest request of the lowest lane
  strictly below the arrival's priority (never an equal or higher one).

Control-plane requests (``leave``/``close``) bypass the bound entirely:
they only release fabric resources, and dropping a close would leak the
very capacity the queue is starved for.  Their backlog is naturally
bounded by the number of live sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice

from repro.serve.protocol import Priority, RequestKind, SessionRequest

__all__ = ["ShedPolicy", "QueueStats", "AdmissionQueue"]


class ShedPolicy(str, Enum):
    """What happens to data-plane arrivals once the queue is full."""

    REJECT_NEWEST = "reject-newest"
    SHED_LARGEST = "shed-largest"
    PRIORITY = "priority"


@dataclass
class QueueStats:
    """Arrival accounting of one :class:`AdmissionQueue`."""

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    peak_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        """A plain-dict view for reports."""
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "peak_depth": self.peak_depth,
        }


class AdmissionQueue:
    """A bounded, policy-governed queue of session requests.

    ``capacity`` bounds the *data-plane* backlog (open/join); the
    control lane (leave/close) is exempt.  ``take`` drains the control
    lane first — releases make room for the admissions that follow in
    the same batch — then data requests, highest priority lane first,
    FIFO within a lane.
    """

    def __init__(self, capacity: int = 1024, policy: "ShedPolicy | str" = ShedPolicy.REJECT_NEWEST):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._policy = ShedPolicy(policy)
        self._lanes: dict[Priority, deque[SessionRequest]] = {
            p: deque() for p in sorted(Priority, reverse=True)
        }
        self._control: deque[SessionRequest] = deque()
        self.stats = QueueStats()

    # -- introspection -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum queued data-plane requests."""
        return self._capacity

    @property
    def policy(self) -> ShedPolicy:
        """The load-shedding policy in force."""
        return self._policy

    @property
    def depth(self) -> int:
        """Data-plane requests currently waiting."""
        return sum(len(lane) for lane in self._lanes.values())

    @property
    def control_depth(self) -> int:
        """Control-plane (leave/close) requests currently waiting."""
        return len(self._control)

    def __len__(self) -> int:
        return self.depth + self.control_depth

    # -- arrivals ----------------------------------------------------------

    def offer(self, request: SessionRequest) -> "tuple[bool, list[SessionRequest]]":
        """Enqueue one request.

        Returns ``(accepted, shed)``: whether *this* request got a slot,
        and any already-queued victims the policy evicted to make room
        (the service answers those with ``status="shed"``).
        """
        self.stats.offered += 1
        if request.kind in RequestKind.CONTROL:
            self._control.append(request)
            self.stats.accepted += 1
            return True, []
        shed: list[SessionRequest] = []
        if self.depth >= self._capacity:
            victim = self._pick_victim(request)
            if victim is None:
                self.stats.rejected += 1
                return False, []
            self._lanes[victim.priority].remove(victim)
            self.stats.shed += 1
            shed.append(victim)
        self._lanes[request.priority].append(request)
        self.stats.accepted += 1
        self.stats.peak_depth = max(self.stats.peak_depth, self.depth)
        return True, shed

    def _pick_victim(self, arrival: SessionRequest) -> "SessionRequest | None":
        """The queued request the policy evicts for ``arrival`` (or None)."""
        if self._policy is ShedPolicy.REJECT_NEWEST:
            return None
        if self._policy is ShedPolicy.SHED_LARGEST:
            queued = [r for lane in self._lanes.values() for r in lane]
            largest = max(queued, key=lambda r: (r.size, r.request_id))
            return largest if largest.size > arrival.size else None
        # ShedPolicy.PRIORITY: newest request of the lowest lane strictly
        # below the arrival's priority.
        for priority in sorted(Priority):
            if priority >= arrival.priority:
                break
            if self._lanes[priority]:
                return self._lanes[priority][-1]
        return None

    # -- draining ----------------------------------------------------------

    def take(self, limit: int) -> list[SessionRequest]:
        """Pop up to ``limit`` requests in service order.

        Control first (releases fund the admissions behind them), then
        data lanes from highest priority down, FIFO within a lane.
        """
        if limit < 1:
            return []
        batch: list[SessionRequest] = []
        while self._control and len(batch) < limit:
            batch.append(self._control.popleft())
        for lane in self._lanes.values():  # constructed highest-first
            while lane and len(batch) < limit:
                batch.append(lane.popleft())
        return batch

    def peek(self, limit: int) -> list[SessionRequest]:
        """What :meth:`take` would pop for ``limit``, in the same order,
        leaving the queue untouched."""
        if limit < 1:
            return []
        return list(islice(chain(self._control, *self._lanes.values()), limit))

    def drain_all(self) -> list[SessionRequest]:
        """Empty the queue completely (used at shutdown)."""
        out = self.take(len(self))
        assert not len(self)
        return out
