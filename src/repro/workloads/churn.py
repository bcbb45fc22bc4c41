"""Membership-churn timelines: generators and the service replay driver.

The static generators in :mod:`repro.workloads.generators` produce a
*snapshot* — a set of conferences to route once.  Churn workloads
produce a *timeline*: a sequence of :class:`ChurnEvent` values (open /
join / leave / close at integer ticks) that exercise the incremental
membership path (:mod:`repro.core.churn`) end to end through a running
service.

Shapes:

* ``flash_crowd`` — a venue conference floods with joins over a couple
  of ticks, then drains; the worst case for tap churn because the route
  repeatedly outgrows its enclosing block.
* ``zipf_sizes`` — heavy-tailed conference sizes (most conferences are
  tiny, a few are huge), the size mix the W1 benchmark churns over.

``replay_churn`` drives any session service exposing the submit/tick
protocol — :class:`repro.serve.FabricService` or the sharded
:class:`repro.cluster.ClusterService` — and returns one record per
event restricted to shard-invariant fields, so the same timeline
replayed at different shard counts must produce byte-identical records
(the churn-determinism CI gate).

Every generator allocates member ports from a single free pool, so the
conferences of one timeline are port-disjoint at every tick by
construction and admission never rejects on port clashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.rng import ensure_rng
from repro.util.validation import check_network_size

__all__ = [
    "ChurnEvent",
    "flash_crowd",
    "replay_churn",
    "zipf_sizes",
]

_KINDS = ("open", "join", "leave", "close")


@dataclass(frozen=True)
class ChurnEvent:
    """One timestamped membership operation in a churn timeline.

    ``session`` is the *workload-local* conference index (0, 1, ...);
    :func:`replay_churn` maps it to whatever session id the service
    assigns.  ``ports`` is the full member set for ``open``, the ports
    being added/removed for ``join``/``leave``, and empty for
    ``close``.
    """

    tick: int
    kind: str
    session: int
    ports: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown churn event kind {self.kind!r}; known: {_KINDS}")
        if self.tick < 0:
            raise ValueError(f"tick must be >= 0, got {self.tick}")
        if self.session < 0:
            raise ValueError(f"session index must be >= 0, got {self.session}")
        if self.kind == "open" and len(self.ports) < 2:
            raise ValueError("open events need at least 2 ports")
        if self.kind in ("join", "leave") and not self.ports:
            raise ValueError(f"{self.kind} events need at least one port")

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view of the event."""
        return {
            "tick": self.tick,
            "kind": self.kind,
            "session": self.session,
            "ports": list(self.ports),
        }


class _Timeline:
    """Internal builder: a port ledger plus the growing event list.

    Keeps every live conference port-disjoint and session membership
    consistent, so the emitted timeline is valid by construction.
    """

    def __init__(self, n_ports: int, rng: np.random.Generator) -> None:
        self.rng = rng
        self.free = list(range(n_ports))
        self.members: dict[int, list[int]] = {}
        self.events: list[ChurnEvent] = []
        self._next_session = 0

    def grab(self, count: int) -> "tuple[int, ...] | None":
        if count > len(self.free):
            return None
        idx = self.rng.choice(len(self.free), size=count, replace=False)
        chosen = tuple(sorted(self.free[int(i)] for i in idx))
        taken = set(chosen)
        self.free = [p for p in self.free if p not in taken]
        return chosen

    def open(self, tick: int, size: int) -> "int | None":
        ports = self.grab(size)
        if ports is None:
            return None
        session = self._next_session
        self._next_session += 1
        self.members[session] = list(ports)
        self.events.append(ChurnEvent(tick, "open", session, ports))
        return session

    def join(self, tick: int, session: int) -> "tuple[int, ...] | None":
        ports = self.grab(1)
        if ports is None:
            return None
        self.members[session].extend(ports)
        self.events.append(ChurnEvent(tick, "join", session, ports))
        return ports


def zipf_sizes(
    count: int,
    alpha: float = 1.8,
    min_size: int = 2,
    max_size: int = 32,
    seed: "int | np.random.Generator | None" = None,
) -> list[int]:
    """Heavy-tailed conference sizes: ``min_size - 1 + Zipf(alpha)``.

    Most draws land at ``min_size`` (the two-party call) while the tail
    produces the occasional large assembly, clamped to ``max_size``.
    Smaller ``alpha`` means a heavier tail.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if min_size < 2:
        raise ValueError(f"min_size must be >= 2, got {min_size}")
    if max_size < min_size:
        raise ValueError(f"max_size {max_size} below min_size {min_size}")
    if count == 0:
        return []
    rng = ensure_rng(seed)
    draws = rng.zipf(alpha, size=count)
    return [min(min_size - 1 + int(d), max_size) for d in draws]


def flash_crowd(
    n_ports: int,
    *,
    base_conferences: int = 3,
    base_size: int = 3,
    crowd: "int | None" = None,
    burst_start: int = 2,
    burst_ticks: int = 2,
    drain_after: int = 4,
    drain_per_tick: int = 4,
    seed: "int | np.random.Generator | None" = None,
) -> list[ChurnEvent]:
    """A venue conference floods with joins, then the crowd drains.

    Tick 0 opens the venue (2 members) plus ``base_conferences``
    bystander conferences; ``crowd`` single-port joins (default: a
    quarter of the network) hit the venue over ``burst_ticks`` ticks
    starting at ``burst_start``; ``drain_after`` ticks past the burst,
    the crowd leaves again at ``drain_per_tick`` per tick.  The repeated
    block-outgrowing joins make this the stress shape for tap movement
    and the fallback path.
    """
    check_network_size(n_ports)
    if burst_start < 2:
        raise ValueError(f"burst_start must be >= 2 (opens need to settle), got {burst_start}")
    if burst_ticks < 1:
        raise ValueError(f"burst_ticks must be >= 1, got {burst_ticks}")
    if drain_per_tick < 1:
        raise ValueError(f"drain_per_tick must be >= 1, got {drain_per_tick}")
    rng = ensure_rng(seed)
    timeline = _Timeline(n_ports, rng)
    venue = timeline.open(0, 2)
    for _ in range(base_conferences):
        timeline.open(0, base_size)
    if crowd is None:
        crowd = max(1, n_ports // 4)
    per_tick = math.ceil(crowd / burst_ticks)
    joined: list[int] = []
    for tick in range(burst_start, burst_start + burst_ticks):
        for _ in range(per_tick):
            if len(joined) >= crowd:
                break
            ports = timeline.join(tick, venue)
            if ports is None:
                break
            joined.extend(ports)
    drain_tick = burst_start + burst_ticks + drain_after
    while joined:
        batch, joined = joined[:drain_per_tick], joined[drain_per_tick:]
        for port in batch:
            timeline.members[venue].remove(port)
            timeline.free = sorted(set(timeline.free) | {port})
            timeline.events.append(ChurnEvent(drain_tick, "leave", venue, (port,)))
        drain_tick += 1
    return timeline.events


#: Detail keys that are identical across shard counts (the cluster adds
#: a ``shard`` key, and ids/latencies shift with sharding — stripped).
_INVARIANT_DETAIL = (
    "members",
    "links",
    "links_reconfigured",
    "hitless",
    "mode",
    "taps_moved",
    "drift_links",
)


def _record(index: int, event: ChurnEvent, response) -> dict[str, Any]:
    detail = {k: response.detail[k] for k in _INVARIANT_DETAIL if k in response.detail}
    record: dict[str, Any] = {
        "event": index,
        "tick": event.tick,
        "kind": event.kind,
        "session": event.session,
        "ports": list(event.ports),
        "ok": response.ok,
        "status": response.status,
        "reason": response.reason,
    }
    if detail:
        record["detail"] = detail
    return record


def replay_churn(service, events, *, settle_ticks: int = 64) -> list[dict[str, Any]]:
    """Drive a session service through a churn timeline, one tick at a time.

    ``service`` is anything exposing the submit/tick protocol —
    :class:`repro.serve.FabricService` or
    :class:`repro.cluster.ClusterService` (whose lockstep ``tick``
    advances every shard).  Events are submitted in timeline order
    (stable-sorted by tick), one ``tick()`` per virtual tick, then up to
    ``settle_ticks`` extra ticks drain the queues.

    Returns one record per event, in submission order, restricted to
    shard-invariant fields — replaying the same timeline at different
    shard counts must produce byte-identical records, which is what the
    churn-determinism CI gate diffs.  Raises ``RuntimeError`` if any
    event never completes within the settle budget.
    """
    events = sorted(events, key=lambda e: e.tick)  # stable: keeps intra-tick order
    records: "list[dict[str, Any] | None]" = [None] * len(events)
    if not events:
        return []
    session_ids: dict[int, int] = {}

    def completion(index: int, event: ChurnEvent):
        def callback(response) -> None:
            records[index] = _record(index, event, response)

        return callback

    cursor = 0
    for tick in range(events[-1].tick + 1):
        while cursor < len(events) and events[cursor].tick == tick:
            event = events[cursor]
            callback = completion(cursor, event)
            if event.kind == "open":
                session_ids[event.session] = service.submit_open(
                    event.ports, on_complete=callback
                )
            else:
                if event.session not in session_ids:
                    raise ValueError(
                        f"event {cursor}: {event.kind} on session {event.session} "
                        "before its open"
                    )
                sid = session_ids[event.session]
                if event.kind == "join":
                    service.submit_join(sid, event.ports, on_complete=callback)
                elif event.kind == "leave":
                    service.submit_leave(sid, event.ports, on_complete=callback)
                else:
                    service.submit_close(sid, on_complete=callback)
            cursor += 1
        service.tick()
    for _ in range(settle_ticks):
        if all(r is not None for r in records):
            break
        service.tick()
    pending = [i for i, r in enumerate(records) if r is None]
    if pending:
        raise RuntimeError(
            f"{len(pending)} churn events never completed within "
            f"{settle_ticks} settle ticks (first: event {pending[0]})"
        )
    return records  # type: ignore[return-value]
