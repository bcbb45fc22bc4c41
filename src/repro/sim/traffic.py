"""Stochastic conference traffic model.

Conference calls arrive as a Poisson process; each call requests a
random member set (size from a shifted-Poisson distribution, members
either uniformly random over free ports or buddy-aligned) and, if
admitted, holds for an exponential time before leaving.  This is the
classical teletraffic model specialized to conference switching, and the
workload of the blocking-probability experiment (F3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.admission import AdmissionController, AdmissionDenied, BuddyAllocator
from repro.core.conference import Conference
from repro.sim.engine import EventLoop
from repro.sim.metrics import TrafficStats
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.validation import check_positive

__all__ = ["TrafficConfig", "ConferenceTrafficSource", "ResilientTrafficSource"]


@dataclass(frozen=True)
class TrafficConfig:
    """Parameters of the stochastic conference workload.

    ``arrival_rate`` is calls per unit time; ``mean_holding`` the mean
    call duration; sizes are ``min_size + Poisson(mean_size -
    min_size)``.  ``placement`` selects arbitrary (``"uniform"``) or
    Yang-2001 (``"aligned"``) member assignment.
    """

    arrival_rate: float = 1.0
    mean_holding: float = 10.0
    mean_size: float = 4.0
    min_size: int = 2
    max_size: "int | None" = None
    placement: str = "uniform"

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.mean_holding, "mean_holding")
        if self.min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {self.min_size}")
        if self.mean_size < self.min_size:
            raise ValueError("mean_size must be >= min_size")
        if self.placement not in ("uniform", "aligned"):
            raise ValueError(f"placement must be 'uniform' or 'aligned', got {self.placement!r}")

    @property
    def offered_erlangs(self) -> float:
        """Offered load in erlangs (arrival rate x holding time)."""
        return self.arrival_rate * self.mean_holding


@dataclass
class _LiveCall:
    conference: Conference
    block_base: "int | None" = None  # aligned placement bookkeeping


class ConferenceTrafficSource:
    """Drives an :class:`AdmissionController` with stochastic call traffic.

    Attach to an event loop with :meth:`start`; statistics accumulate in
    :attr:`stats`.  Port selection and admission interact: a call whose
    member request cannot even find free ports counts as blocked with
    reason ``"ports"``, matching how a real conference bridge would
    refuse the dial-in.
    """

    def __init__(
        self,
        controller: AdmissionController,
        config: TrafficConfig,
        seed: "int | np.random.Generator | None" = None,
    ):
        self._controller = controller
        self._config = config
        self._rng = ensure_rng(seed)
        self._stats = TrafficStats()
        self._live: dict[int, _LiveCall] = {}
        self._next_id = 0
        self._free_ports = set(range(controller.network.n_ports))
        self._buddy = (
            BuddyAllocator(controller.network.n_ports)
            if config.placement == "aligned"
            else None
        )

    @property
    def stats(self) -> TrafficStats:
        """Accumulated counters (live view)."""
        return self._stats

    # -- event-loop wiring -------------------------------------------------

    def start(self, loop: EventLoop) -> None:
        """Schedule the first arrival."""
        loop.schedule(self._interarrival(), self._arrival)

    def _interarrival(self) -> float:
        return float(self._rng.exponential(1.0 / self._config.arrival_rate))

    def _holding(self) -> float:
        return float(self._rng.exponential(self._config.mean_holding))

    def _draw_size(self) -> int:
        cfg = self._config
        s = cfg.min_size + int(self._rng.poisson(cfg.mean_size - cfg.min_size))
        if cfg.max_size is not None:
            s = min(s, cfg.max_size)
        return s

    def _arrival(self, loop: EventLoop) -> None:
        self._stats.offered += 1
        size = self._draw_size()
        call = self._admit(size)
        if call is not None:
            cid = call.conference.conference_id
            self._live[cid] = call
            self._stats.admitted += 1
            self._stats.admitted_members += size
            loop.schedule(self._holding(), lambda lp, cid=cid: self._departure(lp, cid))
        self._stats.observe_occupancy(loop.now, len(self._live))
        loop.schedule(self._interarrival(), self._arrival)

    def _departure(self, loop: EventLoop, cid: int) -> None:
        call = self._live.pop(cid)
        self._controller.leave(cid)
        self._free_ports.update(call.conference.members)
        if self._buddy is not None and call.block_base is not None:
            self._buddy.release(call.block_base)
        self._stats.completed += 1
        self._stats.observe_occupancy(loop.now, len(self._live))

    # -- admission ----------------------------------------------------------

    def _admit(self, size: int) -> "_LiveCall | None":
        members, block_base = self._pick_members(size)
        if members is None:
            self._stats.block("ports")
            return None
        conference = Conference.of(members, conference_id=self._next_id)
        try:
            self._controller.try_join(conference)
        except AdmissionDenied as denial:
            if self._buddy is not None and block_base is not None:
                self._buddy.release(block_base)
            self._stats.block(denial.reason)
            return None
        self._next_id += 1
        self._free_ports.difference_update(members)
        return _LiveCall(conference=conference, block_base=block_base)

    def _pick_members(self, size: int) -> "tuple[list[int] | None, int | None]":
        if self._buddy is not None:
            try:
                block = self._buddy.allocate(size)
            except MemoryError:
                return None, None
            return list(block)[:size], block.start
        if len(self._free_ports) < size:
            return None, None
        chosen = self._rng.choice(sorted(self._free_ports), size=size, replace=False)
        return [int(p) for p in chosen], None


class ResilientTrafficSource(ConferenceTrafficSource):
    """Traffic source wired to a self-healing controller.

    The ``controller`` must be a
    :class:`~repro.core.healing.SelfHealingController`; admissions go
    through its retry queue, and its drop/restore/lost hooks keep this
    source's port pool and departure schedule consistent with healing
    decisions:

    * a call the healer **drops** releases its ports immediately (they
      may be snapped up by new arrivals — the redial then contends like
      anyone else) and opens its outage window;
    * a **restored** call resumes for the *remainder* of its original
      holding time;
    * a blocked arrival is only counted against the blocked table when
      its retry budget is exhausted (reason ``"retry-exhausted"``) or
      retries are disabled.

    Placement must be ``"uniform"``: buddy-aligned blocks cannot be
    meaningfully re-acquired by a redial after strangers took part of
    the block.

    The arrival process (interarrival times, requested sizes) runs on
    its own spawned RNG stream, so two runs differing only in retry or
    relay policy face the byte-identical offered-call sequence — the
    common-random-numbers discipline the ablation experiments rely on.
    """

    def __init__(self, controller, config: TrafficConfig, seed=None):
        if config.placement != "uniform":
            raise ValueError("ResilientTrafficSource requires uniform placement")
        arrival_rng, body_rng = spawn_rngs(seed, 2)
        super().__init__(controller, config, seed=body_rng)
        self._arrival_rng = arrival_rng
        self._healing = controller
        self._end_time: dict[int, float] = {}
        self._epoch: dict[int, int] = {}
        controller.on_drop = self._on_drop
        controller.on_restore = self._on_restore
        controller.on_lost = self._on_restore_lost

    # -- arrivals through the retry queue ----------------------------------

    def _interarrival(self) -> float:
        return float(self._arrival_rng.exponential(1.0 / self._config.arrival_rate))

    def _draw_size(self) -> int:
        cfg = self._config
        s = cfg.min_size + int(self._arrival_rng.poisson(cfg.mean_size - cfg.min_size))
        if cfg.max_size is not None:
            s = min(s, cfg.max_size)
        return s

    def _arrival(self, loop: EventLoop) -> None:
        self._stats.offered += 1
        size = self._draw_size()
        members, _ = self._pick_members(size)
        if members is None:
            self._stats.block("ports")
        else:
            conference = Conference.of(members, conference_id=self._next_id)
            self._next_id += 1
            self._healing.submit(
                loop, conference, on_admitted=self._on_admitted, on_lost=self._on_arrival_lost
            )
        self._stats.observe_occupancy(loop.now, len(self._live))
        loop.schedule(self._interarrival(), self._arrival)

    def _on_admitted(self, loop: EventLoop, route) -> None:
        conference = route.conference
        cid = conference.conference_id
        holding = self._holding()
        self._live[cid] = _LiveCall(conference=conference)
        self._end_time[cid] = loop.now + holding
        self._free_ports.difference_update(conference.members)
        self._stats.admitted += 1
        self._stats.admitted_members += len(conference.members)
        self._schedule_departure(loop, cid, holding)
        self._stats.observe_occupancy(loop.now, len(self._live))

    def _on_arrival_lost(self, loop: EventLoop, conference: Conference, reason: str) -> None:
        self._stats.block(reason)

    # -- departures with cancellation --------------------------------------

    def _schedule_departure(self, loop: EventLoop, cid: int, delay: float) -> None:
        epoch = self._epoch.get(cid, 0) + 1
        self._epoch[cid] = epoch
        loop.schedule(delay, lambda lp: self._checked_departure(lp, cid, epoch))

    def _checked_departure(self, loop: EventLoop, cid: int, epoch: int) -> None:
        if self._epoch.get(cid) != epoch or cid not in self._live:
            return  # the call was dropped (and possibly restored) meanwhile
        call = self._live.pop(cid)
        self._healing.leave(cid, now=loop.now)
        self._free_ports.update(call.conference.members)
        self._end_time.pop(cid, None)
        self._epoch.pop(cid, None)
        self._stats.completed += 1
        self._stats.observe_occupancy(loop.now, len(self._live))

    # -- healing hooks ------------------------------------------------------

    def _on_drop(self, loop: EventLoop, conference: Conference) -> None:
        cid = conference.conference_id
        if self._live.pop(cid, None) is None:
            return
        self._epoch[cid] = self._epoch.get(cid, 0) + 1  # cancel the departure
        self._free_ports.update(conference.members)
        deadline = self._end_time.get(cid, loop.now)
        self._healing.stats.open_outage(cid, loop.now, deadline)
        self._stats.observe_occupancy(loop.now, len(self._live))

    def _on_restore(self, loop: EventLoop, route) -> None:
        conference = route.conference
        cid = conference.conference_id
        remaining = self._end_time.get(cid, loop.now) - loop.now
        if remaining <= 0:
            # The call's natural end passed while it was down.
            self._healing.leave(cid, now=loop.now)
            self._end_time.pop(cid, None)
            self._epoch.pop(cid, None)
            self._stats.completed += 1
            return
        self._live[cid] = _LiveCall(conference=conference)
        self._free_ports.difference_update(conference.members)
        self._schedule_departure(loop, cid, remaining)
        self._stats.observe_occupancy(loop.now, len(self._live))

    def _on_restore_lost(self, loop: EventLoop, conference: Conference, reason: str) -> None:
        cid = conference.conference_id
        self._end_time.pop(cid, None)
        self._epoch.pop(cid, None)
