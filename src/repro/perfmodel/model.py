"""Cycle-level buffered-switch performance model: wormhole lanes + queues.

The paper's conflict analysis bounds what a conference fabric *needs* —
a link shared by ``m`` conferences requires dilation (or a TDM frame) of
``m`` to carry them all at once.  This module measures what a concrete
*buffered* fabric **delivers**: every inter-stage link carries ``L``
lanes, each lane a bounded flit FIFO, and admitted conference routes
send *worms* — packets of ``F`` flits — through their multicast trees
under wormhole switching, one flit per lane per cycle, with
backpressure (:class:`CycleSim`).  The sim tracks each lane by its
owner worm alone; :class:`LinkModel` / :class:`LaneQueue` are the
per-link, per-lane view :attr:`CycleSim.links` builds for inspection.

The switching discipline mirrors multi-lane wormhole MINs (Stergiou):

* **Lane exclusivity** — a worm acquires the lane of every route link at
  a level atomically when its head first enters that level, and holds
  the lanes until its tail drains past; conferences mapped to the same
  lane of a shared link serialize, which is exactly where contention
  shows up as stall cycles.
* **Broadcast waves** — a conference's route is a tree; one flit at
  level ``t`` occupies a buffer slot in the assigned lane of *every*
  route link entering level ``t`` (fan-out replication and fan-in
  combining happen switch-internally, as in the paper's signal model),
  and the wave advances only when every level-``t+1`` lane has space.
* **Deadlock freedom by level ordering** — worms only wait for lanes at
  the level above their head while holding lanes at or below it, so the
  wait-for graph is ordered by level and can never cycle; the deepest
  worm can always deliver.  The property suite leans on this: a sim with
  pending work always makes progress within a bounded horizon.
* **TDM frames** — with ``tdm=True`` the slot colouring of
  :func:`repro.analysis.scheduling.schedule_slots` gates each
  conference: its worms advance only on cycles of its slot, and its lane
  index is derived from the slot colour.  This is the time-division
  alternative the scheduling ablation (bench_a4) prices statically,
  now measured dynamically.

Saturation arithmetic the benchmark checks: a lane serves one flit per
cycle, a packet holds its lane for ``F`` cycles, and a link shared by
``m`` conferences over ``L`` lanes serves each conference at
``L / (m * F)`` packets per cycle — delivered throughput must track the
offered load below that bound and plateau at it above, never before.

Everything is deterministic: worm order is global packet id (injection
order), lane arbitration is oldest-worm-first within a cycle, and no
randomness is drawn anywhere — two sims over the same routes and
injection sequence are byte-identical, which the test suite asserts.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.routing import Route
from repro.obs.slo import WindowedHistogram
from repro.perfmodel.report import PerfReport
from repro.topology.network import Point
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["PerfModelConfig", "LaneQueue", "LinkModel", "CycleSim", "simulate_delivery"]

#: Stall causes tallied per cycle; keys of ``CycleSim.stalls``.
STALL_CAUSES = ("lane_busy", "buffer_full", "tdm_gate")


@dataclass(frozen=True)
class PerfModelConfig:
    """Knobs of the buffered-switch model.

    ``lanes`` is the per-link lane count ``L`` (the *space* dilation a
    buffered fabric actually implements), ``buffer_depth`` the flit
    capacity of each lane FIFO, ``flits_per_packet`` the worm length
    ``F``.  ``tdm`` switches from space-division lanes to time-division
    frames driven by the conflict colouring.  ``cycles_per_tick`` and
    ``packets_per_tick`` only matter when the model is attached to the
    serve layer (see :mod:`repro.perfmodel.capacity`): each service tick
    runs that many fabric cycles and injects that many packets per live
    session.
    """

    lanes: int = 1
    buffer_depth: int = 4
    flits_per_packet: int = 4
    tdm: bool = False
    cycles_per_tick: int = 64
    packets_per_tick: int = 1

    def __post_init__(self) -> None:
        for name in ("lanes", "buffer_depth", "flits_per_packet", "cycles_per_tick"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.packets_per_tick, int) or self.packets_per_tick < 0:
            raise ValueError(
                f"packets_per_tick must be a non-negative integer, "
                f"got {self.packets_per_tick!r}"
            )

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view for reports and benchmarks."""
        return {
            "lanes": self.lanes,
            "buffer_depth": self.buffer_depth,
            "flits_per_packet": self.flits_per_packet,
            "tdm": self.tdm,
            "cycles_per_tick": self.cycles_per_tick,
            "packets_per_tick": self.packets_per_tick,
        }


class LaneQueue:
    """One bounded flit FIFO of one lane of one inter-stage link.

    Wormhole switching keeps a lane exclusive to the worm currently
    crossing it, so the queue state is the owning worm plus a flit
    count bounded by ``depth``; the FIFO order within the lane is the
    worm's own flit order.  Counters (``pushes``, ``pops``,
    ``peak_occupancy``, ``stall_busy``, ``stall_full``) are the raw
    material of the queue-occupancy and stall telemetry.

    :attr:`CycleSim.links` fills these in as a snapshot of the sim's
    lane state (its ``_pushed_cycle`` bandwidth guard stays unset: a
    snapshot is taken between cycles, where the guard never fires);
    the methods are the push/pop contract the sim's bookkeeping obeys.
    """

    __slots__ = (
        "lane",
        "depth",
        "owner",
        "occupancy",
        "pushes",
        "pops",
        "peak_occupancy",
        "stall_busy",
        "stall_full",
        "_pushed_cycle",
    )

    def __init__(self, lane: int, depth: int):
        check_positive(depth, "depth")
        self.lane = lane
        self.depth = depth
        self.owner: "int | None" = None  # packet id of the worm holding the lane
        self.occupancy = 0
        self.pushes = 0
        self.pops = 0
        self.peak_occupancy = 0
        self.stall_busy = 0
        self.stall_full = 0
        self._pushed_cycle = -1  # lane bandwidth: one flit accepted per cycle

    def can_accept(self, pid: int, cycle: int) -> bool:
        """Would a push by worm ``pid`` succeed this cycle?  Tallies the
        stall cause when not (exactly one cause per query)."""
        if self.owner is not None and self.owner != pid:
            self.stall_busy += 1
            return False
        if self.occupancy >= self.depth or self._pushed_cycle == cycle:
            self.stall_full += 1
            return False
        return True

    def push(self, pid: int, cycle: int) -> None:
        """Accept one flit of worm ``pid`` (caller checked ``can_accept``)."""
        if self.owner is None:
            self.owner = pid
        elif self.owner != pid:
            raise AssertionError(f"lane {self.lane} owned by {self.owner}, push by {pid}")
        if self.occupancy >= self.depth:
            raise AssertionError(f"lane {self.lane} over depth {self.depth}")
        self.occupancy += 1
        self.pushes += 1
        self._pushed_cycle = cycle
        if self.occupancy > self.peak_occupancy:
            self.peak_occupancy = self.occupancy

    def pop(self, *, release: bool) -> None:
        """Drain one flit; ``release`` frees the lane after the tail."""
        if self.occupancy <= 0:
            raise AssertionError(f"pop from empty lane {self.lane}")
        self.occupancy -= 1
        self.pops += 1
        if release and self.occupancy == 0:
            self.owner = None


class LinkModel:
    """One inter-stage link: ``L`` parallel lanes with their queues
    (as an inspection snapshot, see :attr:`CycleSim.links`).

    ``link`` is the downstream point ``(level, row)`` — the same
    identity :attr:`repro.core.routing.Route.links` uses, so the model
    composes directly with the conflict accounting.
    """

    __slots__ = ("link", "lanes")

    def __init__(self, link: Point, n_lanes: int, depth: int):
        self.link = link
        self.lanes = tuple(LaneQueue(i, depth) for i in range(n_lanes))

    @property
    def occupancy(self) -> int:
        """Buffered flits across all lanes of this link."""
        return sum(q.occupancy for q in self.lanes)

    @property
    def peak_occupancy(self) -> int:
        """Worst single-lane occupancy seen on this link."""
        return max(q.peak_occupancy for q in self.lanes)


class _Worm:
    """One in-flight packet: ``F`` flits crossing a conference's tree."""

    __slots__ = ("pid", "cid", "offered_cycle", "to_inject", "occ", "delivered", "frontier")

    def __init__(self, pid: int, cid: int, offered_cycle: int, flits: int, depth: int):
        self.pid = pid
        self.cid = cid
        self.offered_cycle = offered_cycle
        self.to_inject = flits  # flits still at the source ports
        self.occ = [0] * (depth + 1)  # occ[t] = flits buffered at level t (1-based)
        self.delivered = 0  # flits drained past the deepest tap
        self.frontier = 0  # deepest level whose lanes this worm holds

    @property
    def in_fabric(self) -> int:
        return sum(self.occ)


class _ConfState:
    """Per-conference lane map and wave counters.

    ``level_lanes[t]`` holds the lane ids the route uses entering level
    ``t`` (row order of the route dict).  A flit wave pushes or pops
    every one of them at once, so the per-lane counters of the
    :class:`LaneQueue` snapshot are sums (maxima, for the peak) of the
    per-level wave counters here over the conferences sharing a lane.
    """

    __slots__ = (
        "cid", "depth", "level_lanes", "slot", "queue", "active",
        "pushes", "pops", "stall_full", "peak", "latencies",
    )

    def __init__(self, cid: int, depth: int):
        self.cid = cid
        self.depth = depth
        self.level_lanes: list[tuple[int, ...]] = []
        self.slot = 0
        self.queue: list[_Worm] = []  # offered packets awaiting injection, FIFO
        self.active: list[_Worm] = []  # worms with at least one flit in fabric
        self.pushes = [0] * (depth + 1)
        self.pops = [0] * (depth + 1)
        self.stall_full = [0] * (depth + 1)
        self.peak = [0] * (depth + 1)
        self.latencies: list[float] = []  # per delivered packet, for report()


class CycleSim:
    """Cycle-accurate delivery simulation over a set of admitted routes.

    Build it from the :class:`~repro.core.routing.Route` objects the
    routing core admitted (any iterable; conference ids must be unique),
    offer packets with :meth:`inject`, and advance the clock with
    :meth:`step` / :meth:`run`.  :meth:`report` summarizes delivered
    throughput, latency percentiles and queue/stall telemetry as a
    :class:`~repro.perfmodel.report.PerfReport`.

    ``schedule`` (a ``conference id -> slot`` mapping plus frame length
    via ``n_slots``) is derived from
    :func:`repro.analysis.scheduling.schedule_slots` when ``tdm`` is on
    and no explicit assignment is passed.  ``metrics`` (an optional
    :class:`~repro.obs.metrics.MetricsRegistry`) receives flit/stall
    counters and occupancy gauges; passing ``None`` draws nothing.

    Every sim counts its own cycles from 0 (:attr:`cycle`), so the
    fresh sim the serve layer builds per tick is independent of the
    ticks before it.

    The state of a lane is its owner worm alone.  Lanes are exclusive
    and a flit wave moves on every link of a level at once, so a lane
    held at level ``t`` holds exactly ``owner.occ[t]`` flits: a move
    into a level the worm already holds can only fail on a full buffer,
    and a move into the next level only on a lane held by another worm.
    :attr:`links` rebuilds the per-lane :class:`LinkModel` /
    :class:`LaneQueue` view from that state when asked.
    """

    def __init__(
        self,
        routes: Sequence[Route],
        config: "PerfModelConfig | None" = None,
        *,
        schedule: "Mapping[int, int] | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.config = config or PerfModelConfig()
        self._metrics = metrics
        routes = list(routes)
        self._confs: dict[int, _ConfState] = {}
        for route in routes:
            cid = route.conference.conference_id
            if cid in self._confs:
                raise ValueError(f"duplicate conference id {cid} in route set")
            depth = max(route.taps.values()) if route.taps else 0
            self._confs[cid] = _ConfState(cid, depth)
        self._states = [self._confs[cid] for cid in sorted(self._confs)]
        self.n_slots = 1
        if self.config.tdm:
            self._assign_tdm_slots(routes, schedule)
        self._assign_lanes(routes)
        self.cycle = 0
        self.offered_packets = 0
        self.offered_flits = 0
        self.injected_flits = 0
        self.delivered_flits = 0
        self.delivered_packets = 0
        self.stalls = dict.fromkeys(STALL_CAUSES, 0)
        self._next_pid = 0
        self._published: dict[tuple, int] = {}
        # Per-packet latency (offer -> last flit drained), log-bucketed
        # into one aggregate histogram; per-conference histograms are
        # built from ``_ConfState.latencies`` only when report() asks.
        # The window is sized so a whole benchmark run stays live —
        # callers measuring "recent" behaviour can pass their own sized
        # histograms instead.
        self._latency = self._make_histogram()
        self._offered_by_conf = dict.fromkeys(self._confs, 0)

    def _publish_delta(self, counter: Any, key: tuple, total: int, **labels: Any) -> None:
        """Publish a counter as the delta since this sim's last publish.

        Registries can outlive sims (the serve layer builds a fresh sim
        per tick against one long-lived registry), so totals must be
        added as per-sim contributions, never overwritten.
        """
        delta = total - self._published.get(key, 0)
        if delta:
            counter.inc(delta, **labels)
            self._published[key] = total

    @staticmethod
    def _make_histogram() -> WindowedHistogram:
        return WindowedHistogram(
            low=1.0, high=float(1 << 20), growth=2.0 ** 0.25,
            window=float(1 << 62), windows=1,
        )

    # -- construction ------------------------------------------------------

    def _assign_tdm_slots(
        self, routes: list[Route], schedule: "Mapping[int, int] | None"
    ) -> None:
        if schedule is None:
            # Imported lazily: scheduling pulls in networkx, which the
            # space-division model never needs.
            from repro.analysis.scheduling import schedule_slots

            result = schedule_slots(routes)
            schedule, self.n_slots = result.slots, max(result.n_slots, 1)
        else:
            self.n_slots = max((int(s) for s in schedule.values()), default=0) + 1
        for cid, state in self._confs.items():
            try:
                state.slot = int(schedule[cid])
            except KeyError:
                raise ValueError(f"TDM schedule is missing conference {cid}") from None

    def _assign_lanes(self, routes: list[Route]) -> None:
        """Give every (link, lane) a flat id and map each conference's
        route links onto them.

        Space mode balances sharers round-robin over the ``L`` lanes in
        conference-id order (deterministic, and even whenever ``L``
        divides the sharer count).  TDM mode uses the slot colour as the
        lane index — one *virtual* lane per frame slot (links carry
        ``max(L, n_slots)`` lanes), so a worm parked between its slots
        never blocks another colour's buffer; bandwidth division comes
        from the slot gating alone.  Because the colouring is proper, a
        link's sharers all have distinct slots, i.e. TDM gives every
        sharer a private virtual lane at 1/n_slots of the cycle rate.

        Link ``i`` (first-use order) owns lane ids ``i*n .. i*n + n-1``.
        """
        cfg = self.config
        n_lanes = max(cfg.lanes, self.n_slots) if cfg.tdm else cfg.lanes
        levels_of = {route.conference.conference_id: route.levels for route in routes}
        points: list[Point] = []  # link of each lane-id block, first use first
        # level -> row -> [first lane id, sharers so far]
        index: dict[int, dict[int, list[int]]] = {}
        for state in self._states:
            levels = levels_of[state.cid]
            level_lanes: list[tuple[int, ...]] = [()]
            for t in range(1, state.depth + 1):
                rows = index.setdefault(t, {})
                ids = []
                for row in levels[t]:
                    entry = rows.get(row)
                    if entry is None:
                        entry = rows[row] = [len(points) * n_lanes, 0]
                        points.append((t, row))
                    ids.append(entry[0] + (state.slot if cfg.tdm else entry[1]) % n_lanes)
                    entry[1] += 1
                level_lanes.append(tuple(ids))
            state.level_lanes = level_lanes
        self._n_lanes = n_lanes
        self._link_points = points
        n_ids = len(points) * n_lanes
        self._owner: list["_Worm | None"] = [None] * n_ids
        self._stall_busy = [0] * n_ids

    # -- introspection -----------------------------------------------------

    @property
    def links(self) -> dict[Point, LinkModel]:
        """The modelled links (every link some route uses), in point
        order: a snapshot of the lane state built on each access."""
        n_lanes = self._n_lanes
        models = [
            LinkModel(link, n_lanes, self.config.buffer_depth)
            for link in self._link_points
        ]
        lanes = [lane for model in models for lane in model.lanes]
        for state in self._states:
            for t in range(1, state.depth + 1):
                for k in state.level_lanes[t]:
                    lane = lanes[k]
                    lane.pushes += state.pushes[t]
                    lane.pops += state.pops[t]
                    lane.stall_full += state.stall_full[t]
                    lane.peak_occupancy = max(lane.peak_occupancy, state.peak[t])
        for k, (lane, worm) in enumerate(zip(lanes, self._owner)):
            lane.stall_busy = self._stall_busy[k]
            if worm is not None:
                lane.owner = worm.pid
                lane.occupancy = worm.occ[self._link_points[k // n_lanes][0]]
        return {model.link: model for model in sorted(models, key=lambda m: m.link)}

    @property
    def peak_lane_occupancy(self) -> int:
        """Worst single-lane flit occupancy seen so far (0 with no links)."""
        return max((max(state.peak) for state in self._states), default=0)

    @property
    def conference_ids(self) -> tuple[int, ...]:
        """Conferences the sim carries, in id order."""
        return tuple(sorted(self._confs))

    @property
    def in_fabric_flits(self) -> int:
        """Flits currently buffered in some lane (tree-replicated copies
        count once per wave, matching injection accounting)."""
        return sum(
            w.in_fabric
            for state in self._confs.values()
            for w in state.active
        )

    @property
    def pending_packets(self) -> int:
        """Offered packets that have not yet finished delivery."""
        return self.offered_packets - self.delivered_packets

    def check_conservation(self) -> None:
        """Assert no flit was created or lost (the Hypothesis invariant).

        Offered flits split exactly into: not yet injected (source
        queues), buffered in the fabric, and delivered.  Raises
        ``AssertionError`` on any imbalance.
        """
        waiting = sum(
            w.to_inject
            for state in self._confs.values()
            for w in state.queue + state.active
        )
        total = waiting + self.in_fabric_flits + self.delivered_flits
        if total != self.offered_flits:
            raise AssertionError(
                f"flit conservation violated: offered {self.offered_flits} != "
                f"waiting {waiting} + in-fabric {self.in_fabric_flits} + "
                f"delivered {self.delivered_flits}"
            )

    # -- injection ---------------------------------------------------------

    def inject(self, conference_id: int, packets: int = 1) -> None:
        """Offer ``packets`` packets on a conference's source ports.

        Offered packets queue at the sources and enter the fabric as
        lane capacity allows (open-loop: the queue is unbounded, so
        overload shows up as waiting time, not drops).
        """
        if packets < 0:
            raise ValueError(f"packets must be >= 0, got {packets}")
        try:
            state = self._confs[conference_id]
        except KeyError:
            raise KeyError(f"no route for conference {conference_id}") from None
        for _ in range(packets):
            worm = _Worm(
                self._next_pid, conference_id, self.cycle,
                self.config.flits_per_packet, state.depth,
            )
            self._next_pid += 1
            state.queue.append(worm)
            self.offered_packets += 1
            self.offered_flits += self.config.flits_per_packet
            self._offered_by_conf[conference_id] += 1

    # -- the cycle ---------------------------------------------------------

    def step(self) -> None:
        """Advance one fabric cycle: every worm shifts where it can.

        Worms act oldest-first (global packet id order); within a worm,
        levels are swept deepest-first so the whole worm shifts one
        level per cycle like a hardware pipeline — a slot freed at level
        ``t+1`` this cycle is usable at level ``t`` this same cycle.
        """
        cycle = self.cycle
        if not self.pending_packets:  # nothing queued or in flight
            self.cycle += 1
            return
        worms: list[tuple[int, _ConfState, _Worm, bool]] = []
        for state in self._states:
            for w in state.active:
                worms.append((w.pid, state, w, False))
            if state.queue:
                head = state.queue[0]
                worms.append((head.pid, state, head, True))
        worms.sort()  # packet ids are unique: only the first field compares
        tdm = self.config.tdm
        for _pid, state, worm, queued in worms:
            if tdm and cycle % self.n_slots != state.slot:
                self.stalls["tdm_gate"] += 1
                continue
            self._advance(state, worm, cycle)
            if queued and worm.in_fabric:
                # First flit entered the fabric: the worm goes active.
                state.queue.pop(0)
                state.active.append(worm)
        self.cycle += 1

    def _advance(self, state: _ConfState, worm: _Worm, cycle: int) -> None:
        depth = state.depth
        occ = worm.occ
        if depth == 0:
            # Degenerate route (tap at level 0): delivery is direct.
            if worm.to_inject > 0:
                worm.to_inject -= 1
                self.injected_flits += 1
                self._deliver_flit(state, worm, cycle)
            return
        # Deliver: one flit drains past the deepest taps per cycle (the
        # output muxes tap without contention).
        if occ[depth] > 0:
            self._drain_level(state, worm, depth)
            self._deliver_flit(state, worm, cycle)
        # Shift buffered flits up one level where space allows.
        for t in range(depth - 1, 0, -1):
            if occ[t] > 0 and self._try_move(state, worm, t + 1):
                self._drain_level(state, worm, t)
        # Inject the next flit from the source ports.
        if worm.to_inject > 0 and self._try_move(state, worm, 1):
            worm.to_inject -= 1
            self.injected_flits += 1

    def _try_move(self, state: _ConfState, worm: _Worm, level: int) -> bool:
        """Can (and does) the worm push one flit into every route link
        entering ``level`` this cycle?  All-or-nothing across the tree
        breadth; acquisition extends the frontier atomically."""
        occ = worm.occ
        if level <= worm.frontier:
            # The worm holds every lane here, each with occ[level] flits.
            if occ[level] >= self.config.buffer_depth:
                state.stall_full[level] += 1
                self.stalls["buffer_full"] += 1
                return False
        else:
            # level == frontier + 1: none of these lanes is the worm's
            # own, and a free lane is empty.  Tally every held lane.
            owner = self._owner
            lanes = state.level_lanes[level]
            busy = False
            for k in lanes:
                if owner[k] is not None:
                    self._stall_busy[k] += 1
                    busy = True
            if busy:
                self.stalls["lane_busy"] += 1
                return False
            for k in lanes:
                owner[k] = worm
            worm.frontier = level
        filled = occ[level] + 1
        occ[level] = filled
        state.pushes[level] += 1
        if filled > state.peak[level]:
            state.peak[level] = filled
        return True

    def _drain_level(self, state: _ConfState, worm: _Worm, level: int) -> None:
        """Pop one flit from every route link at ``level``; release the
        lanes once no flit of this worm will enter the level again."""
        occ = worm.occ
        occ[level] -= 1
        state.pops[level] += 1
        if not occ[level] and not worm.to_inject and not any(occ[1:level]):
            owner = self._owner
            for k in state.level_lanes[level]:
                owner[k] = None

    def _deliver_flit(self, state: _ConfState, worm: _Worm, cycle: int) -> None:
        worm.delivered += 1
        self.delivered_flits += 1
        if worm.delivered == self.config.flits_per_packet:
            self.delivered_packets += 1
            latency = float(cycle + 1 - worm.offered_cycle)
            self._latency.observe(latency, now=float(cycle))
            state.latencies.append(latency)
            if worm in state.active:
                state.active.remove(worm)
            else:  # delivered straight from the source queue (depth 0)
                state.queue.remove(worm)

    def run(self, cycles: int) -> None:
        """Advance the sim ``cycles`` cycles."""
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until every offered packet is delivered; returns cycles
        spent.  ``RuntimeError`` if the horizon is hit (would indicate a
        progress bug — level-ordered waiting cannot deadlock)."""
        spent = 0
        while self.pending_packets:
            if spent >= max_cycles:
                raise RuntimeError(
                    f"drain did not settle within {max_cycles} cycles "
                    f"({self.pending_packets} packets pending)"
                )
            self.step()
            spent += 1
        return spent

    # -- reporting ---------------------------------------------------------

    def observe_metrics(self) -> None:
        """Publish counters/gauges to the attached metrics registry.

        Call at any cadence (the serve layer does once per tick); all
        series are monotone counters or last-write gauges, so cadence
        only affects resolution, never totals.
        """
        reg = self._metrics
        if reg is None:
            return
        flits = reg.counter("repro_perf_flits_total", "Flits by lifecycle event")
        for event, total in (
            ("offered", self.offered_flits),
            ("injected", self.injected_flits),
            ("delivered", self.delivered_flits),
        ):
            self._publish_delta(flits, ("flits", event), total, event=event)
        stalls = reg.counter("repro_perf_stalls_total", "Stalled worm advances by cause")
        for cause, count in self.stalls.items():
            self._publish_delta(stalls, ("stalls", cause), count, cause=cause)
        occ = reg.gauge("repro_perf_queue_occupancy", "Buffered flits per link level")
        by_level = dict.fromkeys((level for level, _row in self._link_points), 0)
        n_lanes = self._n_lanes
        for k, worm in enumerate(self._owner):
            if worm is not None:
                level = self._link_points[k // n_lanes][0]
                by_level[level] += worm.occ[level]
        for level in sorted(by_level):
            occ.set(by_level[level], level=str(level))
        reg.gauge(
            "repro_perf_lane_peak_occupancy", "Worst single-lane flit occupancy"
        ).set_max(self.peak_lane_occupancy)

    def latency_percentiles(self) -> "dict[str, float | None]":
        """Aggregate packet-latency p50/p95/p99 (cycles, offer to drain)."""
        return self._latency.percentiles()

    @property
    def latency_histogram(self) -> WindowedHistogram:
        """The aggregate packet-latency histogram (snapshot/merge into
        longer-lived aggregates — the serve layer folds per-tick sims
        into one cross-tick histogram this way)."""
        return self._latency

    @classmethod
    def _percentiles(cls, latencies: list[float]) -> "dict[str, float | None]":
        """p50/p95/p99 of some latencies, bucketed as the aggregate is (its
        one window spans the whole run, so every sample lands at t=0)."""
        histogram = cls._make_histogram()
        for latency in latencies:
            histogram.observe(latency, now=0.0)
        return histogram.percentiles()

    def report(self) -> PerfReport:
        """Summarize the run so far as a :class:`PerfReport`."""
        stall_full = sum(
            count * len(state.level_lanes[t])
            for state in self._states
            for t, count in enumerate(state.stall_full)
        )
        per_conference = {
            state.cid: {
                "offered": self._offered_by_conf[state.cid],
                "delivered": len(state.latencies),
                "latency": self._percentiles(state.latencies),
            }
            for state in self._states
        }
        try:
            self.check_conservation()
            conserved = True
        except AssertionError:
            conserved = False  # pragma: no cover - would be a model bug
        return PerfReport(
            cycles=self.cycle,
            config=self.config.as_dict(),
            n_conferences=len(self._confs),
            n_links=len(self._link_points),
            n_slots=self.n_slots,
            offered_packets=self.offered_packets,
            delivered_packets=self.delivered_packets,
            offered_flits=self.offered_flits,
            injected_flits=self.injected_flits,
            delivered_flits=self.delivered_flits,
            in_fabric_flits=self.in_fabric_flits,
            latency=self.latency_percentiles(),
            per_conference=per_conference,
            stalls=dict(self.stalls),
            lane_stall_busy=sum(self._stall_busy),
            lane_stall_full=stall_full,
            peak_lane_occupancy=self.peak_lane_occupancy,
            conserved=conserved,
        )


@dataclass
class _TokenBucket:
    """Deterministic fractional-rate injection accumulator."""

    rate: float
    acc: float = field(default=0.0)

    def due(self) -> int:
        self.acc += self.rate
        whole = int(self.acc)
        self.acc -= whole
        return whole


def simulate_delivery(
    routes: Sequence[Route],
    *,
    config: "PerfModelConfig | None" = None,
    cycles: int = 4096,
    offered_load: float = 0.1,
    schedule: "Mapping[int, int] | None" = None,
    metrics: "MetricsRegistry | None" = None,
    drain: bool = False,
) -> PerfReport:
    """Drive a :class:`CycleSim` open-loop and return its report.

    Every conference is offered ``offered_load`` packets per cycle
    through a deterministic token-bucket accumulator (no randomness: the
    same arguments always produce the same report).  ``drain=True`` runs
    the sim past the horizon until every offered packet delivers —
    closed-form totals for conservation checks; leave it off to measure
    steady-state delivered throughput under sustained load.
    """
    check_positive(cycles, "cycles")
    if offered_load < 0:
        raise ValueError(f"offered_load must be >= 0, got {offered_load}")
    sim = CycleSim(routes, config, schedule=schedule, metrics=metrics)
    buckets = {cid: _TokenBucket(offered_load) for cid in sim.conference_ids}
    for _ in range(cycles):
        for cid in sim.conference_ids:
            due = buckets[cid].due()
            if due:
                sim.inject(cid, due)
        sim.step()
    if drain:
        sim.drain()
    sim.observe_metrics()
    return sim.report()
