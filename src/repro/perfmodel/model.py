"""Cycle-level buffered-switch performance model: wormhole lanes + queues.

The paper's conflict analysis bounds what a conference fabric *needs* —
a link shared by ``m`` conferences requires dilation (or a TDM frame) of
``m`` to carry them all at once.  This module measures what a concrete
*buffered* fabric **delivers**: every inter-stage link carries ``L``
lanes (:class:`LinkModel`), each lane a bounded flit FIFO
(:class:`LaneQueue`), and admitted conference routes send *worms* —
packets of ``F`` flits — through their multicast trees under wormhole
switching, one flit per lane per cycle, with backpressure
(:class:`CycleSim`).

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
    """One inter-stage link: ``L`` parallel lanes with their queues.

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
    """Per-conference routing geometry and lane map, fixed at build time."""

    __slots__ = ("cid", "route", "depth", "level_links", "lane_of", "slot", "queue", "active")

    def __init__(self, cid: int, route: Route, depth: int):
        self.cid = cid
        self.route = route
        self.depth = depth
        # level -> tuple of link points the route uses entering that level
        # (row order matches the route dict's insertion order).
        self.level_links: list[tuple[Point, ...]] = [
            tuple((t, r) for r in route.levels[t]) if 1 <= t <= depth else ()
            for t in range(len(route.levels))
        ]
        self.lane_of: dict[Point, int] = {}
        self.slot = 0
        self.queue: list[_Worm] = []  # offered packets awaiting injection, FIFO
        self.active: list[_Worm] = []  # worms with at least one flit in fabric


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
            self._confs[cid] = _ConfState(cid, route, depth)
        self.n_slots = 1
        if self.config.tdm:
            self._assign_tdm_slots(routes, schedule)
        self._links: dict[Point, LinkModel] = {}
        self._assign_lanes()
        self.cycle = 0
        self.offered_packets = 0
        self.offered_flits = 0
        self.injected_flits = 0
        self.delivered_flits = 0
        self.delivered_packets = 0
        self.stalls = dict.fromkeys(STALL_CAUSES, 0)
        self._next_pid = 0
        self._published: dict[tuple, int] = {}
        # Per-packet latency (offer -> last flit drained), log-bucketed;
        # one aggregate histogram plus one per conference.  The window is
        # sized so a whole benchmark run stays live — callers measuring
        # "recent" behaviour can pass their own sized histograms instead.
        self._latency = self._make_histogram()
        self._conf_latency: dict[int, WindowedHistogram] = {
            cid: self._make_histogram() for cid in self._confs
        }
        self._delivered_by_conf = dict.fromkeys(self._confs, 0)
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

    def _assign_lanes(self) -> None:
        """Map each (conference, link) to a lane index.

        Space mode balances sharers round-robin over the ``L`` lanes in
        conference-id order (deterministic, and even whenever ``L``
        divides the sharer count).  TDM mode uses the slot colour as the
        lane index — one *virtual* lane per frame slot (links carry
        ``max(L, n_slots)`` lanes), so a worm parked between its slots
        never blocks another colour's buffer; bandwidth division comes
        from the slot gating alone.  Because the colouring is proper, a
        link's sharers all have distinct slots, i.e. TDM gives every
        sharer a private virtual lane at 1/n_slots of the cycle rate.
        """
        cfg = self.config
        n_lanes = max(cfg.lanes, self.n_slots) if cfg.tdm else cfg.lanes
        sharers: dict[Point, list[int]] = {}
        for cid in sorted(self._confs):
            state = self._confs[cid]
            for links in state.level_links:
                for link in links:
                    sharers.setdefault(link, []).append(cid)
        for link, cids in sorted(sharers.items()):
            self._links[link] = LinkModel(link, n_lanes, cfg.buffer_depth)
            for idx, cid in enumerate(cids):
                state = self._confs[cid]
                lane = (state.slot if cfg.tdm else idx) % n_lanes
                state.lane_of[link] = lane

    # -- introspection -----------------------------------------------------

    @property
    def links(self) -> dict[Point, LinkModel]:
        """The modelled links (every link some route uses)."""
        return self._links

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
        worms: list[tuple[_ConfState, _Worm, bool]] = []
        for cid in sorted(self._confs):
            state = self._confs[cid]
            for w in state.active:
                worms.append((state, w, False))
            if state.queue:
                worms.append((state, state.queue[0], True))
        worms.sort(key=lambda item: item[1].pid)
        for state, worm, queued in worms:
            if self.config.tdm and cycle % self.n_slots != state.slot:
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
        # Deliver: one flit drains past the deepest taps per cycle (the
        # output muxes tap without contention).
        if depth > 0 and worm.occ[depth] > 0:
            worm.occ[depth] -= 1
            self._drain_level(state, worm, depth)
            self._deliver_flit(state, worm, cycle)
        # Shift buffered flits up one level where space allows.
        for t in range(depth - 1, 0, -1):
            if worm.occ[t] > 0 and self._try_move(state, worm, t + 1, cycle):
                worm.occ[t] -= 1
                worm.occ[t + 1] += 1
                self._drain_level(state, worm, t)
        # Inject the next flit from the source ports.
        if worm.to_inject > 0:
            if depth == 0:
                # Degenerate route (tap at level 0): delivery is direct.
                worm.to_inject -= 1
                self.injected_flits += 1
                self._deliver_flit(state, worm, cycle)
            elif self._try_move(state, worm, 1, cycle):
                worm.to_inject -= 1
                worm.occ[1] += 1
                self.injected_flits += 1

    def _try_move(self, state: _ConfState, worm: _Worm, level: int, cycle: int) -> bool:
        """Can (and does) the worm push one flit into every route link
        entering ``level`` this cycle?  All-or-nothing across the tree
        breadth; acquisition extends the frontier atomically."""
        links = state.level_links[level]
        lanes = [self._links[link].lanes[state.lane_of[link]] for link in links]
        ok = True
        for lane in lanes:
            # Query every lane (not short-circuit) so stall counters see
            # each blocked lane once per cycle.
            if not lane.can_accept(worm.pid, cycle):
                ok = False
        if not ok:
            if worm.frontier < level:
                self.stalls["lane_busy"] += 1
            else:
                self.stalls["buffer_full"] += 1
            return False
        for lane in lanes:
            lane.push(worm.pid, cycle)
        if worm.frontier < level:
            worm.frontier = level
        return True

    def _drain_level(self, state: _ConfState, worm: _Worm, level: int) -> None:
        """Pop one flit from every route link at ``level``; release the
        lanes once no flit of this worm will enter the level again."""
        upstream = worm.to_inject + sum(worm.occ[1:level])
        release = upstream == 0 and worm.occ[level] == 0
        for link in state.level_links[level]:
            self._links[link].lanes[state.lane_of[link]].pop(release=release)

    def _deliver_flit(self, state: _ConfState, worm: _Worm, cycle: int) -> None:
        worm.delivered += 1
        self.delivered_flits += 1
        if worm.delivered == self.config.flits_per_packet:
            self.delivered_packets += 1
            self._delivered_by_conf[worm.cid] += 1
            latency = float(cycle + 1 - worm.offered_cycle)
            self._latency.observe(latency, now=float(cycle))
            self._conf_latency[worm.cid].observe(latency, now=float(cycle))
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
        by_level: dict[int, int] = {}
        peak = 0
        for (level, _row), link in self._links.items():
            by_level[level] = by_level.get(level, 0) + link.occupancy
            peak = max(peak, link.peak_occupancy)
        for level in sorted(by_level):
            occ.set(by_level[level], level=str(level))
        reg.gauge(
            "repro_perf_lane_peak_occupancy", "Worst single-lane flit occupancy"
        ).set_max(peak)

    def latency_percentiles(self) -> "dict[str, float | None]":
        """Aggregate packet-latency p50/p95/p99 (cycles, offer to drain)."""
        return self._latency.percentiles()

    @property
    def latency_histogram(self) -> WindowedHistogram:
        """The aggregate packet-latency histogram (snapshot/merge into
        longer-lived aggregates — the serve layer folds per-tick sims
        into one cross-tick histogram this way)."""
        return self._latency

    def report(self) -> PerfReport:
        """Summarize the run so far as a :class:`PerfReport`."""
        peak = 0
        stall_busy = stall_full = 0
        for link in self._links.values():
            peak = max(peak, link.peak_occupancy)
            for lane in link.lanes:
                stall_busy += lane.stall_busy
                stall_full += lane.stall_full
        per_conference = {
            cid: {
                "offered": self._offered_by_conf[cid],
                "delivered": self._delivered_by_conf[cid],
                "latency": self._conf_latency[cid].percentiles(),
            }
            for cid in sorted(self._confs)
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
            n_links=len(self._links),
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
            lane_stall_busy=stall_busy,
            lane_stall_full=stall_full,
            peak_lane_occupancy=peak,
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
