"""The per-flit FIFO stepper of the buffered-switch model, kept as an oracle.

:class:`ReferenceCycleSim` runs the same switching discipline as
:class:`~repro.perfmodel.model.CycleSim` with the plainest lane
bookkeeping: every ``(link, lane)`` is a live
:class:`~repro.perfmodel.model.LaneQueue` that the stepper pushes and
pops flit by flit, and stall causes are tallied inside
``LaneQueue.can_accept``.  ``CycleSim`` derives the same numbers from
lane owners and per-level wave counters;
``tests/perfmodel/test_sim_differential.py`` holds the two equal on
stall tallies, metrics, reports and every per-lane field of ``links``.
Test-only; no package module imports it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.routing import Route
from repro.obs.slo import WindowedHistogram
from repro.perfmodel.model import STALL_CAUSES, LinkModel, PerfModelConfig
from repro.perfmodel.report import PerfReport
from repro.topology.network import Point

__all__ = ["ReferenceCycleSim"]


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


class ReferenceCycleSim:
    """The cycle model with one live :class:`LaneQueue` per lane.

    Same constructor, methods and outputs as
    :class:`~repro.perfmodel.model.CycleSim`; only the lane bookkeeping
    differs.
    """

    def __init__(
        self,
        routes: Sequence[Route],
        config: "PerfModelConfig | None" = None,
        *,
        schedule: "Mapping[int, int] | None" = None,
        metrics: "Any" = None,
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
