"""Closed-loop, tick-driven client for the end-to-end serving benchmark.

One *episode* builds a fresh service, replays a workload's generated
requests against it and checks the outcome:

* every virtual tick the client submits that tick's requests through
  ``submit_open/join/leave/close`` and then calls ``tick()``; the next
  tick starts as soon as ``tick()`` returns (one client, closed loop,
  virtual service time, so there is no generator lateness);
* ports sit in a free pool; a refused open, join or leave returns its
  ports, and joins/leaves only target sessions whose open was confirmed
  and that have no other request in flight;
* ``warmup_ticks`` unmeasured ticks are followed by a fixed window of
  ``window_ticks`` measured ticks, then an untimed ``shutdown()``.

Every input is drawn up front from streams spawned off one seed
(:func:`generate_inputs`), including the fault script, which is built
here from the topology's link points rather than by ``repro.sim.faults``.
The program only ever receives the generated requests.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.cluster.controller import ClusterService
from repro.core.healing import RetryPolicy
from repro.core.network import ConferenceNetwork
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEvaluator
from repro.obs.trace import Tracer
from repro.perfmodel.model import PerfModelConfig
from repro.serve.service import FabricService
from repro.sim.faults import FaultTransition

TOPOLOGY = "indirect-binary-cube"
OK_STATUSES = frozenset({"admitted", "applied", "closed"})


@dataclass(frozen=True)
class Workload:
    """One traffic mix: fabric shape, offered load and service knobs."""

    name: str
    n_ports: int
    dilation: int
    opens_per_tick: float  # Poisson mean
    sizes: tuple[int, int]  # 1 + Zipf(zipf_alpha), clamped to this range
    zipf_alpha: float
    hold_ticks: float  # geometric mean
    resizes_per_tick: int  # single-port join-or-leave attempts
    warmup_ticks: int
    window_ticks: int
    shards: int = 0  # 0: one FabricService; k: a ClusterService of k fabrics
    fault_mttf: "float | None" = None  # ticks, per link point
    fault_mttr: float = 5.0
    protection: int = 0
    retry: "RetryPolicy | None" = None
    capacity_model: str = "abstract"
    perf: "PerfModelConfig | None" = None
    telemetry: bool = False

    @property
    def ticks(self) -> int:
        return self.warmup_ticks + self.window_ticks

    @property
    def fabrics(self) -> int:
        return max(self.shards, 1)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Window lengths are part of the benchmark's definition: per-tick cost
# grows with service history, so changing one changes every number.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="open_close",
            n_ports=1024,
            dilation=8,
            opens_per_tick=24.0,
            sizes=(2, 32),
            zipf_alpha=2.0,
            hold_ticks=20.0,
            resizes_per_tick=0,
            warmup_ticks=60,
            window_ticks=150,
        ),
        Workload(
            name="churn_faults",
            n_ports=256,
            dilation=8,
            opens_per_tick=1.0,
            sizes=(2, 16),
            zipf_alpha=1.8,
            hold_ticks=150.0,
            resizes_per_tick=6,
            warmup_ticks=100,
            window_ticks=250,
            fault_mttf=33_000.0,
            fault_mttr=5.0,
            protection=1,
            retry=RetryPolicy(max_retries=3, base_delay=1.0),
        ),
        Workload(
            name="buffered",
            n_ports=64,
            dilation=8,
            opens_per_tick=2.0,
            sizes=(2, 8),
            zipf_alpha=2.0,
            hold_ticks=15.0,
            resizes_per_tick=1,
            warmup_ticks=40,
            window_ticks=400,
            capacity_model="buffered",
            perf=PerfModelConfig(lanes=2, cycles_per_tick=32),
        ),
        Workload(
            name="cluster_live",
            n_ports=256,
            dilation=16,
            opens_per_tick=12.0,
            sizes=(2, 16),
            zipf_alpha=2.0,
            hold_ticks=20.0,
            resizes_per_tick=3,
            warmup_ticks=60,
            window_ticks=600,
            shards=4,
            telemetry=True,
        ),
    )
}


# -- inputs ----------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Everything a workload episode draws, fixed before the first tick."""

    opens: np.ndarray  # opens offered per tick
    sizes: np.ndarray  # per open, in offer order
    holds: np.ndarray  # per open: ticks from confirmation to close
    picks: np.ndarray  # uniforms consumed by port draws
    resizes: np.ndarray  # (ticks, resizes_per_tick, 3): session, kind, port
    fault_scripts: tuple  # one FaultTransition script per fabric
    service_seed: int

    def digest(self) -> str:
        h = hashlib.sha256()
        for array in (self.opens, self.sizes, self.holds, self.picks, self.resizes):
            h.update(np.ascontiguousarray(array).tobytes())
        for script in self.fault_scripts:
            h.update(repr([(tr.time, tr.point, tr.failed) for tr in script]).encode())
        h.update(str(self.service_seed).encode())
        return h.hexdigest()


def link_points(network: ConferenceNetwork) -> list[tuple[int, int]]:
    """Every inter-stage link point ``(level, row)`` of the topology."""
    topo = network.topology
    return [(t, r) for t in range(1, topo.n_stages + 1) for r in range(topo.n_ports)]


def fault_script(rng, points, mttf: float, mttr: float, horizon: float) -> tuple:
    """Alternating exponential up/down times per point.

    Failures start before ``horizon``; every failure is followed by its
    repair, even past the horizon, so the drain at shutdown can settle.
    """
    transitions = []
    for point in points:
        t, up = 0.0, True
        while True:
            t += float(rng.exponential(mttf if up else mttr))
            if up and t >= horizon:
                break
            transitions.append(FaultTransition(time=t, point=point, failed=up))
            up = not up
    transitions.sort(key=lambda tr: (tr.time, tr.point, tr.failed))
    return tuple(transitions)


def generate_inputs(spec: Workload, seed: int) -> Inputs:
    """Draw one episode's inputs from streams spawned off ``seed``."""
    streams = np.random.SeedSequence(seed).spawn(7)
    arrivals, sizes, holds, picks, resizes, faults = (
        np.random.default_rng(s) for s in streams[:6]
    )
    opens = arrivals.poisson(spec.opens_per_tick, size=spec.ticks)
    n_opens = int(opens.sum())
    lo, hi = spec.sizes
    size = 1 + np.clip(sizes.zipf(spec.zipf_alpha, size=n_opens), lo - 1, hi - 1)
    hold = holds.geometric(1.0 / spec.hold_ticks, size=n_opens)
    slots = spec.ticks * spec.resizes_per_tick
    pick = picks.random(int(size.sum()) + slots)
    resize = resizes.random((spec.ticks, spec.resizes_per_tick, 3))
    scripts = ()
    if spec.fault_mttf is not None:
        points = link_points(ConferenceNetwork.build(TOPOLOGY, spec.n_ports))
        scripts = tuple(
            fault_script(rng, points, spec.fault_mttf, spec.fault_mttr, float(spec.ticks))
            for rng in faults.spawn(spec.fabrics)
        )
    return Inputs(
        opens=opens,
        sizes=size,
        holds=hold,
        picks=pick,
        resizes=resize,
        fault_scripts=scripts,
        service_seed=int(streams[6].generate_state(1)[0]),
    )


# -- the system under test -------------------------------------------------


@dataclass
class System:
    """A freshly built service plus handles the client checks afterwards."""

    service: "FabricService | ClusterService"
    fabrics: list[FabricService]
    injectors: list
    cluster: bool


def build_system(spec: Workload, inputs: Inputs) -> System:
    """Construct network(s) + service and attach the fault scripts."""

    def network(_shard_id: "str | None" = None) -> ConferenceNetwork:
        return ConferenceNetwork.build(TOPOLOGY, spec.n_ports, dilation=spec.dilation)

    knobs = dict(
        retry=spec.retry,
        # An int, not a Generator: every build (set-up timing included)
        # must start the service's streams from the same state.
        rng=inputs.service_seed,
        protection=spec.protection,
        capacity_model=spec.capacity_model,
        perf=spec.perf,
    )
    if spec.telemetry:
        flight = FlightRecorder()
        slo = SLOEvaluator()
        flight.attach_slo(slo)
        knobs.update(
            tracer=flight.watch(Tracer()),
            metrics=MetricsRegistry(),
            slo=slo,
            flight=flight,
        )
    if spec.shards:
        service = ClusterService(network, shards=spec.shards, **knobs)
        ids = sorted(service.shards)
        fabrics = [service.shards[i].service for i in ids]
        injectors = [
            service.attach_faults(i, script) for i, script in zip(ids, inputs.fault_scripts)
        ]
        return System(service, fabrics, injectors, cluster=True)
    service = FabricService(network(), **knobs)
    injectors = [service.attach_faults(script) for script in inputs.fault_scripts]
    return System(service, [service], injectors, cluster=False)


def time_setup(spec: Workload, inputs: Inputs, repeats: int = 5) -> list[float]:
    """Wall seconds of ``repeats`` fresh :func:`build_system` calls.

    One untimed build goes first: the first build after a large free runs
    about twice as slow while the allocator maps fresh memory.
    """
    build_system(spec, inputs)
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build_system(spec, inputs)
        out.append(time.perf_counter() - t0)
    return out


# -- one episode -----------------------------------------------------------


class _IndexedSet:
    """Insertion-ordered set with O(1) removal and uniform indexed picks."""

    def __init__(self) -> None:
        self._items: list[int] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: int) -> None:
        if item not in self._pos:
            self._pos[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: int) -> None:
        pos = self._pos.pop(item, None)
        if pos is None:
            return
        last = self._items.pop()
        if pos < len(self._items):
            self._items[pos] = last
            self._pos[last] = pos

    def pick(self, u: float) -> int:
        return self._items[int(u * len(self._items))]


@dataclass
class EpisodeResult:
    """Raw measurements and verdict log of one episode."""

    digest: str
    input_digest: str
    step_s: list[float]  # per window tick: its submissions plus tick()
    tick_s: list[float]  # per window tick: tick() alone
    fault_ticks: list[int]  # window ticks in which a fault transition fired
    ok_latency_s: list[float]  # per ok window request, in request order
    offered: int  # requests submitted in the window
    ok: int  # ... whose verdict was ok
    outcomes: dict[str, int]  # window verdicts by status
    starved: int  # window opens skipped for want of free ports
    errors: list[str]
    counters: dict[str, float] = field(default_factory=dict)  # window deltas
    spans: "list | None" = None

    @property
    def failed(self) -> int:
        return self.offered - self.ok

    @property
    def window_wall_s(self) -> float:
        return sum(self.step_s)


class Episode:
    """Drives one fresh system through a workload's ticks."""

    def __init__(self, spec: Workload, inputs: Inputs, recorder=None):
        self.spec = spec
        self.inputs = inputs
        self.recorder = recorder
        self.trace_id = -1  # tick index, or request index while submitting
        self.tick = 0
        self.free = list(range(spec.n_ports))
        self.members: dict[int, list[int]] = {}  # confirmed sessions
        self.idle = _IndexedSet()  # confirmed sessions with nothing in flight
        self.busy: set[int] = set()
        self.closes_due: dict[int, list[int]] = {}
        self.log: list[tuple] = []  # (tick, kind, session, ports) per request
        self.verdicts: list = []  # (status, reason) per request
        self.submitted: list[float] = []
        self.completed: list[float] = []
        self.duplicates = 0
        self._pick = 0  # next unused entry of inputs.picks
        self._open = 0  # next unused entry of inputs.sizes / inputs.holds
        self._hold: dict[int, int] = {}  # open request index -> hold ticks

    # -- port pool ---------------------------------------------------------

    def _grab(self, count: int) -> tuple[int, ...]:
        free, picks = self.free, self.inputs.picks
        out = []
        for _ in range(count):
            i = int(picks[self._pick] * len(free))
            self._pick += 1
            out.append(free[i])
            free[i] = free[-1]
            free.pop()
        return tuple(sorted(out))

    # -- submission & verdicts ---------------------------------------------

    def _submit(self, submit, kind: str, sid: int, ports: tuple, *args) -> None:
        idx = len(self.verdicts)
        self.log.append((self.tick, kind, sid, ports))
        self.verdicts.append(None)
        self.completed.append(0.0)
        self.trace_id = idx
        callback = partial(self._on_verdict, idx, kind, sid, ports)
        self.submitted.append(time.perf_counter())
        submit(*args, on_complete=callback)

    def _on_verdict(self, idx: int, kind: str, sid: int, ports: tuple, response) -> None:
        self.completed[idx] = time.perf_counter()
        if self.verdicts[idx] is not None:
            self.duplicates += 1
            return
        self.verdicts[idx] = (response.status, response.reason)
        ok = response.ok
        if kind == "open":
            if ok:
                sid = response.session_id
                self.members[sid] = list(ports)
                self.idle.add(sid)
                self.closes_due.setdefault(self.tick + int(self._hold[idx]), []).append(sid)
            else:
                self.free.extend(ports)
        elif kind == "close":
            if ok:
                self.free.extend(self.members.pop(sid))
        else:
            members = self.members[sid]
            if kind == "join":
                if ok:
                    members.append(ports[0])
                    members.sort()
                else:
                    self.free.extend(ports)
            elif ok:
                members.remove(ports[0])
                self.free.extend(ports)
            self.busy.discard(sid)
            self.idle.add(sid)

    # -- the loop ----------------------------------------------------------

    def _offer_tick(self, svc, t: int) -> int:
        """Submit tick ``t``'s closes, opens and resizes; returns starved opens."""
        inputs = self.inputs
        for sid in self.closes_due.pop(t, ()):
            if sid in self.busy:
                self.closes_due.setdefault(t + 1, []).append(sid)
                continue
            self.idle.discard(sid)
            self._submit(svc.submit_close, "close", sid, (), sid)
        starved = 0
        for _ in range(int(inputs.opens[t])):
            k = self._open
            self._open += 1
            size = int(inputs.sizes[k])
            if len(self.free) < size:
                starved += 1
                continue
            ports = self._grab(size)
            self._hold[len(self.verdicts)] = inputs.holds[k]
            self._submit(svc.submit_open, "open", -1, ports, ports)
        for u_session, u_kind, u_port in inputs.resizes[t]:
            if not len(self.idle):
                break
            sid = self.idle.pick(u_session)
            members = self.members[sid]
            grow = u_kind < 0.5
            if grow and not self.free:
                grow = False
            if not grow and len(members) <= 2:
                if not self.free:
                    continue
                grow = True
            self.idle.discard(sid)
            self.busy.add(sid)
            if grow:
                ports = self._grab(1)
                self._submit(svc.submit_join, "join", sid, ports, sid, ports)
            else:
                ports = (members[int(u_port * len(members))],)
                self._submit(svc.submit_leave, "leave", sid, ports, sid, ports)
        return starved

    def run(self) -> EpisodeResult:
        spec = self.spec
        system = build_system(spec, self.inputs)
        svc = system.service
        recorder = self.recorder
        if recorder is not None:
            recorder.start(self)
        gc.collect()
        step_s: list[float] = []
        tick_s: list[float] = []
        fault_ticks: list[int] = []
        starved = 0
        req_lo = 0
        counters0: dict[str, float] = {}
        seen_faults = 0
        clock = time.perf_counter
        for t in range(spec.ticks):
            self.tick = t
            measured = t >= spec.warmup_ticks
            if t == spec.warmup_ticks:
                req_lo = len(self.verdicts)
                counters0 = _counters(system)
                seen_faults = counters0["fault_transitions"]
                if recorder is not None:
                    recorder.mark_window()
            t_step = clock()
            n_starved = self._offer_tick(svc, t)
            self.trace_id = t
            t0 = clock()
            svc.tick()
            t1 = clock()
            if measured:
                starved += n_starved
                step_s.append(t1 - t_step)
                tick_s.append(t1 - t0)
                if system.injectors:
                    fired = sum(len(inj.history) for inj in system.injectors)
                    if fired != seen_faults:
                        fault_ticks.append(len(tick_s) - 1)
                    seen_faults = fired
        req_hi = len(self.verdicts)
        counters = {k: v - counters0.get(k, 0) for k, v in _counters(system).items()}
        errors = []
        if system.cluster:
            errors += [f"directory: {p}" for p in svc.check_consistency()]
        self.trace_id = spec.ticks
        if recorder is not None:
            recorder.stop()
        tally = svc.shutdown()
        errors += _check(system, tally, self)
        outcomes: dict[str, int] = {}
        ok_latency = []
        for idx in range(req_lo, req_hi):
            verdict = self.verdicts[idx]
            status = verdict[0] if verdict is not None else "missing"
            outcomes[status] = outcomes.get(status, 0) + 1
            if status in OK_STATUSES:
                ok_latency.append(self.completed[idx] - self.submitted[idx])
        return EpisodeResult(
            digest=self._digest(tally),
            input_digest=self._input_digest(),
            step_s=step_s,
            tick_s=tick_s,
            fault_ticks=fault_ticks,
            ok_latency_s=ok_latency,
            offered=req_hi - req_lo,
            ok=len(ok_latency),
            outcomes=dict(sorted(outcomes.items())),
            starved=starved,
            errors=errors,
            counters=counters,
            spans=recorder.spans if recorder is not None else None,
        )

    def _digest(self, tally: dict) -> str:
        records = [
            [idx, log[1], *(verdict or ("missing", None))]
            for idx, (log, verdict) in enumerate(zip(self.log, self.verdicts))
        ]
        payload = json.dumps([records, sorted(tally.items())], separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def _input_digest(self) -> str:
        payload = json.dumps([list(entry) for entry in self.log], separators=(",", ":"))
        return hashlib.sha256((self.inputs.digest() + payload).encode()).hexdigest()


def _counters(system: System) -> dict[str, float]:
    """Program-side tallies whose window deltas the trace reports."""
    out = {
        "fault_transitions": sum(len(inj.history) for inj in system.injectors),
        "plan_hits": 0,
        "plan_lookups": 0,
        "offered_packets": 0,
        "delivered_packets": 0,
    }
    for fabric in system.fabrics:
        stats = fabric.healing.stats
        out["plan_hits"] += stats.plan_hits
        out["plan_lookups"] += stats.plan_hits + stats.plan_misses + stats.plan_stale
        if fabric.delivery is not None:
            out["offered_packets"] += fabric.delivery.offered_packets
            out["delivered_packets"] += fabric.delivery.delivered_packets
    return out


def _check(system: System, tally: dict, episode: Episode) -> list[str]:
    """Post-shutdown correctness checks (empty list means all passed)."""
    errors = []
    missing = sum(1 for v in episode.verdicts if v is None)
    if missing:
        errors.append(f"{missing} request(s) never got a verdict")
    if episode.duplicates:
        errors.append(f"{episode.duplicates} duplicate verdict(s)")
    lost = system.service.stats.lost_sessions + tally.get("lost", 0)
    if lost:
        errors.append(f"{lost} session(s) lost")
    for fabric in system.fabrics:
        peak, cap = fabric.queue.stats.peak_depth, fabric.queue.capacity
        if peak > cap:
            errors.append(f"queue depth {peak} exceeded capacity {cap}")
    return errors


def run_episode(spec: Workload, inputs: Inputs, recorder=None) -> EpisodeResult:
    """Build a fresh system and drive it through ``spec``'s ticks."""
    return Episode(spec, inputs, recorder).run()
