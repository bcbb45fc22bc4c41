"""Seeded churn benchmark for the conference service.

``run_serve_bench`` drives one :class:`~repro.serve.service.FabricService`
with a synthetic session workload: Poisson conference arrivals over a
shared port pool, geometric holding times, optional mid-call membership
churn, and (optionally) a pre-generated fault timeline firing underneath
the live sessions.  Everything — arrivals, sizes, member choice, holds,
resize coverage, fault schedule — derives from one seed through spawned
RNG streams, so two runs with the same arguments produce identical
reports and **byte-identical** metrics files; the acceptance test in
``tests/serve/test_bench.py`` diffs the bytes.

The report carries the acceptance criteria directly: sessions lost
(must be zero — a fault-dropped session is requeued, never abandoned),
peak queue depth (must stay bounded by the configured capacity), and
the admission/shed/latency tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.churn import ChurnPolicy
from repro.core.healing import RetryPolicy
from repro.core.network import ConferenceNetwork
from repro.serve.backpressure import ShedPolicy
from repro.serve.protocol import ServiceResponse
from repro.serve.service import FabricService
from repro.serve.session import SessionState
from repro.sim.faults import FaultProcessConfig, generate_fault_timeline
from repro.sim.metrics import AvailabilityStats
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from collections.abc import Sequence

    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOEvaluator
    from repro.obs.trace import Tracer
    from repro.perfmodel.model import PerfModelConfig

__all__ = ["ServeBenchReport", "run_serve_bench"]


@dataclass
class ServeBenchReport:
    """Outcome of one churn run (shared ``ok``/``reason``/``as_dict`` contract)."""

    n_ports: int
    seed: int
    conferences: int  # opens actually offered
    ticks: int
    drain_ticks: int
    starved_arrivals: int  # arrivals skipped for want of free ports
    resizes: int
    fault_transitions: int
    peak_queue_depth: int
    queue_capacity: int
    shed_policy: str
    lost_sessions: int
    protection: int = 0
    recovery: dict[str, Any] = field(default_factory=dict)
    session_counts: dict[str, int] = field(default_factory=dict)
    service: dict[str, Any] = field(default_factory=dict)
    queue: dict[str, int] = field(default_factory=dict)
    #: Buffered-capacity-model delivery block; ``None`` in abstract mode
    #: and then absent from ``as_dict`` (abstract output is byte-stable
    #: across this field's introduction).
    delivery: "dict[str, Any] | None" = None

    @property
    def ok(self) -> bool:
        """Did churn sustain: nothing lost, backlog stayed bounded."""
        return self.lost_sessions == 0 and self.peak_queue_depth <= self.queue_capacity

    @property
    def reason(self) -> "str | None":
        """Why the run failed the sustain criteria (``None`` when ok)."""
        if self.lost_sessions:
            return f"{self.lost_sessions} session(s) lost"
        if self.peak_queue_depth > self.queue_capacity:
            return (
                f"queue depth {self.peak_queue_depth} exceeded "
                f"capacity {self.queue_capacity}"
            )
        return None

    @property
    def throughput(self) -> float:
        """Admitted conferences per tick."""
        admitted = self.service.get("admitted", 0)
        return admitted / self.ticks if self.ticks else 0.0

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the shared result-serializer contract)."""
        return {
            "kind": "serve_bench",
            "ok": self.ok,
            "reason": self.reason,
            "n_ports": self.n_ports,
            "seed": self.seed,
            "conferences": self.conferences,
            "ticks": self.ticks,
            "drain_ticks": self.drain_ticks,
            "throughput": self.throughput,
            "starved_arrivals": self.starved_arrivals,
            "resizes": self.resizes,
            "fault_transitions": self.fault_transitions,
            "peak_queue_depth": self.peak_queue_depth,
            "queue_capacity": self.queue_capacity,
            "shed_policy": self.shed_policy,
            "lost_sessions": self.lost_sessions,
            "protection": self.protection,
            "recovery": dict(self.recovery),
            "session_counts": dict(self.session_counts),
            "service": dict(self.service),
            "queue": dict(self.queue),
            **({"delivery": dict(self.delivery)} if self.delivery is not None else {}),
        }


def _fault_horizon(conferences: int, arrival_rate: float, mean_hold_ticks: float) -> float:
    """Fault-timeline length: generously past the expected run length."""
    return 4.0 * conferences / arrival_rate + 8.0 * mean_hold_ticks


def _tick_budget(conferences: int) -> int:
    """Ticks a bench may run before it is declared stuck."""
    return max(200, conferences * 100)


def _recovery(stats: "Sequence[AvailabilityStats]") -> dict[str, Any]:
    """A report's ``recovery`` block, folded over healing stats.

    The recovery-tick summary of every sample, then the summed plan
    counts.  A sharded run passes every shard's stats (failed shards
    included: their pre-kill failovers count).
    """
    return {
        **AvailabilityStats.summarize_recovery(
            [sample for s in stats for sample in s.recovery_samples]
        ),
        "plan_hits": sum(s.plan_hits for s in stats),
        "plan_misses": sum(s.plan_misses for s in stats),
        "plan_stale": sum(s.plan_stale for s in stats),
    }


class _PortPool:
    """Free-port bookkeeping with deterministic sampling order.

    The pool spans one fabric's port range.  The cluster bench uses it as
    its *logical* endpoint space, so concurrent conferences are
    port-disjoint no matter which shard hosts them.
    """

    def __init__(self, n_ports: int):
        self._free = list(range(n_ports))  # kept sorted

    def __len__(self) -> int:
        return len(self._free)

    def grab(self, rng, count: int) -> "tuple[int, ...]":
        """Remove and return ``count`` uniformly-chosen free ports."""
        picked = rng.choice(len(self._free), size=count, replace=False)
        ports = tuple(sorted(self._free[i] for i in picked))
        for p in ports:
            self._free.remove(p)
        return ports

    def release(self, ports) -> None:
        """Return ports to the pool (kept sorted for determinism)."""
        for p in ports:
            self._free.append(p)
        self._free.sort()


def run_serve_bench(
    network: "ConferenceNetwork | int",
    *,
    dilation: int = 8,
    conferences: int = 500,
    seed: int = 0,
    arrival_rate: float = 4.0,
    mean_size: float = 4.0,
    max_size: "int | None" = None,
    mean_hold_ticks: float = 20.0,
    resize_prob: float = 0.0,
    queue_capacity: int = 256,
    shed_policy: "ShedPolicy | str" = ShedPolicy.REJECT_NEWEST,
    max_batch: int = 64,
    churn: "ChurnPolicy | None" = None,
    retry: "RetryPolicy | None" = None,
    fault_process: "FaultProcessConfig | None" = None,
    protection: int = 0,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    slo: "SLOEvaluator | None" = None,
    flight: "FlightRecorder | None" = None,
    capacity_model: str = "abstract",
    perf: "PerfModelConfig | None" = None,
) -> ServeBenchReport:
    """Run a seeded churn workload against a fresh service.

    ``network`` is a built :class:`~repro.core.network.ConferenceNetwork`
    or a port count to build one for.  ``conferences`` opens are offered
    at ``arrival_rate`` per tick (Poisson), each holding for a geometric
    number of ticks around ``mean_hold_ticks``; ``resize_prob`` is the
    per-tick chance of one random live session growing or shrinking by a
    member.  With ``fault_process`` set, a timeline generated generously
    past the expected run length fires underneath the workload.
    ``protection`` (plan budget F, default 0 = reactive) precomputes
    per-link backup plans so fault-driven failovers switch in O(1); the
    report's ``recovery`` block carries the resulting recovery-tick
    distribution and plan hit/miss/stale counters.
    """
    if isinstance(network, int):
        # A conference-capable default fabric (``dilation`` is ignored
        # when the caller hands over a built network).
        network = ConferenceNetwork.build(
            "indirect-binary-cube", network, dilation=dilation
        )
    check_positive(arrival_rate, "arrival_rate")
    check_positive(mean_hold_ticks, "mean_hold_ticks")
    if conferences < 1:
        raise ValueError(f"conferences must be >= 1, got {conferences}")
    base = ensure_rng(seed)
    # Stream order is part of the file format of this benchmark: reorder
    # it and every same-seed comparison with older runs breaks.
    arrivals_rng, size_rng, member_rng, hold_rng, resize_rng, fault_rng, service_rng = (
        base.spawn(7)
    )
    service = FabricService(
        network,
        retry=retry,
        rng=service_rng,
        protection=protection,
        tracer=tracer,
        metrics=metrics,
        slo=slo,
        flight=flight,
        queue_capacity=queue_capacity,
        shed_policy=shed_policy,
        max_batch=max_batch,
        churn=churn,
        capacity_model=capacity_model,
        perf=perf,
    )
    injector = None
    if fault_process is not None:
        timeline = generate_fault_timeline(
            network.topology,
            fault_process,
            _fault_horizon(conferences, arrival_rate, mean_hold_ticks),
            seed=fault_rng,
        )
        injector = service.attach_faults(timeline)

    n = network.topology.n_ports
    pool = _PortPool(n)
    closes_due: dict[int, list[int]] = {}
    outstanding = [0]  # submitted requests awaiting a terminal response
    starved = [0]
    resizes = [0]

    def finish(fn):
        def callback(response: ServiceResponse) -> None:
            outstanding[0] -= 1
            fn(response)

        return callback

    def on_opened(response: ServiceResponse) -> None:
        sid = response.session_id
        if response.ok:
            hold = int(hold_rng.geometric(min(1.0, 1.0 / mean_hold_ticks)))
            closes_due.setdefault(tick[0] + max(hold, 1), []).append(sid)
        else:
            pool.release(service.sessions.require(sid).members)

    def on_closed(response: ServiceResponse) -> None:
        if response.ok:
            pool.release(service.sessions.require(response.session_id).members)

    def on_join(ports):
        def callback(response: ServiceResponse) -> None:
            if not response.ok:
                pool.release(ports)

        return callback

    def on_leave(ports):
        def callback(response: ServiceResponse) -> None:
            if response.ok:
                pool.release(ports)

        return callback

    def open_one() -> bool:
        want = 2 + int(size_rng.poisson(max(mean_size - 2.0, 0.0)))
        if max_size is not None:
            want = min(want, max_size)
        if len(pool) < max(want, 2):
            starved[0] += 1
            return False
        members = pool.grab(member_rng, max(want, 2))
        outstanding[0] += 1
        service.submit_open(members, on_complete=finish(on_opened))
        return True

    def churn_resize() -> None:
        active = sorted(
            s.session_id
            for s in service.sessions
            if s.state in (SessionState.ACTIVE, SessionState.DEGRADED)
        )
        if not active:
            return
        sid = active[int(resize_rng.integers(len(active)))]
        session = service.sessions.require(sid)
        grow = bool(resize_rng.integers(2))
        if grow and len(pool):
            ports = pool.grab(member_rng, 1)
            outstanding[0] += 1
            service.submit_join(sid, ports, on_complete=finish(on_join(ports)))
            resizes[0] += 1
        elif not grow and len(session.members) > 2:
            port = session.members[int(resize_rng.integers(len(session.members)))]
            outstanding[0] += 1
            service.submit_leave(sid, (port,), on_complete=finish(on_leave((port,))))
            resizes[0] += 1

    tick = [0]
    opened = 0
    budget = _tick_budget(conferences)
    while (
        opened < conferences
        or outstanding[0]
        or closes_due
        or any(s.live for s in service.sessions)
    ):
        if tick[0] >= budget:
            raise RuntimeError(
                f"bench did not settle within {budget} ticks "
                f"({opened}/{conferences} opened, {outstanding[0]} outstanding)"
            )
        if opened < conferences:
            for _ in range(int(arrivals_rng.poisson(arrival_rate))):
                if opened >= conferences:
                    break
                if open_one():
                    opened += 1
        for sid in closes_due.pop(tick[0], []):
            if service.sessions.require(sid).live:
                outstanding[0] += 1
                service.submit_close(sid, on_complete=finish(on_closed))
        if resize_prob and float(resize_rng.random()) < resize_prob:
            churn_resize()
        service.tick()
        tick[0] += 1

    before = service.stats.ticks
    counts = service.shutdown()
    return ServeBenchReport(
        n_ports=n,
        seed=seed,
        conferences=opened,
        ticks=service.stats.ticks,
        drain_ticks=service.stats.ticks - before,
        starved_arrivals=starved[0],
        resizes=resizes[0],
        fault_transitions=len(injector.history) if injector is not None else 0,
        peak_queue_depth=service.queue.stats.peak_depth,
        queue_capacity=queue_capacity,
        shed_policy=service.queue.policy.value,
        lost_sessions=counts.get(SessionState.LOST.value, 0),
        protection=service.protection,
        recovery=_recovery([service.healing.stats]),
        session_counts=counts,
        service=service.stats.as_dict(),
        queue=service.queue.stats.as_dict(),
        delivery=(
            service.delivery.summary() if service.delivery is not None else None
        ),
    )
