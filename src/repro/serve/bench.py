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
from typing import TYPE_CHECKING, Any, Callable

from repro.core.network import ConferenceNetwork
from repro.serve.protocol import ServiceResponse
from repro.serve.service import FabricService
from repro.serve.session import SessionState
from repro.sim.faults import FaultProcessConfig, generate_fault_timeline
from repro.sim.metrics import AvailabilityStats
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from collections.abc import Sequence

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


class _Workload:
    """The seeded session workload both bench drivers run.

    Spawns the seven RNG streams (their order is part of the bench's file
    format: reorder it and every same-seed comparison with older runs
    breaks) and, once :meth:`drive` binds a target with the ``submit_*``
    surface, offers Poisson arrivals and resizes over one free-port pool.
    The pool spans one fabric's port range; the cluster bench uses it as
    its *logical* endpoint space, so concurrent conferences are
    port-disjoint on any shard.  Each driver keeps its own loop and
    decides when a session's hold is drawn.
    """

    def __init__(self, seed: int, n_ports: int, *, conferences: int, arrival_rate: float,
                 mean_size: float, max_size: "int | None", mean_hold_ticks: float,
                 resize_prob: float):
        check_positive(arrival_rate, "arrival_rate")
        check_positive(mean_hold_ticks, "mean_hold_ticks")
        if conferences < 1:
            raise ValueError(f"conferences must be >= 1, got {conferences}")
        (self._arrival_rng, self._size_rng, self._member_rng, self._hold_rng,
         self._resize_rng, self.fault_rng, self.service_rng) = ensure_rng(seed).spawn(7)
        self.conferences, self._arrival_rate = conferences, arrival_rate
        self._mean_size, self._max_size = mean_size, max_size
        self._mean_hold_ticks, self._resize_prob = mean_hold_ticks, resize_prob
        self._free = list(range(n_ports))  # kept sorted, for determinism
        self.closes_due: dict[int, list[int]] = {}  # tick -> sessions to close
        self.tick = self.opened = self.starved = self.resizes = 0
        self.outstanding = 0  # submitted requests awaiting a terminal response
        # Fault timelines run generously past the expected run length.
        self.fault_horizon = 4.0 * conferences / arrival_rate + 8.0 * mean_hold_ticks
        self.budget = max(200, conferences * 100)  # ticks before a run is stuck

    def drive(self, target, active_ids, members_of) -> None:
        """Bind the target; ``active_ids()`` lists the sessions a resize may
        pick and ``members_of(id)`` reads one's members."""
        self._target, self._active_ids, self._members_of = target, active_ids, members_of

    def busy(self) -> bool:
        """Opens left to offer, verdicts owed, or closes scheduled."""
        return bool(self.opened < self.conferences or self.outstanding or self.closes_due)

    def _grab(self, count: int) -> "tuple[int, ...]":
        picked = self._member_rng.choice(len(self._free), size=count, replace=False)
        ports = tuple(sorted(self._free[i] for i in picked))
        for p in ports:
            self._free.remove(p)
        return ports

    def release(self, ports) -> None:
        """Return ports to the pool."""
        self._free.extend(ports)
        self._free.sort()

    def track(self, callback: "Callable[[ServiceResponse], None]"):
        """Count one submitted request until its verdict reaches ``callback``."""
        self.outstanding += 1

        def finish(response: ServiceResponse) -> None:
            self.outstanding -= 1
            callback(response)

        return finish

    def draw_hold(self) -> int:
        """One session's holding time in ticks (geometric)."""
        return int(self._hold_rng.geometric(min(1.0, 1.0 / self._mean_hold_ticks)))

    def on_opened(self, hold: "Callable[[], int]"):
        """An open's callback: close ``hold()`` ticks on, or return its ports."""

        def callback(response: ServiceResponse) -> None:
            if response.ok:
                due = self.tick + max(hold(), 1)
                self.closes_due.setdefault(due, []).append(response.session_id)
            else:
                self.release(self._members_of(response.session_id))

        return callback

    def _release_if(self, ok: bool, ports):
        def callback(response: ServiceResponse) -> None:
            if response.ok is ok:
                self.release(ports)

        return callback

    def arrive(self, on_open: "Callable[[], Callable[[ServiceResponse], None]]") -> None:
        """This tick's arrivals; ``on_open()`` makes each open's callback."""
        if self.opened >= self.conferences:
            return
        for _ in range(int(self._arrival_rng.poisson(self._arrival_rate))):
            if self.opened >= self.conferences:
                break
            want = 2 + int(self._size_rng.poisson(max(self._mean_size - 2.0, 0.0)))
            if self._max_size is not None:
                want = min(want, self._max_size)
            if len(self._free) < max(want, 2):
                self.starved += 1
                continue
            members = self._grab(max(want, 2))
            self._target.submit_open(members, on_complete=self.track(on_open()))
            self.opened += 1

    def maybe_resize(self) -> None:
        """With ``resize_prob``, grow or shrink one active session by a port."""
        if not (self._resize_prob and float(self._resize_rng.random()) < self._resize_prob):
            return
        active = self._active_ids()
        if not active:
            return
        sid = active[int(self._resize_rng.integers(len(active)))]
        members = self._members_of(sid)
        grow = bool(self._resize_rng.integers(2))
        if grow and self._free:
            ports = self._grab(1)
            self._target.submit_join(
                sid, ports, on_complete=self.track(self._release_if(False, ports))
            )
            self.resizes += 1
        elif not grow and len(members) > 2:
            leaving = (members[int(self._resize_rng.integers(len(members)))],)
            self._target.submit_leave(
                sid, leaving, on_complete=self.track(self._release_if(True, leaving))
            )
            self.resizes += 1


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
    fault_process: "FaultProcessConfig | None" = None,
    queue_capacity: int = 256,
    **fabric: Any,
) -> ServeBenchReport:
    """Run a seeded churn workload against a fresh service.

    ``network`` is a built :class:`~repro.core.network.ConferenceNetwork`
    or a port count to build one for.  ``conferences`` opens are offered
    at ``arrival_rate`` per tick (Poisson), each holding for a geometric
    number of ticks around ``mean_hold_ticks``; ``resize_prob`` is the
    per-tick chance of one random live session growing or shrinking by a
    member.  With ``fault_process`` set, a timeline generated generously
    past the expected run length fires underneath the workload.
    Every other keyword is a :class:`~repro.serve.service.FabricService`
    keyword and configures the service (the bench only lowers the
    default ``queue_capacity`` to 256).  With ``protection=F`` the
    report's ``recovery`` block carries the recovery-tick distribution
    and plan hit/miss/stale counters.
    """
    if isinstance(network, int):
        # A conference-capable default fabric (``dilation`` is ignored
        # when the caller hands over a built network).
        network = ConferenceNetwork.build("indirect-binary-cube", network, dilation=dilation)
    n = network.topology.n_ports
    work = _Workload(
        seed, n, conferences=conferences, arrival_rate=arrival_rate, mean_size=mean_size,
        max_size=max_size, mean_hold_ticks=mean_hold_ticks, resize_prob=resize_prob,
    )
    service = FabricService(
        network, rng=work.service_rng, queue_capacity=queue_capacity, **fabric
    )
    injector = None
    if fault_process is not None:
        timeline = generate_fault_timeline(
            network.topology, fault_process, work.fault_horizon, seed=work.fault_rng
        )
        injector = service.attach_faults(timeline)
    sessions = service.sessions
    work.drive(
        service,
        active_ids=lambda: sorted(
            s.session_id
            for s in sessions
            if s.state in (SessionState.ACTIVE, SessionState.DEGRADED)
        ),
        members_of=lambda sid: sessions.require(sid).members,
    )

    def on_open():
        return work.on_opened(work.draw_hold)  # the hold is drawn on admission

    def on_closed(response: ServiceResponse) -> None:
        if response.ok:
            work.release(sessions.require(response.session_id).members)

    while work.busy() or any(s.live for s in sessions):
        if work.tick >= work.budget:
            raise RuntimeError(
                f"bench did not settle within {work.budget} ticks "
                f"({work.opened}/{conferences} opened, {work.outstanding} outstanding)"
            )
        work.arrive(on_open)
        for sid in work.closes_due.pop(work.tick, []):
            if sessions.require(sid).live:
                service.submit_close(sid, on_complete=work.track(on_closed))
        work.maybe_resize()
        service.tick()
        work.tick += 1

    before = service.stats.ticks
    counts = service.shutdown()
    return ServeBenchReport(
        n_ports=n,
        seed=seed,
        conferences=work.opened,
        ticks=service.stats.ticks,
        drain_ticks=service.stats.ticks - before,
        starved_arrivals=work.starved,
        resizes=work.resizes,
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
