"""The online conference service: batched admission over a healing fabric.

:class:`FabricService` turns the batch-experiment stack into a
long-running server.  It wraps one
:class:`~repro.core.healing.SelfHealingController` and layers on top of
it:

* **Session lifecycle** — ``open_conference`` / ``join`` / ``leave`` /
  ``close`` (async coroutines; ``submit_*`` are the synchronous
  tick-driven equivalents), tracked by a
  :class:`~repro.serve.session.SessionTable`.
* **Batched admission** — requests accumulate in the bounded
  :class:`~repro.serve.backpressure.AdmissionQueue` between ticks and
  are admitted by the :class:`~repro.serve.batcher.Batcher` in one pass
  per tick, amortizing routing cost and keeping decisions independent
  of wall-clock races.
* **Backpressure** — a full queue sheds load by policy
  (:class:`~repro.serve.backpressure.ShedPolicy`); denied opens retry
  through the same queue with the
  :class:`~repro.core.healing.RetryPolicy` backoff.
* **Self-healing under live faults** — a fault timeline attached via
  :meth:`attach_faults` drives the healing ladder mid-session; sessions
  dropped by a fault are restored by the controller's retry queue and,
  if that gives up, *re-queued* by the service at interactive priority —
  a session is never lost while the service runs (the churn acceptance
  test asserts exactly this).
* **Graceful drain** — :meth:`drain` stops new work and ticks until the
  backlog and every in-flight restore settles (a restore waiting for
  ports another live session holds never does); :meth:`shutdown` then
  closes the remaining sessions.

Time is **virtual**: the service owns a deterministic
:class:`~repro.sim.engine.EventLoop` advanced :data:`TICK` per tick, so a
seeded workload produces byte-identical metrics on every run.  The
asyncio facade only paces ticks and parks callers on futures — it never
influences admission decisions.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.admission import AdmissionDenied
from repro.core.churn import ChurnPolicy
from repro.core.conference import Conference
from repro.core.healing import RetryPolicy, SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.routing import UnroutableError
from repro.perfmodel.capacity import DeliveryModel, validate_capacity_model
from repro.serve.backpressure import AdmissionQueue, ShedPolicy
from repro.serve.batcher import Batcher, BatchReport
from repro.serve.protocol import Priority, RequestKind, ServiceResponse, SessionRequest
from repro.serve.session import SessionState, SessionTable
from repro.sim.engine import EventLoop
from repro.sim.faults import FaultInjector
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOEvaluator
    from repro.obs.trace import Tracer
    from repro.perfmodel.model import PerfModelConfig
    from repro.sim.faults import FaultTransition

__all__ = ["ServiceStats", "FabricService"]

#: Virtual time one tick advances.  A float, so serialized times keep
#: their ``1.0``-style spelling.
TICK = 1.0

#: Session states that hold a live fabric route.
_ROUTED = (SessionState.ACTIVE, SessionState.DEGRADED)

#: The request kinds that change a live session's membership.
_RESIZES = (RequestKind.JOIN, RequestKind.LEAVE)

#: Admission-latency buckets in virtual-time units (ticks by default).
SERVE_LATENCY_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
#: Batch-size buckets for the per-tick admission pass.
SERVE_BATCH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

CompletionCallback = Callable[[ServiceResponse], None]


@dataclass(slots=True)
class _Pending:
    """One request the service owes a terminal verdict.

    Created when ``_submit`` takes a request (or ``_on_lost`` re-queues a
    fault-dropped session) and popped by ``_complete``, so a request is
    in flight exactly while it has a record.  ``session`` is the session
    the verdict names, ``attempts`` the open's denials so far under the
    retry policy, ``restore`` marks a re-queued session (never shed or
    rejected, only backed off) and ``parent`` the trace parent captured
    at submission.
    """

    session: "int | None"
    callback: "CompletionCallback | None" = None
    restore: bool = False
    attempts: int = 0
    parent: "int | None" = None


class _SLOFeed:
    """One layer's per-tick health signals into its SLO evaluator.

    The service and the cluster controller hand over running totals; the
    feed keeps the watermarks that turn them into per-tick deltas,
    evaluates every objective and notes the status in the flight
    recorder.  Pure observation: nothing feeds back into admission.
    """

    def __init__(
        self, slo: "SLOEvaluator", flight: "FlightRecorder | None", metrics: "MetricsRegistry | None"
    ):
        self._slo = slo
        self._flight = flight
        self._metrics = metrics
        self._recovery_seen: dict = {}  # healing controller key -> samples consumed
        self._offered = 0
        self._dropped = 0

    def tick(
        self,
        now: float,
        *,
        live: int,
        down: int,
        recovery: "Iterable[tuple[Any, list[float]]]",
        offered: int,
        dropped: int,
    ) -> None:
        """Record availability, each ``(key, samples)`` healing
        controller's new recovery samples and the shed rate, then evaluate."""
        slo = self._slo
        if "availability" in slo and (live or down):
            slo.record("availability", good=live, bad=down, now=now)
        if "recovery" in slo:
            for key, samples in recovery:
                for ticks in samples[self._recovery_seen.get(key, 0):]:
                    slo.observe("recovery", ticks, now=now)
                self._recovery_seen[key] = len(samples)
        if "shed_rate" in slo:
            d_offered = offered - self._offered
            d_dropped = dropped - self._dropped
            if d_offered:
                slo.record(
                    "shed_rate", good=max(0, d_offered - d_dropped), bad=d_dropped, now=now
                )
            self._offered, self._dropped = offered, dropped
        status = slo.evaluate(now)
        if self._flight is not None:
            if self._metrics is not None:
                self._flight.sample_metrics(self._metrics, now)
            self._flight.note_slo(now, status)


@dataclass
class ServiceStats:
    """Lifetime accounting of one :class:`FabricService`."""

    ticks: int = 0
    offered: int = 0
    admitted: int = 0
    applied: int = 0
    closed: int = 0
    rejected: int = 0
    shed: int = 0
    requeues: int = 0
    lost_sessions: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    outcomes: dict[str, int] = field(default_factory=dict)

    def record(self, response: ServiceResponse) -> None:
        """Fold one terminal response into the tallies."""
        self.outcomes[response.status] = self.outcomes.get(response.status, 0) + 1
        if response.status == "admitted":
            self.admitted += 1
            self.latency_sum += response.latency
            self.latency_max = max(self.latency_max, response.latency)
        elif response.status == "applied":
            self.applied += 1
        elif response.status == "closed":
            self.closed += 1
        elif response.status == "shed":
            self.shed += 1
        elif response.status in ("rejected", "error"):
            self.rejected += 1

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view for reports and the CLI."""
        return {
            "ticks": self.ticks,
            "offered": self.offered,
            "admitted": self.admitted,
            "applied": self.applied,
            "closed": self.closed,
            "rejected": self.rejected,
            "shed": self.shed,
            "requeues": self.requeues,
            "lost_sessions": self.lost_sessions,
            "mean_admission_latency": (
                self.latency_sum / self.admitted if self.admitted else 0.0
            ),
            "max_admission_latency": self.latency_max,
            "outcomes": dict(sorted(self.outcomes.items())),
        }


class FabricService:
    """A long-running conference service over one fabric.

    All configuration is keyword-only and uses the library-wide spelling
    (``tracer=``, ``metrics=``, ``rng=``).  ``retry`` governs both the
    healing controller's restore backoff and the service's own
    re-admission backoff for denied opens.  ``protection``
    (plan budget F, default 0 = reactive) turns on the healing
    controller's precomputed fast failover: faults on protected links
    switch sessions to stored backup plans in O(1) inside the same tick,
    with decisions bit-identical to the reactive service.  ``churn`` (a
    :class:`~repro.core.churn.ChurnPolicy`) governs how ``join`` /
    ``leave`` reshape live routes — incrementally by default, with a
    full reroute when a join would exceed its ``drift_limit`` — and the applied
    response's ``detail`` carries the disruption diff.
    ``perf`` configures the ``capacity_model="buffered"`` overlay and is
    refused in abstract mode, where nothing would read it.  This is the
    one declaration of per-fabric configuration: ``ClusterService``,
    ``run_serve_bench`` and ``run_cluster_bench`` forward every keyword
    they do not own here.
    """

    def __init__(
        self,
        network: ConferenceNetwork,
        *,
        retry: "RetryPolicy | None" = None,
        rng: "int | np.random.Generator | None" = None,
        protection: int = 0,
        churn: "ChurnPolicy | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        slo: "SLOEvaluator | None" = None,
        flight: "FlightRecorder | None" = None,
        queue_capacity: int = 1024,
        shed_policy: "ShedPolicy | str" = ShedPolicy.REJECT_NEWEST,
        max_batch: int = 64,
        capacity_model: str = "abstract",
        perf: "PerfModelConfig | None" = None,
    ):
        validate_capacity_model(capacity_model)
        if perf is not None and capacity_model != "buffered":
            raise ValueError('perf= only applies to capacity_model="buffered"')
        base = ensure_rng(rng)
        healing_rng, self._rng = base.spawn(2)
        self._network = network
        self._healing = SelfHealingController(
            network,
            retry=retry,
            rng=healing_rng,
            protection=protection,
            churn=churn,
            tracer=tracer,
            metrics=metrics,
        )
        self._retry = retry
        self._loop = EventLoop(tracer=tracer)
        self._queue = AdmissionQueue(queue_capacity, shed_policy)
        self._batcher = Batcher(max_batch=max_batch)
        self._sessions = SessionTable()
        self.tracer = tracer
        self._metrics = metrics
        # Live-health observation (see repro.obs.slo / repro.obs.flight):
        # both default to None and every touch point is gated on that, so
        # the SLO engine is bit-transparent to admission and routing.
        self._slo = slo
        self._flight = flight
        self._slo_feed = _SLOFeed(slo, flight, metrics) if slo is not None else None
        self.stats = ServiceStats()
        self._state = "running"  # running -> draining -> closed
        self._next_request_id = 0
        self._pending: dict[int, _Pending] = {}  # request id -> owed verdict
        self._injector: "FaultInjector | None" = None
        # The buffered capacity model is a per-tick observation overlay
        # (see repro.perfmodel.capacity): in the default "abstract" mode
        # nothing is built and no tick-path branch is taken beyond one
        # None check, keeping behaviour byte-identical.
        self._capacity_model = capacity_model
        self._delivery = (
            DeliveryModel(perf, metrics=metrics)
            if capacity_model == "buffered"
            else None
        )
        self._healing.on_drop = self._on_drop
        self._healing.on_restore = self._on_restore
        self._healing.on_lost = self._on_lost

    # -- introspection -----------------------------------------------------

    @property
    def network(self) -> ConferenceNetwork:
        """The conference network being served."""
        return self._network

    @property
    def healing(self) -> SelfHealingController:
        """The fault-reactive controller underneath the service."""
        return self._healing

    @property
    def protection(self) -> int:
        """The healing controller's backup-plan budget F (0 = reactive)."""
        return self._healing.protection

    @property
    def churn_policy(self) -> ChurnPolicy:
        """How join/leave reshape live routes (incremental vs full)."""
        return self._healing.churn_policy

    @property
    def capacity_model(self) -> str:
        """``"abstract"`` (admission ledger only) or ``"buffered"``."""
        return self._capacity_model

    @property
    def delivery(self) -> "DeliveryModel | None":
        """The buffered-switch delivery overlay (``None`` in abstract mode)."""
        return self._delivery

    @property
    def slo(self) -> "SLOEvaluator | None":
        """The attached SLO evaluator, or ``None``."""
        return self._slo

    @property
    def flight(self) -> "FlightRecorder | None":
        """The attached flight recorder, or ``None``."""
        return self._flight

    @property
    def sessions(self) -> SessionTable:
        """The session registry (read-only use, please)."""
        return self._sessions

    @property
    def queue(self) -> AdmissionQueue:
        """The bounded admission queue."""
        return self._queue

    @property
    def now(self) -> float:
        """Current service (virtual) time."""
        return self._loop.now

    @property
    def state(self) -> str:
        """``running``, ``draining``, or ``closed``."""
        return self._state

    # -- fault wiring ------------------------------------------------------

    def attach_faults(
        self, timeline: "tuple[FaultTransition, ...] | list[FaultTransition]"
    ) -> FaultInjector:
        """Schedule a fault timeline against the service's clock.

        Transitions fire during the tick whose window covers their time;
        the healing ladder (and, for unlucky sessions, the requeue path)
        reacts inside the same tick.
        """
        if self._injector is not None:
            raise RuntimeError("a fault timeline is already attached")
        injector = FaultInjector(self._network.topology, script=timeline, tracer=self.tracer)
        self._healing.attach(injector)
        injector.start(self._loop)
        self._injector = injector
        return injector

    # -- synchronous submission (tick-driven mode) -------------------------

    def submit_open(
        self,
        members,
        *,
        priority: Priority = Priority.NORMAL,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        """Queue a conference open; returns the session id.

        The terminal :class:`ServiceResponse` arrives via ``on_complete``
        (immediately when backpressure bounces the request, otherwise
        after the admitting tick).
        """
        members = tuple(int(p) for p in members)
        session = self._sessions.create(members, priority, self.now)
        request = self._make_request(
            RequestKind.OPEN, members=members, priority=priority
        )
        self._submit(request, session.session_id, on_complete)
        return session.session_id

    def submit_join(
        self,
        session_id: int,
        ports,
        *,
        priority: Priority = Priority.NORMAL,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        """Queue a membership grow; returns the request id."""
        request = self._make_request(
            RequestKind.JOIN,
            members=tuple(int(p) for p in ports),
            session_id=session_id,
            priority=priority,
        )
        self._submit(request, session_id, on_complete)
        return request.request_id

    def submit_leave(
        self,
        session_id: int,
        ports,
        *,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        """Queue a membership shrink (control lane; never shed)."""
        request = self._make_request(
            RequestKind.LEAVE,
            members=tuple(int(p) for p in ports),
            session_id=session_id,
        )
        self._submit(request, session_id, on_complete)
        return request.request_id

    def submit_close(
        self, session_id: int, *, on_complete: "CompletionCallback | None" = None
    ) -> int:
        """Queue a session close (control lane; never shed)."""
        request = self._make_request(RequestKind.CLOSE, session_id=session_id)
        self._submit(request, session_id, on_complete)
        return request.request_id

    def _make_request(self, kind: str, **fields) -> SessionRequest:
        request = SessionRequest(
            kind=kind,
            request_id=self._next_request_id,
            submitted_at=self.now,
            **fields,
        )
        self._next_request_id += 1
        return request

    def _submit(
        self,
        request: SessionRequest,
        session_id: "int | None",
        on_complete: "CompletionCallback | None",
    ) -> "ServiceResponse | None":
        pending = self._pending[request.request_id] = _Pending(session_id, on_complete)
        self.stats.offered += 1
        self._count_request(request.kind, "offered")
        if self._state == "closed":
            return self._reject(request, session_id, reason="service-closed")
        if self._state == "draining" and request.kind not in RequestKind.CONTROL:
            return self._reject(request, session_id, reason="draining")
        accepted, shed = self._queue.offer(request)
        for victim in shed:
            self._shed(victim)
        if not accepted:
            return self._reject(request, session_id, reason="backpressure")
        if self.tracer is not None:
            # Captured now so the spans opened when the request finally
            # executes still link into the submitting operation's trace.
            pending.parent = self.tracer.current_parent()
            self.tracer.event(
                "serve.enqueue",
                t=self.now,
                rid=request.request_id,
                op=request.kind,
                depth=self._queue.depth,
            )
        return None

    def _reject(
        self, request: SessionRequest, session_id: "int | None", reason: str
    ) -> ServiceResponse:
        if request.kind == RequestKind.OPEN and session_id is not None:
            self._refuse_open(session_id)
        return self._complete(request, "rejected", session_id, reason=reason)

    def _shed(self, victim: SessionRequest) -> None:
        """A queued request evicted by the shedding policy."""
        pending = self._pending[victim.request_id]
        sid = pending.session
        self._count_shed()
        if pending.restore:
            # Never lose a fault-dropped session to load shedding: put
            # the restore back on backoff instead of a terminal verdict.
            self._backoff_restore(victim)
            return
        if victim.kind == RequestKind.OPEN and sid is not None:
            self._refuse_open(sid)
        self._complete(victim, "shed", sid, reason=f"shed:{self._queue.policy.value}")

    def _refuse_open(self, session_id: int) -> None:
        """A queued open turned away; a session closed meanwhile stays closed."""
        session = self._sessions.require(session_id)
        if session.state is SessionState.QUEUED:
            session.transition(SessionState.REJECTED, self.now)

    # -- the tick ----------------------------------------------------------

    def tick(self) -> BatchReport:
        """Advance one service interval and run its admission pass.

        Order within a tick: the virtual clock advances (firing fault
        transitions and healing/backoff retries that came due), then the
        queued batch is admitted in one pass, then gauges are observed.
        """
        if self._state == "closed":
            raise RuntimeError("cannot tick a closed service")
        self._loop.run(until=self.now + TICK)
        batch = self._batcher.next_batch(self._queue)
        sid = None
        if self.tracer is not None and batch:
            sid = self.tracer.span_open("serve.batch", t=self.now, size=len(batch))
        self._prime_batch(batch)
        report = self._batcher.execute(batch, self._handle, self.now)
        if sid is not None:
            self.tracer.span_close(
                sid, t=self.now, admitted=report.admitted, outcomes=dict(report.outcomes)
            )
        self._reconcile_degraded()
        self.stats.ticks += 1
        self._observe(report)
        if self._delivery is not None:
            healing = self._healing
            self._delivery.on_tick(
                [healing.route_of(cid) for cid in healing.live_conferences]
            )
        if self._slo is not None:
            self._slo_tick()
        return report

    def _prime_batch(self, batch: "list[SessionRequest]") -> None:
        """Route this tick's OPEN backlog and first resizes in one columnar
        kernel pass.

        The per-request admission walk in ``_handle`` then consumes the
        precomputed routes instead of routing one conference at a time;
        decisions are unchanged (the kernel is byte-identical to the
        sequential path) — only the routing work is batched.  Routes a
        :class:`~repro.cluster.controller.ClusterService` already parked
        for this shard are kept, and only the misses are routed here.
        """
        conferences = self._prime_list(batch)
        if conferences:
            self._healing.prime_batch(conferences, include_healthy=True)

    def _next_prime(self) -> "list[Conference]":
        """What :meth:`_prime_batch` would route if this tick's batch were
        drawn now, read off a peek of the queue (nothing is taken)."""
        return self._prime_list(self._queue.peek(self._batcher.max_batch))

    def _prime_list(self, batch: "list[SessionRequest]") -> "list[Conference]":
        """The conferences ``batch``'s admission pass routes first: every
        open whose session is still live, then each session's first
        join/leave, primed with the member set ``_handle_resize`` will ask
        for (a later one starts from a route the first may change, so it
        routes on its own)."""
        conferences = []
        for request in self._batcher.open_requests(batch):
            session = self._sessions.get(self._pending[request.request_id].session)
            if session is None or session.state is SessionState.CLOSED:
                continue  # cancelled while queued: _handle_open rejects it
            conferences.append(
                Conference.of(session.members, conference_id=session.conference_id)
            )
        resized: set[int] = set()
        for request in batch:
            if request.kind not in _RESIZES or request.session_id in resized:
                continue
            resized.add(request.session_id)
            session = self._sessions.get(request.session_id)
            if session is None or session.state not in _ROUTED:
                continue
            wanted = self._wanted_members(request, session)
            if isinstance(wanted, set):
                conferences.append(
                    Conference.of(wanted, conference_id=session.conference_id)
                )
        return conferences

    def _handle(self, request: SessionRequest, batch_seq: int) -> ServiceResponse:
        handler = {
            RequestKind.OPEN: self._handle_open,
            RequestKind.JOIN: self._handle_resize,
            RequestKind.LEAVE: self._handle_resize,
            RequestKind.CLOSE: self._handle_close,
        }[request.kind]
        if self.tracer is not None:
            # Re-establish the causal parent captured at submission so
            # the admission spans parent to the cluster-level operation.
            with self.tracer.context(self._pending[request.request_id].parent):
                return handler(request, batch_seq)
        return handler(request, batch_seq)

    def _handle_open(self, request: SessionRequest, batch_seq: int) -> ServiceResponse:
        pending = self._pending[request.request_id]
        session = self._sessions.require(pending.session)
        if session.state is SessionState.CLOSED:
            # Client closed while the open (or a restore) was queued.
            return self._complete(
                request, "rejected", session.session_id,
                reason="cancelled", batch_seq=batch_seq,
            )
        conference = Conference.of(session.members, conference_id=session.conference_id)
        try:
            route = self._healing.try_join(conference, now=self.now)
        except AdmissionDenied as denial:
            return self._denied_open(request, pending, session, denial, batch_seq)
        restored = pending.restore
        session.transition(SessionState.ACTIVE, self.now)
        if session.conference_id in self._healing.degraded_conferences:
            session.transition(SessionState.DEGRADED, self.now)
        if restored:
            session.generation += 1
        return self._complete(
            request,
            "admitted",
            session.session_id,
            batch_seq=batch_seq,
            detail={"links": route.n_links, "restored": restored},
        )

    def _denied_open(self, request, pending, session, denial, batch_seq) -> ServiceResponse:
        if pending.restore:
            self._backoff_restore(request)  # restores never give up
        elif self._retry is not None and pending.attempts < self._retry.max_retries:
            delay = self._retry.delay(pending.attempts, self._rng)
            pending.attempts += 1
            self._loop.schedule(delay, lambda lp, r=request: self._reoffer(r))
            self._count_request(request.kind, "retry")
        else:
            session.transition(SessionState.REJECTED, self.now)
            return self._complete(
                request, "rejected", session.session_id,
                reason=denial.reason, batch_seq=batch_seq,
            )
        return ServiceResponse(
            ok=False, status="requeued", kind=request.kind,
            request_id=request.request_id, session_id=session.session_id,
            reason=denial.reason, submitted_at=request.submitted_at,
            completed_at=self.now, batch_seq=batch_seq,
        )

    def _reoffer(self, request: SessionRequest) -> None:
        """A backoff re-admission coming due: rejoin the queue."""
        accepted, shed = self._queue.offer(request)
        for victim in shed:
            self._shed(victim)
        if accepted:
            return
        pending = self._pending[request.request_id]
        if pending.restore:
            self._backoff_restore(request)  # keep trying, never lose it
            return
        self._reject(request, pending.session, reason="backpressure")

    def _backoff_restore(self, request: SessionRequest) -> None:
        self._loop.schedule(TICK, lambda lp, r=request: self._reoffer(r))

    def _handle_resize(self, request: SessionRequest, batch_seq: int) -> ServiceResponse:
        session = self._sessions.get(request.session_id)
        if session is None:
            return self._refuse(request, "error", "unknown-session", batch_seq)
        if session.state not in _ROUTED:
            return self._refuse(request, "rejected", f"session-{session.state.value}", batch_seq)
        wanted = self._wanted_members(request, session)
        if not isinstance(wanted, set):
            return self._refuse(request, *wanted, batch_seq)
        ports = set(request.members)
        try:
            churn = self._healing.resize(session.conference_id, sorted(wanted), now=self.now)
        except (AdmissionDenied, UnroutableError) as exc:
            return self._refuse(request, "rejected", getattr(exc, "reason", "fault"), batch_seq)
        if request.kind == RequestKind.JOIN:
            for port in sorted(ports):
                session.add_member(port, self.now)
        else:
            for port in sorted(ports):
                session.remove_member(port, self.now)
        if session.conference_id in self._healing.degraded_conferences:
            session.transition(SessionState.DEGRADED, self.now)
        else:
            session.transition(SessionState.ACTIVE, self.now)
        return self._complete(
            request, "applied", session.session_id,
            batch_seq=batch_seq,
            detail={
                "members": len(session.members),
                "links": churn.after.n_links,
                "links_reconfigured": churn.reconfigured_links,
                "hitless": churn.hitless,
                "mode": churn.mode,
                "taps_moved": len(churn.taps_moved),
                "drift_links": churn.drift_links,
            },
        )

    @staticmethod
    def _wanted_members(request: SessionRequest, session) -> "set[int] | tuple[str, str]":
        """The member set a join/leave asks for, or its ``(status, reason)``
        refusal when the ports do not fit the session's membership."""
        current = set(session.members)
        ports = set(request.members)
        if request.kind == RequestKind.JOIN:
            if current & ports:
                return "error", "already-a-member"
            return current | ports
        if ports - current:
            return "error", "not-a-member"
        wanted = current - ports
        if len(wanted) < 2:
            return "rejected", "too-few-members"
        return wanted

    def _refuse(self, request, status: str, reason: str, batch_seq: int) -> ServiceResponse:
        """A join/leave/close turned away with the fabric untouched."""
        return self._complete(
            request, status, request.session_id, reason=reason, batch_seq=batch_seq
        )

    def _handle_close(self, request: SessionRequest, batch_seq: int) -> ServiceResponse:
        session = self._sessions.get(request.session_id)
        if session is None:
            return self._refuse(request, "error", "unknown-session", batch_seq)
        if session.state in (SessionState.CLOSED, SessionState.REJECTED, SessionState.LOST):
            return self._refuse(request, "error", "already-closed", batch_seq)
        if session.state in _ROUTED:
            self._healing.leave(session.conference_id, now=self.now)
        # QUEUED and DOWN hold no fabric resources; the pending open (or
        # in-flight restore) sees CLOSED when it surfaces and cancels.
        session.transition(SessionState.CLOSED, self.now)
        return self._complete(request, "closed", session.session_id, batch_seq=batch_seq)

    # -- healing hooks -----------------------------------------------------

    def _on_drop(self, loop, conference) -> None:
        session = self._sessions.get(conference.conference_id)
        if session is not None and session.live:
            session.transition(SessionState.DOWN, loop.now)

    def _on_restore(self, loop, route) -> None:
        session = self._sessions.get(route.conference.conference_id)
        if session is None:
            return
        if session.state is SessionState.CLOSED:
            # Closed while down: the controller restored a conference
            # nobody wants any more — tear it straight back down.
            self._healing.leave(session.conference_id)
            return
        session.transition(SessionState.ACTIVE, loop.now)
        if session.conference_id in self._healing.degraded_conferences:
            session.transition(SessionState.DEGRADED, loop.now)
        session.generation += 1

    def _on_lost(self, loop, conference, cause: str) -> None:
        """The controller gave up on a dropped conference: requeue it."""
        session = self._sessions.get(conference.conference_id)
        if session is None or session.state is not SessionState.DOWN:
            return
        session.requeues += 1
        self.stats.requeues += 1
        self._count_request(RequestKind.OPEN, "requeued")
        request = self._make_request(
            RequestKind.OPEN, members=session.members, priority=Priority.INTERACTIVE
        )
        self._pending[request.request_id] = _Pending(session.session_id, restore=True)
        if self.tracer is not None:
            self.tracer.event(
                "serve.requeue", t=loop.now, session=session.session_id, cause=cause
            )
        self._reoffer(request)

    # -- completion plumbing -----------------------------------------------

    def _complete(
        self,
        request: SessionRequest,
        status: str,
        session_id: "int | None",
        reason: "str | None" = None,
        batch_seq: "int | None" = None,
        detail: "dict | None" = None,
    ) -> ServiceResponse:
        response = ServiceResponse(
            ok=status in ("admitted", "applied", "closed"),
            status=status,
            kind=request.kind,
            request_id=request.request_id,
            session_id=session_id,
            reason=reason,
            submitted_at=request.submitted_at,
            completed_at=self.now,
            batch_seq=batch_seq,
            detail=detail or {},
        )
        callback = self._pending.pop(request.request_id).callback
        self.stats.record(response)
        self._count_request(request.kind, status)
        if self._metrics is not None and status == "admitted":
            self._metrics.histogram(
                "repro_serve_admission_latency",
                "Queue + admission latency of admitted opens, in virtual time",
                buckets=SERVE_LATENCY_BUCKETS,
            ).observe(response.latency)
        if self._slo is not None and status == "admitted" and "admission_latency" in self._slo:
            self._slo.observe("admission_latency", response.latency, now=self.now)
        if callback is not None:
            callback(response)
        return response

    # -- state reconciliation & telemetry ----------------------------------

    def _reconcile_degraded(self) -> None:
        degraded = self._healing.degraded_conferences
        if not degraded and not self._sessions.counts()[SessionState.DEGRADED.value]:
            return
        for session in self._sessions.live():
            if session.state is SessionState.ACTIVE and session.conference_id in degraded:
                session.transition(SessionState.DEGRADED, self.now)
            elif session.state is SessionState.DEGRADED and session.conference_id not in degraded:
                session.transition(SessionState.ACTIVE, self.now)

    def _count_request(self, kind: str, status: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "repro_serve_requests_total", "Session requests by kind and outcome"
            ).inc(kind=kind, status=status)

    def _count_shed(self) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "repro_serve_shed_total", "Requests evicted by load shedding, by policy"
            ).inc(policy=self._queue.policy.value)

    def _observe(self, report: BatchReport) -> None:
        reg = self._metrics
        if reg is None:
            return
        depth = reg.gauge("repro_serve_queue_depth", "Admission-queue depth at tick end")
        depth.set(self._queue.depth)
        peak = reg.gauge("repro_serve_queue_peak", "Peak admission-queue depth observed")
        peak.set_max(self._queue.stats.peak_depth)
        reg.histogram(
            "repro_serve_batch_size",
            "Requests admitted per tick in one pass",
            buckets=SERVE_BATCH_BUCKETS,
        ).observe(report.size)
        sessions = reg.gauge("repro_serve_sessions", "Sessions by lifecycle state")
        for state, count in self._sessions.counts().items():
            sessions.set(count, state=state)

    def _slo_tick(self) -> None:
        """Feed this tick's session counts, recovery samples and
        shed + rejected verdicts into the SLO engine."""
        counts = self._sessions.counts()
        self._slo_feed.tick(
            self.now,
            live=counts["active"] + counts["degraded"],
            down=counts["down"],
            recovery=[(None, self._healing.stats.recovery_samples)],
            offered=self.stats.offered,
            dropped=self.stats.shed + self.stats.rejected,
        )

    # -- drain / shutdown --------------------------------------------------

    def drain(self, max_ticks: int = 100_000) -> int:
        """Stop accepting new work and tick until the backlog settles.

        Returns the number of ticks it took.  ``RuntimeError`` if the
        backlog (queued requests, backoff re-admissions, in-flight
        restores) has not settled within ``max_ticks``: the fault
        timeline left the fabric unroutable, or (on a healthy fabric) a
        re-queued restore waits for ports a session admitted meanwhile
        holds, which draining never closes.
        """
        if self._state == "closed":
            raise RuntimeError("cannot drain a closed service")
        self._state = "draining"
        ticks = 0
        while self._pending or len(self._queue) or self._healing.down_conferences:
            if ticks >= max_ticks:
                raise RuntimeError(
                    f"drain did not settle within {max_ticks} ticks "
                    f"({len(self._pending)} in flight, {len(self._queue)} queued, "
                    f"{len(self._healing.down_conferences)} down)"
                )
            self.tick()
            ticks += 1
        return ticks

    def shutdown(self) -> dict[str, int]:
        """Drain, close every remaining live session, and stop.

        Returns the final session tally per state.  Idempotent once
        closed; a closed service refuses new submissions and ticks.
        """
        if self._state != "closed":
            self.drain()
            for session in self._sessions.live():
                if session.state in _ROUTED:
                    self._healing.leave(session.conference_id, now=self.now)
                session.transition(SessionState.CLOSED, self.now)
            self._healing.finalize(self.now)
            self._state = "closed"
        return self._sessions.counts()

    # -- asyncio facade ----------------------------------------------------

    async def open_conference(
        self, members, *, priority: Priority = Priority.NORMAL
    ) -> ServiceResponse:
        """Open a conference and wait for its admission verdict."""
        future = self._future()
        self.submit_open(members, priority=priority, on_complete=self._resolve(future))
        return await future

    async def join(
        self, session_id: int, ports, *, priority: Priority = Priority.NORMAL
    ) -> ServiceResponse:
        """Grow a session's membership and wait for the verdict."""
        future = self._future()
        self.submit_join(
            session_id, ports, priority=priority, on_complete=self._resolve(future)
        )
        return await future

    async def leave(self, session_id: int, ports) -> ServiceResponse:
        """Shrink a session's membership and wait for the verdict."""
        future = self._future()
        self.submit_leave(session_id, ports, on_complete=self._resolve(future))
        return await future

    async def close(self, session_id: int) -> ServiceResponse:
        """Close a session and wait for the teardown confirmation."""
        future = self._future()
        self.submit_close(session_id, on_complete=self._resolve(future))
        return await future

    @staticmethod
    def _future() -> "asyncio.Future[ServiceResponse]":
        return asyncio.get_running_loop().create_future()

    @staticmethod
    def _resolve(future: "asyncio.Future[ServiceResponse]") -> CompletionCallback:
        def callback(response: ServiceResponse) -> None:
            if not future.done():
                future.set_result(response)

        return callback

    async def run(
        self, *, until: "float | None" = None, wall_pace: float = 0.0
    ) -> None:
        """Tick the service from a coroutine until ``until`` (virtual time).

        ``wall_pace`` seconds of real sleep separate ticks (0 merely
        yields control so client coroutines can enqueue between ticks).
        Admission decisions are untouched by pacing — time is virtual.
        """
        while self._state != "closed" and (until is None or self.now < until):
            self.tick()
            await asyncio.sleep(wall_pace)
