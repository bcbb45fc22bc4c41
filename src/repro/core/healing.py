"""Self-healing admission control for live conferences under faults.

The static resilience analysis answers "could this conference be routed
around the fault?"; this module answers the operational question: what
happens to the conferences that are *already up* when a link dies, and
to the calls that arrive while the network is degraded.

:class:`SelfHealingController` layers three mechanisms on top of the
plain :class:`~repro.core.admission.AdmissionController`:

1. **A graceful-degradation ladder** per fault transition.  For every
   live conference whose route uses the dead point, in order:

   * *tap move* — reroute under the new fault set; when the surviving
     route needs **no links beyond those already held** the fix is pure
     output-mux re-selection (the relay's freedom, the paper's
     redundancy mechanism) and can never be blocked;
   * *reroute* — the surviving route claims new links; the swap is
     atomic and capacity-checked only on the added links, accounted
     with the same link-diff the churn machinery uses;
   * *drop* — no surviving route (or no capacity for one): the call is
     torn down and, when a retry policy is configured, queued for
     re-admission.

2. **Repair re-optimization.**  Every repair transition revisits the
   conferences currently running on detour routes and walks them back
   toward their fault-free routes (tap moves preferred), so a network
   with zero live faults converges to exactly the state a healthy one
   would have built — a property the test suite checks.

3. **Bounded exponential-backoff retries.**  Blocked arrivals and
   dropped calls are not lost immediately: they re-attempt admission
   after ``base_delay * backoff**attempt`` (plus deterministic seeded
   jitter), up to ``max_retries`` attempts, then count as
   ``"retry-exhausted"`` / lost.  All delays come from one seeded RNG
   stream, preserving the engine's exact-reproducibility contract.

The controller is deliberately loop-agnostic: it only ever calls
``loop.schedule`` / reads ``loop.now``, so any
:class:`~repro.sim.engine.EventLoop`-shaped object works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.admission import AdmissionController, AdmissionDenied
from repro.core.batch import _prime_routes
from repro.core.churn import ChurnPolicy, ChurnResult, _churn_step, _diff
from repro.core.conference import Conference, ConferenceSet
from repro.core.network import ConferenceNetwork
from repro.core.routing import Route, UnroutableError, _unpack_route
from repro.obs.metrics import DEFAULT_OCCUPANCY_BUCKETS
from repro.protect.plans import BackupPlanStore

# Safe at module level: ``repro.sim``'s package __init__ resolves its
# exports lazily (PEP 562), so importing the metrics leaf does not pull
# ``repro.sim.scenarios`` (which imports this module) back in.
from repro.sim.metrics import AvailabilityStats
from repro.topology.network import Point
from repro.util.rng import ensure_rng
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.sim.engine import EventLoop
    from repro.sim.faults import FaultTransition

__all__ = ["RetryPolicy", "SelfHealingController", "SubmitOutcome"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for blocked or disrupted calls.

    Attempt ``k`` (0-based) waits ``min(base_delay * backoff**k,
    max_delay)``, stretched by up to ``jitter`` (a fraction, drawn from
    the controller's seeded RNG so runs stay reproducible).  After
    ``max_retries`` failed attempts the call is abandoned.
    """

    max_retries: int = 5
    base_delay: float = 0.5
    backoff: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        check_positive(self.base_delay, "base_delay")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        check_positive(self.max_delay, "max_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: "np.random.Generator | None" = None) -> float:
        """The wait before retry number ``attempt`` (0-based)."""
        base = min(self.base_delay * self.backoff**attempt, self.max_delay)
        if self.jitter and rng is not None:
            base *= 1.0 + self.jitter * float(rng.random())
        return base


@dataclass(frozen=True)
class SubmitOutcome:
    """The synchronous verdict of one :meth:`SelfHealingController.submit`.

    Implements the shared result contract of :data:`repro.api.Result`
    (``ok`` / ``reason`` / ``as_dict``).  ``status`` is one of:

    * ``"admitted"`` — the call is up right now; ``route`` is set.
    * ``"queued"`` — admission was denied but retries are scheduled; the
      terminal outcome arrives through the submit callbacks.
    * ``"lost"`` — denied with no retry budget; ``reason`` carries the
      denial reason (``"ports"``, ``"capacity"``, ``"fault"``, or
      ``"retry-exhausted"``).
    """

    status: str
    conference_id: int
    route: "Route | None" = None
    reason: "str | None" = None

    @property
    def ok(self) -> bool:
        """True when the conference was admitted immediately."""
        return self.status == "admitted"

    @property
    def pending(self) -> bool:
        """True when the outcome will arrive later via callbacks."""
        return self.status == "queued"

    def __bool__(self) -> bool:
        return self.ok

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the shared result-serializer contract)."""
        return {
            "kind": "submit_outcome",
            "ok": self.ok,
            "status": self.status,
            "conference_id": self.conference_id,
            "reason": self.reason,
            "links": self.route.n_links if self.route is not None else None,
        }


#: Help strings of the controller's counter families (attached on first use).
_COUNTER_HELP = {
    "repro_admissions_total": "Conference admission attempts by outcome",
    "repro_retries_total": "Retry queue activity by outcome",
    "repro_fault_transitions_total": "Fault transitions handled, by kind",
    "repro_heals_total": "Degradation-ladder actions taken, by action",
    "repro_churn_total": "Membership churn operations applied, by mode",
    "repro_drops_total": "Live conferences dropped, by cause",
    "repro_protect_plans_total": "Backup-plan failover lookups, by outcome",
}


DropListener = Callable[["EventLoop", Conference], None]
RestoreListener = Callable[["EventLoop", Route], None]
LostListener = Callable[["EventLoop", Conference, str], None]


class SelfHealingController:
    """Fault-reactive admission control with retries.

    Mirrors the :class:`~repro.core.admission.AdmissionController`
    interface (``try_join`` / ``leave`` / ledger accessors) but routes
    every join around the *current* fault set, reacts to fault
    transitions with the degradation ladder, and runs the retry queue.

    ``on_drop`` / ``on_restore`` / ``on_lost`` are optional hooks for a
    traffic source to keep its own bookkeeping (port pools, departure
    schedules, blocked counters) in sync with healing decisions.

    ``protection`` (plan budget F, default 0 = purely reactive) enables
    precomputed fast failover: every admitted conference keeps backup
    routings for the F most-loaded links it crosses in a
    :class:`~repro.protect.plans.BackupPlanStore`, and a ``fault.fail``
    on a protected link switches to the stored plan in O(1) instead of
    searching.  Plans are computed by the same pure routing function
    the reactive path uses, so a valid plan's route is **bit-identical**
    to what the reactive reroute would have produced — protection
    changes when routing work happens, never what is decided (the
    property suite in ``tests/protect`` holds the two controllers side
    by side).  Stale or missing plans fall back to the reactive
    search; every lookup outcome lands in the availability stats and the
    ``repro_protect_plans_total`` counter.

    ``churn`` (a :class:`~repro.core.churn.ChurnPolicy`) governs
    :meth:`resize`: by default membership changes go through the
    incremental engine (:func:`~repro.core.churn.extend_route` /
    :func:`~repro.core.churn.prune_route`) and are booked as exact
    deltas, with full reroute as the policy's fallback when tap or
    drift limits are exceeded; ``ChurnPolicy(incremental=False)``
    restores the pre-1.6 reroute-everything behaviour.

    ``tracer`` / ``metrics`` attach observability (see :mod:`repro.obs`):
    the tracer receives per-conference submit/admit/reroute/drop spans
    and retry/degrade events (plus ``heal.fastpath`` spans for planned
    failovers), the registry accumulates admission/heal counters plus
    per-stage link-occupancy histograms and observed
    conflict-multiplicity gauges.  Both are pure observation — decisions
    and RNG streams are identical with or without them.
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
    ):
        if protection < 0:
            raise ValueError(f"protection must be >= 0, got {protection}")
        self._plans = (
            BackupPlanStore(
                network.topology,
                policy=network.policy,
                protection=protection,
                tracer=tracer,
            )
            if protection
            else None
        )
        self._churn = churn or ChurnPolicy()
        self._network = network
        self._inner = AdmissionController(network, tracer=tracer)
        self._retry = retry
        self._stats = AvailabilityStats()
        # Observation only: both default to None and every emission site
        # is gated on that, so instrumented and bare runs make identical
        # decisions and draw identical RNG streams (see tests/obs).
        self.tracer = tracer
        self._metrics = metrics
        self._drop_spans: dict[int, int] = {}  # cid -> open conference.drop span
        self._rng = ensure_rng(rng)
        # Routes precomputed by the columnar kernel for an imminent
        # sequential walk, keyed ``(members, fault set)`` and consumed
        # (popped) by ``_route`` — see ``prime_batch``.
        self._primed: dict[tuple, "tuple | UnroutableError"] = {}
        self._faults: set[Point] = set()
        self._healthy: dict[int, Route] = {}  # cid -> fault-free reference route
        self._degraded: set[int] = set()
        self._down: dict[int, Conference] = {}  # dropped, awaiting retry
        self.on_drop: "DropListener | None" = None
        self.on_restore: "RestoreListener | None" = None
        self.on_lost: "LostListener | None" = None

    # -- introspection -----------------------------------------------------

    @property
    def network(self) -> ConferenceNetwork:
        """The conference network being managed."""
        return self._network

    @property
    def admission(self) -> AdmissionController:
        """The underlying ledger (read its loads in tests/experiments)."""
        return self._inner

    @property
    def stats(self) -> "AvailabilityStats":
        """Availability accounting (shared with the traffic source)."""
        return self._stats

    @property
    def retry_policy(self) -> "RetryPolicy | None":
        """The retry policy, or ``None`` when blocked calls are lost."""
        return self._retry

    @property
    def protection(self) -> int:
        """The per-conference backup-plan budget F (0 = purely reactive)."""
        return self._plans.protection if self._plans is not None else 0

    @property
    def plan_store(self) -> "BackupPlanStore | None":
        """The backup-plan store, or ``None`` when protection is off."""
        return self._plans

    @property
    def churn_policy(self) -> ChurnPolicy:
        """How :meth:`resize` applies membership changes."""
        return self._churn

    @property
    def current_faults(self) -> frozenset[Point]:
        """The dead points the controller currently routes around."""
        return frozenset(self._faults)

    @property
    def live_conferences(self) -> tuple[int, ...]:
        """Ids of currently admitted conferences."""
        return self._inner.live_conferences

    @property
    def degraded_conferences(self) -> frozenset[int]:
        """Ids currently running on fault-detour routes."""
        return frozenset(self._degraded)

    @property
    def down_conferences(self) -> frozenset[int]:
        """Ids dropped by a fault and still awaiting a retry."""
        return frozenset(self._down)

    def route_of(self, conference_id: int) -> Route:
        """The live route of one admitted conference."""
        return self._inner.route_of(conference_id)

    def _route(self, conference: Conference, faults: frozenset = frozenset()) -> Route:
        """Route under an *explicit* fault set, consuming a primed route.

        Primed entries are keyed by the fault set they were computed
        under, so a route primed on the healthy network is never served
        for a degraded one (see :meth:`prime_batch`).
        """
        if self._primed:
            entry = self._primed.pop((conference.members, frozenset(faults)), None)
            if entry is not None:
                return _unpack_route(entry, conference, self._network.topology)
        return self._network.route(conference, faults=faults or None)

    def prime_batch(
        self,
        conferences: "Iterable[Conference]",
        faults: "frozenset[Point] | None" = None,
        include_healthy: bool = False,
    ) -> None:
        """Precompute routes for an imminent sequential walk in one pass.

        One columnar :func:`~repro.core.batch.route_batch` call resolves
        every conference under ``faults`` (default: the current fault
        set); the results are parked where :meth:`_route` looks first,
        so the sequential decision walk that follows consumes them
        one-for-one instead of routing per conference.  Decisions are
        untouched — the kernel's results are byte-identical to the
        per-object path — only the work moves.  With
        ``include_healthy``, the fault-free reference routes that
        :meth:`try_join` also needs under a live fault set are primed
        too.
        """
        confs = [
            c if isinstance(c, Conference) else Conference.of(c) for c in conferences
        ]
        if not confs:
            return
        fault_sets = [frozenset(self._faults) if faults is None else frozenset(faults)]
        if include_healthy and fault_sets[0]:
            fault_sets.append(frozenset())
        self._primed.clear()  # entries are single-shot; drop leftovers
        for fs in fault_sets:
            _prime_routes(
                self._network.topology, confs, self._network.policy, fs,
                self._primed.__setitem__,
            )

    def link_load(self, link: Point) -> int:
        """Current channel load on one inter-stage link."""
        return self._inner.link_load(link)

    def peak_load(self) -> int:
        """The worst current link load (0 when idle)."""
        return self._inner.peak_load()

    def snapshot(self) -> ConferenceSet:
        """The live conferences as a validated set."""
        return self._inner.snapshot()

    # -- admission under faults --------------------------------------------

    def try_join(
        self,
        conference: "Conference | list[int] | tuple[int, ...]",
        now: "float | None" = None,
    ) -> Route:
        """Admit a conference routed around the current fault set.

        Raises :class:`AdmissionDenied` with reason ``"ports"``,
        ``"capacity"``, or — new here — ``"fault"`` when no surviving
        route exists at all.  ``now`` (simulation time, when the caller
        knows it) only timestamps the trace span.
        """
        if not isinstance(conference, Conference):
            conference = Conference.of(conference)
        tr = self.tracer
        sid = None
        if tr is not None:
            sid = tr.span_open(
                "conference.submit",
                t=now,
                cid=conference.conference_id,
                size=len(conference.members),
            )
        try:
            route = self._admit(conference)
        except AdmissionDenied as denial:
            if sid is not None:
                tr.span_close(sid, t=now, status="denied", reason=denial.reason)
            self._count("repro_admissions_total", outcome=denial.reason)
            raise
        if sid is not None:
            tr.span_close(
                sid,
                t=now,
                status="admitted",
                links=route.n_links,
                degraded=conference.conference_id in self._degraded,
            )
        self._count("repro_admissions_total", outcome="admitted")
        return route

    def _admit(self, conference: Conference) -> Route:
        clash = self._inner._port_clash(conference.members)
        if clash:
            raise AdmissionDenied("ports", f"ports {sorted(clash)} already in a conference")
        faults = frozenset(self._faults)
        try:
            route = self._route(conference, faults)
        except UnroutableError as exc:
            raise AdmissionDenied("fault", str(exc)) from exc
        self._inner.admit_route(route)
        cid = conference.conference_id
        if faults:
            self._healthy[cid] = self._route(conference)
            if route != self._healthy[cid]:
                self._degraded.add(cid)
        else:
            self._healthy[cid] = route
        self._protect(route)
        return route

    def leave(self, conference_id: int, now: "float | None" = None) -> None:
        """Tear down a live conference (normal call completion)."""
        self._inner.leave(conference_id)
        self._healthy.pop(conference_id, None)
        self._degraded.discard(conference_id)
        if self._plans is not None:
            self._plans.invalidate(conference_id)
        if now is not None:
            self._observe(now)

    def resize(
        self,
        conference_id: int,
        members: "tuple[int, ...] | list[int]",
        now: "float | None" = None,
    ) -> ChurnResult:
        """Change a live conference's membership (members join/leave).

        Pure joins and pure leaves go through the incremental churn
        engine under the controller's :class:`ChurnPolicy` (the default):
        only the exact link diff is booked against the ledger, backup
        plans crossing the touched links are invalidated in place, and the returned
        :class:`~repro.core.churn.ChurnResult` carries the disruption
        diff (``links_added``/``links_removed``/``taps_moved``/
        ``drift_links``).  Mixed changes, ``incremental=False``, and
        policy-limit fallbacks reroute from scratch (``mode`` says
        which path ran).  Raises :class:`AdmissionDenied` (and leaves
        the old route live) when a wanted port is taken or capacity
        refuses the added links,
        :class:`~repro.core.routing.UnroutableError` when no surviving
        route exists for the new membership, and
        :class:`~repro.core.churn.ChurnLimitExceeded` when a limit
        trips under ``fallback="raise"``.
        """
        old = self._inner.route_of(conference_id)
        conference = Conference.of(members, conference_id=conference_id)
        faults = frozenset(self._faults)
        churn = self._resize_churn(old, conference, faults)
        new = self._inner.apply_churn(churn)
        self._healthy[conference_id] = self._route(conference) if faults else new
        self._update_degraded(conference_id, new, now=now)
        touched = churn.links_added | churn.links_removed
        if touched and self._plans is not None:
            self._plans.invalidate_links(touched)
        self._protect(new)
        if self.tracer is not None:
            self.tracer.event(
                "conference.resize",
                t=now,
                cid=conference_id,
                size=len(conference.members),
                mode=churn.mode,
                hitless=churn.hitless,
                drift=churn.drift_links,
                links_touched=churn.reconfigured_links,
            )
        self._count("repro_heals_total", action="resize")
        self._count("repro_churn_total", mode=churn.mode)
        if now is not None:
            self._observe(now)
        return churn

    def _resize_churn(
        self, old: Route, conference: Conference, faults: frozenset
    ) -> ChurnResult:
        """Compute the membership change under the churn policy.

        Pure joins extend the live route, pure leaves prune it; mixed
        changes and ``incremental=False`` reroute from scratch (through
        the same router, so the full path stays bit-identical to the
        pre-churn behaviour).
        """
        policy = self._churn
        joined = sorted(conference.member_set - old.conference.member_set)
        left = sorted(old.conference.member_set - conference.member_set)
        incremental = policy.incremental and bool(joined) != bool(left)
        if not incremental:
            after = self._route(conference, faults)
            reason = None if policy.incremental else "policy"
            if policy.incremental and joined and left:
                reason = "mixed-change"
            return _diff(old, after, mode="full-reroute", fallback_reason=reason)
        # The same step as extend_route / prune_route (a leave pins
        # nothing), with the natural route served primed when it can be.
        return _churn_step(
            self._network.topology, old, conference.members,
            {} if left else dict(old.taps), self._network.policy, faults,
            lambda conf: self._route(conf, faults),
            policy,
        )

    # -- retrying admission (arrivals) -------------------------------------

    def submit(
        self,
        loop: "EventLoop",
        conference: Conference,
        on_admitted: "Callable[[EventLoop, Route], None] | None" = None,
        on_lost: "LostListener | None" = None,
    ) -> SubmitOutcome:
        """Admit now or enqueue retries.

        Returns a :class:`SubmitOutcome` describing the synchronous
        verdict — ``admitted`` (with the route), ``queued`` (retries are
        scheduled; the terminal outcome arrives via the callbacks), or
        ``lost`` (denied with no retry budget).
        """
        return self._attempt_submit(loop, conference, on_admitted, on_lost, attempt=0)

    def _attempt_submit(self, loop, conference, on_admitted, on_lost, attempt):
        cid = conference.conference_id
        try:
            route = self.try_join(conference, now=loop.now)
        except AdmissionDenied as denial:
            if self._retry is None:
                self._trace_lost(loop, conference, denial.reason)
                if on_lost:
                    on_lost(loop, conference, denial.reason)
                return SubmitOutcome("lost", cid, reason=denial.reason)
            if attempt >= self._retry.max_retries:
                self._stats.retries_exhausted += 1
                self._count("repro_retries_total", outcome="exhausted")
                self._trace_lost(loop, conference, "retry-exhausted")
                if on_lost:
                    on_lost(loop, conference, "retry-exhausted")
                return SubmitOutcome("lost", cid, reason="retry-exhausted")
            self._schedule_retry(
                loop,
                attempt,
                lambda lp: self._attempt_submit(lp, conference, on_admitted, on_lost, attempt + 1),
                cid=cid,
            )
            return SubmitOutcome("queued", cid, reason=denial.reason)
        if attempt > 0:
            self._stats.retries_succeeded += 1
            self._count("repro_retries_total", outcome="succeeded")
        if on_admitted:
            on_admitted(loop, route)
        self._observe(loop.now)
        return SubmitOutcome("admitted", cid, route=route)

    def _schedule_retry(self, loop, attempt: int, action, cid: "int | None" = None) -> None:
        self._stats.retries_scheduled += 1
        # Draw the delay before tracing so the RNG call sequence is the
        # same with and without a tracer attached.
        delay = self._retry.delay(attempt, self._rng)
        if self.tracer is not None:
            self.tracer.event(
                "conference.retry", t=loop.now, cid=cid, attempt=attempt, delay=delay
            )
        self._count("repro_retries_total", outcome="scheduled")
        loop.schedule(delay, action)

    # -- fault transitions -------------------------------------------------

    def attach(self, injector) -> None:
        """Subscribe to a :class:`~repro.sim.faults.FaultInjector`."""
        injector.subscribe(self.handle_transition)

    def handle_transition(self, loop: "EventLoop", transition: "FaultTransition") -> None:
        """Injector callback: dispatch one failure/repair transition."""
        if transition.failed:
            self.apply_fault(loop, transition.point)
        else:
            self.apply_repair(loop, transition.point)

    def apply_fault(self, loop: "EventLoop", point: Point) -> None:
        """A point died: walk every affected live conference down the
        degradation ladder (tap move, then reroute, then drop).

        With protection on, affected conferences holding a valid backup
        plan for ``point`` switch to it in O(1) first; only stale or
        missing plans pay the reactive route search.  A ``fail`` of an
        already-failed point is an **explicit no-op** (the controller is
        already routing around it; nothing is recounted or re-healed) —
        duplicate transitions can reach here when several injectors or a
        manual driver share one controller.
        """
        if point in self._faults:
            return  # duplicate fail: already routing around this point
        self._faults.add(point)
        self._stats.record_link_failed(loop.now, point)
        self._count("repro_fault_transitions_total", kind="fail")
        faults = frozenset(self._faults)
        affected = [
            cid
            for cid in sorted(self._inner.live_conferences)
            if point in self._inner.route_of(cid).points
        ]
        if self._plans is None:
            # Reactive healing reroutes every affected conference: do the
            # routing in one columnar pass, then walk the ladder.  (With
            # protection on, plan hits skip routing entirely — priming
            # would compute routes the fastpath never asks for.)
            self.prime_batch(
                [self._inner.route_of(cid).conference for cid in affected],
                faults=faults,
            )
        for cid in affected:
            self._heal(loop, cid, self._inner.route_of(cid), faults, point=point)
        self._reprotect(faults)
        self._observe(loop.now)

    def apply_repair(self, loop: "EventLoop", point: Point) -> None:
        """A point came back: walk degraded conferences toward their
        fault-free routes (tap moves preferred, reroutes if capacity
        allows; a conference that cannot improve stays degraded).

        A ``repair`` of a point that was never failed is an **explicit
        no-op**, mirroring :meth:`apply_fault`'s duplicate handling.
        """
        if point not in self._faults:
            return  # repair of a point this controller never saw fail
        self._faults.discard(point)
        self._stats.record_link_repaired(loop.now, point)
        self._count("repro_fault_transitions_total", kind="repair")
        faults = frozenset(self._faults)
        self.prime_batch(
            [self._inner.route_of(cid).conference for cid in sorted(self._degraded)],
            faults=faults,
        )
        for cid in sorted(self._degraded):
            cur = self._inner.route_of(cid)
            try:
                new = self._route(cur.conference, faults)
            except UnroutableError:  # pragma: no cover - repairs only add paths
                continue
            if new == cur:
                continue
            if not self._swap(cid, cur, new, now=loop.now):
                continue  # no capacity for the better route yet
            self._update_degraded(cid, new, now=loop.now)
        self._reprotect(faults)
        self._observe(loop.now)

    def _heal(
        self, loop, cid: int, old: Route, faults: frozenset, point: "Point | None" = None
    ) -> None:
        """One disrupted conference: planned fast failover, else reactive.

        ``point`` (the failed point, when healing is driven by a fault
        transition) selects the backup plan; a valid plan resolves the
        surviving route — or the certainty that none exists — in O(1)
        and bit-identically to the reactive search, so only the recovery
        cost model (0 ticks vs 1) distinguishes the two paths.
        """
        new: "Route | None" = None
        sid = None
        fastpath = False
        tr = self.tracer
        if self._plans is not None and point is not None:
            status, payload = self._plans.lookup(old.conference, point, faults)
            self._stats.record_plan_lookup(status)
            self._count("repro_protect_plans_total", outcome=status)
            if status == "hit":
                fastpath = True
                self._stats.record_recovery(0.0)
                if tr is not None:
                    sid = tr.span_open(
                        "heal.fastpath", t=loop.now, cid=cid,
                        level=point[0], row=point[1],
                    )
                if isinstance(payload, UnroutableError):
                    # Negative plan: the drop is precomputed too.
                    if sid is not None:
                        tr.span_close(sid, t=loop.now, status="dropped")
                    self._drop(loop, cid, "fault")
                    return
                new = payload
        if new is None:
            if not fastpath and point is not None:
                self._stats.record_recovery(1.0)  # reactive route search
            try:
                new = self._route(old.conference, faults)
            except UnroutableError:
                self._drop(loop, cid, "fault")
                return
        if new != old and not self._swap(cid, old, new, now=loop.now):
            if sid is not None:
                tr.span_close(sid, t=loop.now, status="denied")
            self._drop(loop, cid, "capacity")
            return
        if sid is not None:
            tr.span_close(sid, t=loop.now, status="switched", links=new.n_links)
        self._update_degraded(cid, new, now=loop.now)

    def _swap(self, cid: int, old: Route, new: Route, now: "float | None" = None) -> bool:
        """Apply one ladder step; returns False when capacity refuses it."""
        tr = self.tracer
        added = new.links - old.links
        if not added:
            # Pure output-mux re-selection (plus possibly releasing
            # links): the hitless rung, it can never be denied.
            self._inner.replace_route(cid, new)
            moved = sum(
                1 for p in old.conference.members if old.taps[p] != new.taps[p]
            )
            self._stats.record_tap_move(moved)
            if tr is not None:
                tr.event("conference.tap_move", t=now, cid=cid, moved=moved)
            self._count("repro_heals_total", action="tap_move")
            return True
        sid = tr.span_open("conference.reroute", t=now, cid=cid) if tr is not None else None
        try:
            self._inner.replace_route(cid, new)
        except AdmissionDenied:
            if sid is not None:
                tr.span_close(sid, t=now, status="denied")
            self._count("repro_heals_total", action="reroute-denied")
            return False
        touched = len(added) + len(old.links - new.links)
        if sid is not None:
            tr.span_close(sid, t=now, status="ok", links_touched=touched)
        self._stats.record_reroute(touched)
        self._count("repro_heals_total", action="reroute")
        return True

    # -- backup-plan maintenance (off the failover critical path) ----------

    def _protect(self, *routes: Route, faults: "frozenset | None" = None) -> None:
        """(Re)plan the backup routings of live routes (default: under the
        current fault set), protecting each route's busiest links."""
        if self._plans is not None:
            self._plans.protect(
                routes,
                frozenset(self._faults) if faults is None else faults,
                self._inner._busiest_links,
            )

    def _reprotect(self, faults: frozenset) -> None:
        """Re-plan every live conference after a fault-set change.

        Runs *after* the transition's healing walk, so the O(1) switch
        already happened; this is the background work that keeps plans
        valid for the *next* single fault on top of the new set.  Plans
        whose conference was unaffected are recut too — their old base
        fault set no longer matches, so they would only ever be stale.
        """
        if self._plans is not None:
            live = sorted(self._inner.live_conferences)
            self._protect(*map(self._inner.route_of, live), faults=faults)

    def _update_degraded(self, cid: int, route: Route, now: "float | None" = None) -> None:
        was = cid in self._degraded
        healthy = self._healthy.get(cid)
        if healthy is None:  # pragma: no cover - defensive
            healthy = self._healthy[cid] = self._route(route.conference)
        if route == healthy:
            self._degraded.discard(cid)
        else:
            self._degraded.add(cid)
        if self.tracer is not None and (cid in self._degraded) != was:
            self.tracer.event(
                "conference.recover" if was else "conference.degrade", t=now, cid=cid
            )

    # -- drops and restores ------------------------------------------------

    def _drop(self, loop, cid: int, cause: str) -> None:
        route = self._inner.route_of(cid)
        self._inner.leave(cid)
        self._healthy.pop(cid, None)
        self._degraded.discard(cid)
        if self._plans is not None:
            self._plans.invalidate(cid)
        self._stats.record_drop(cause)
        self._count("repro_drops_total", cause=cause)
        if self.tracer is not None:
            # The drop span stays open across the outage; it closes at
            # restore ("restored") or when retries run out ("lost").
            self._drop_spans[cid] = self.tracer.span_open(
                "conference.drop", t=loop.now, cid=cid, cause=cause
            )
        conference = route.conference
        if self.on_drop:
            self.on_drop(loop, conference)  # opens the outage window
        if self._retry is None:
            self._stats.abandon_outage(cid)
            self._close_drop_span(cid, loop.now, "lost")
            if self.on_lost:
                self.on_lost(loop, conference, cause)
            return
        self._down[cid] = conference
        self._schedule_retry(
            loop, 0, lambda lp: self._attempt_restore(lp, conference, attempt=1), cid=cid
        )

    def _attempt_restore(self, loop, conference: Conference, attempt: int) -> None:
        cid = conference.conference_id
        if cid not in self._down:  # pragma: no cover - defensive
            return
        try:
            route = self.try_join(conference, now=loop.now)
        except AdmissionDenied:
            if attempt >= self._retry.max_retries:
                del self._down[cid]
                self._stats.retries_exhausted += 1
                self._count("repro_retries_total", outcome="exhausted")
                self._stats.abandon_outage(cid)
                self._close_drop_span(cid, loop.now, "lost")
                if self.on_lost:
                    self.on_lost(loop, conference, "retry-exhausted")
                self._observe(loop.now)
                return
            self._schedule_retry(
                loop,
                attempt,
                lambda lp: self._attempt_restore(lp, conference, attempt + 1),
                cid=cid,
            )
            return
        del self._down[cid]
        self._stats.retries_succeeded += 1
        self._count("repro_retries_total", outcome="succeeded")
        self._stats.close_outage(cid, loop.now)
        self._close_drop_span(cid, loop.now, "restored")
        if self.on_restore:
            self.on_restore(loop, route)
        self._observe(loop.now)

    def _close_drop_span(self, cid: int, now: "float | None", status: str) -> None:
        sid = self._drop_spans.pop(cid, None)
        if sid is not None:
            self.tracer.span_close(sid, t=now, status=status)

    def _trace_lost(self, loop, conference: Conference, reason: str) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "conference.lost",
                t=loop.now,
                cid=conference.conference_id,
                reason=reason,
            )

    # -- accounting --------------------------------------------------------

    def _count(self, name: str, **labels) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, _COUNTER_HELP.get(name, "")).inc(**labels)

    def _observe(self, now: float) -> None:
        # The ledger's own route map: ``live_conferences`` would build a
        # tuple of every live id only to take its length.
        live = len(self._inner._routes)
        self._stats.observe(
            now,
            live=live,
            degraded=len(self._degraded),
            down=len(self._down),
        )
        reg = self._metrics
        if reg is None:
            return
        peak = reg.gauge(
            "repro_conferences_peak", "Peak concurrent conferences by state"
        )
        peak.set_max(live, state="live")
        peak.set_max(len(self._degraded), state="degraded")
        peak.set_max(len(self._down), state="down")
        if self._plans is not None:
            reg.gauge(
                "repro_protect_plans_resident", "Backup plans currently stored"
            ).set(len(self._plans))
        occupancy = reg.histogram(
            "repro_link_occupancy",
            "Channel load of each occupied inter-stage link per observation, by entering stage",
            buckets=DEFAULT_OCCUPANCY_BUCKETS,
        )
        multiplicity = reg.gauge(
            "repro_conflict_multiplicity",
            "Peak observed conflict multiplicity (max link load) per entering stage",
        )
        for level, loads in self._inner.stage_loads().items():
            stage = str(level)
            for load in loads:
                occupancy.observe(load, stage=stage)
            multiplicity.set_max(max(loads), stage=stage)

    def finalize(self, now: float) -> None:
        """Close the availability integrals at the simulation horizon."""
        self._stats.finalize(now)
