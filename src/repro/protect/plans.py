"""Precomputed per-link backup routings with O(1) fast failover.

The healing ladder in :mod:`repro.core.healing` is *reactive*: only
after a ``fault.fail`` transition does it search for a surviving route,
so recovery cost scales with the reroute search.  This module moves
that work off the failure path, in the shape SDN fast-failover groups
use for multicast trees (a backup tree pre-installed per protected
link, switched in without controller involvement): for each admitted
conference, the :class:`BackupPlanStore` holds an alternate routing
plan for each of the ``F`` most-loaded links the live route crosses —
``F`` is the *protection level* — and the controller handles a fault on
a protected link by switching to the stored plan in O(1).

Correctness rests on one fact: routing is a pure function of
``(topology, policy, members, fault set)``.  A plan
is computed by the *same* router the reactive path would call, under
the fault set ``base ∪ {point}`` — so a plan that is still **valid**
(its base fault set is exactly the current fault set minus the failed
point, and the membership is unchanged) yields a route *bit-identical*
to what the reactive reroute would have produced.  The property suite
in ``tests/protect`` proves this for arbitrary conferences and fault
sets.  Any divergence — membership churn since the plan was cut, or an
overlapping fault the plan did not anticipate — makes the lookup report
``stale`` and the controller falls back to the reactive search, so
protection can change *when* work happens but never *what* is decided.

Unroutable outcomes are planned too: a **negative plan** records that
the conference cannot survive the protected link's death, so the
controller can drop it in O(1) instead of re-discovering the dead end.

Memory is the price: each positive plan stores one ``(levels, taps)``
route body, so a store holds at most ``live conferences × F`` plans.
:meth:`BackupPlanStore.footprint` reports the realized cost for the
memory-vs-F tradeoff table in ``benchmarks/results/``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core.conference import Conference
from repro.core.routing import (
    Route,
    RoutingPolicy,
    UnroutableError,
    _body_crosses,
    _pack_route,
    _unpack_route,
)
from repro.topology.network import MultistageNetwork, Point

__all__ = ["BackupPlan", "PlanStats", "BackupPlanStore"]

_NO_FAULTS: frozenset[Point] = frozenset()

#: ``router(conference, faults)`` -> Route, raising UnroutableError.
PlanRouter = Callable[[Conference, frozenset], Route]

#: ``router(conferences, points, base)`` -> for each pair, the route of
#: the conference under ``base | {point}`` or its UnroutableError.
PlanBatchRouter = Callable[
    [list[Conference], list[Point], frozenset], "list[Route | UnroutableError]"
]

#: ``ranked(route, k)`` -> up to ``k`` of the route's links, most-loaded first.
LinkRanking = Callable[[Route, int], list[Point]]


@dataclass
class PlanStats:
    """Accounting of one :class:`BackupPlanStore`.

    ``hits`` / ``stale`` / ``misses`` classify failover lookups (a hit
    includes negative plans — knowing a drop is unavoidable is also a
    fast path); ``computed`` / ``unroutable`` / ``invalidated`` track
    the plan population itself.
    """

    computed: int = 0
    unroutable: int = 0  # negative plans among ``computed``
    hits: int = 0
    misses: int = 0
    stale: int = 0
    invalidated: int = 0

    @property
    def lookups(self) -> int:
        """Total failover lookups served."""
        return self.hits + self.misses + self.stale

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from a valid plan (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "PlanStats") -> "PlanStats":
        """The combined accounting of two stores, as a new instance."""
        return PlanStats(
            computed=self.computed + other.computed,
            unroutable=self.unroutable + other.unroutable,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            stale=self.stale + other.stale,
            invalidated=self.invalidated + other.invalidated,
        )

    @classmethod
    def merged(cls, many: "Iterable[PlanStats]") -> "PlanStats":
        """Fold any number of per-store stats into one total."""
        total = cls()
        for stats in many:
            total = total.merge(stats)
        return total

    def as_dict(self) -> dict:
        """A plain-dict view (picklable; includes the derived fields)."""
        return {
            "computed": self.computed,
            "unroutable": self.unroutable,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "invalidated": self.invalidated,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class BackupPlan:
    """One precomputed failover routing for ``(conference, point)``.

    ``entry`` is either a ``(levels, taps)`` route body — the same
    storage shape primed routes use — or an :class:`UnroutableError`
    recording that the conference cannot survive ``point``'s death (a
    negative plan).  ``base_faults`` is the fault set in force when the
    plan was cut; the plan covers exactly the fault set
    ``base_faults | {point}`` and no other.
    """

    members: tuple[int, ...]
    point: Point
    base_faults: frozenset[Point]
    entry: "tuple | UnroutableError" = field(repr=False)

    @property
    def unroutable(self) -> bool:
        """True for a negative plan (the fault is fatal to this call)."""
        return isinstance(self.entry, UnroutableError)

    def covers(self, members: tuple[int, ...], faults: frozenset) -> bool:
        """Is this plan valid for ``members`` under ``faults`` right now?

        Valid means bit-identity is guaranteed: same membership, and the
        current fault set is exactly the one the plan was computed for.
        """
        return self.members == members and faults == (self.base_faults | {self.point})

    @property
    def route_cells(self) -> int:
        """Stored routing-table entries (the memory proxy): switch→output
        assignments across all levels plus the per-member taps."""
        if self.unroutable:
            return 0
        levels, taps = self.entry
        return sum(len(level) for level in levels) + len(taps)


class BackupPlanStore:
    """Fault-aware store of per-link backup routings for live conferences.

    Bound to one network and one routing policy at construction.
    Plans are keyed ``(conference id, protected point)``; the conference
    id (not the membership) keys the store because plans follow the
    *lifecycle* of an admitted call — :meth:`invalidate` on leave/drop
    must clear exactly that call's plans.

    ``protection`` is the per-conference plan budget F: each
    :meth:`protect` call plans the F most-loaded links of the live
    route.  ``protection=0`` disables the store entirely (every lookup
    misses, nothing is computed) — the pre-protection behaviour.

    The store never routes by itself: :meth:`protect` calls the
    ``router`` the owning controller hands it, which is the same pure
    function the reactive path uses — that sameness is what makes fast
    failover bit-identical.  The self-healing controller hands the same
    planning body a batch router built on the kernel's fault overlay,
    so one call plans every backup of a re-protect.
    """

    def __init__(
        self,
        network: MultistageNetwork,
        policy: "RoutingPolicy | None" = None,
        protection: int = 1,
        tracer=None,
    ):
        if protection < 0:
            raise ValueError(f"protection must be >= 0, got {protection}")
        self._network = network
        self._policy = policy or RoutingPolicy()
        self._protection = protection
        self._plans: dict[int, dict[Point, BackupPlan]] = {}
        self.stats = PlanStats()
        # Observation only (duck-typed repro.obs.trace.Tracer): lookups
        # emit plan.hit / plan.stale / plan.miss events.
        self.tracer = tracer

    # -- introspection -----------------------------------------------------

    @property
    def network(self) -> MultistageNetwork:
        """The network plans are computed on."""
        return self._network

    @property
    def policy(self) -> RoutingPolicy:
        """The routing policy baked into every plan."""
        return self._policy

    @property
    def protection(self) -> int:
        """The per-conference plan budget F."""
        return self._protection

    def __len__(self) -> int:
        return sum(len(plans) for plans in self._plans.values())

    def plans_of(self, conference_id: int) -> dict[Point, BackupPlan]:
        """The stored plans of one conference (a copy), keyed by point."""
        return dict(self._plans.get(conference_id, {}))

    def protected_points(self, conference_id: int) -> frozenset[Point]:
        """The points one conference currently holds plans for."""
        return frozenset(self._plans.get(conference_id, ()))

    def footprint(self) -> dict[str, int]:
        """Realized memory cost, for the memory-vs-F tradeoff table.

        ``route_cells`` counts stored switch→output assignments plus
        per-member taps — the dominant storage — across all positive
        plans; negative plans cost only their key.
        """
        plans = [p for by_point in self._plans.values() for p in by_point.values()]
        return {
            "protection": self._protection,
            "conferences": len(self._plans),
            "plans": len(plans),
            "negative_plans": sum(1 for p in plans if p.unroutable),
            "route_cells": sum(p.route_cells for p in plans),
        }

    # -- plan lifecycle ----------------------------------------------------

    def protect(
        self,
        conference: Conference,
        route: Route,
        faults: frozenset,
        router: PlanRouter,
        load_of: "Callable[[Point], int] | None" = None,
    ) -> int:
        """(Re)plan one conference: cover the F most-loaded links of
        ``route`` against single additional faults on top of ``faults``.

        Any previous plans of the conference are replaced wholesale (so
        membership churn or a changed live route can never leave a plan
        for a link the call no longer crosses).  ``load_of`` ranks the
        route's links by current channel load, most-loaded first (ties
        broken by point order, for determinism); without it the ranking
        degenerates to point order.  Returns the number of plans stored.
        """
        def ranked(route: Route, k: int) -> list[Point]:
            links = sorted(route.links)
            if load_of is not None:
                links.sort(key=lambda p: (-load_of(p), p))
            return links[:k]

        def route_each(conferences, points, base):
            outcomes: "list[Route | UnroutableError]" = []
            for conf, point in zip(conferences, points):
                try:
                    outcomes.append(router(conf, base | {point}))
                except UnroutableError as exc:
                    outcomes.append(exc)
            return outcomes

        return self._protect_many([(conference, route)], faults, ranked, route_each)

    def _protect_many(
        self,
        pairs: "list[tuple[Conference, Route]]",
        faults: frozenset,
        ranked: LinkRanking,
        router: PlanBatchRouter,
    ) -> int:
        """(Re)plan several conferences with one ``router`` call.

        The planning body behind :meth:`protect`: each conference's
        previous plans are dropped, ``ranked`` picks its F protected
        links, and every ``(conference, point)`` pair is routed in one
        batch.  Plans are stored in pair order, then link rank, exactly
        as one :meth:`protect` call per pair would store them.  Returns
        the number of plans stored.
        """
        for conference, _ in pairs:
            self._plans.pop(conference.conference_id, None)
        if self._protection == 0:
            return 0
        base = frozenset(faults) if faults else _NO_FAULTS
        conferences: list[Conference] = []
        points: list[Point] = []
        for conference, route in pairs:
            for point in ranked(route, self._protection):
                conferences.append(conference)
                points.append(point)
        if not points:
            return 0
        outcomes = router(conferences, points, base)
        for conference, point, outcome in zip(conferences, points, outcomes):
            if isinstance(outcome, UnroutableError):
                self.stats.unroutable += 1
            self._plans.setdefault(conference.conference_id, {})[point] = BackupPlan(
                members=conference.members,
                point=point,
                base_faults=base,
                entry=_pack_route(outcome),
            )
            self.stats.computed += 1
        return len(points)

    def lookup(
        self, conference: Conference, point: Point, faults: frozenset
    ) -> "tuple[str, Route | UnroutableError | None]":
        """The O(1) failover step: fetch the plan covering ``point``.

        Returns ``(status, payload)`` where status is:

        * ``"hit"`` — a valid plan covers the fault; payload is the
          stored :class:`~repro.core.routing.Route` (rebuilt around the
          requesting conference) or, for a negative plan, the recorded
          :class:`UnroutableError` — either way identical to what the
          reactive path would compute;
        * ``"stale"`` — a plan exists but its base fault set or
          membership no longer matches (overlapping fault, churn);
          payload is ``None`` and the caller must fall back;
        * ``"miss"`` — no plan for this point (unprotected link, or the
          conference was never planned); payload is ``None``.
        """
        cid = conference.conference_id
        faults = frozenset(faults)
        plan = self._plans.get(cid, {}).get(point)
        if plan is None:
            self.stats.misses += 1
            self._trace("plan.miss", cid, point)
            return "miss", None
        if not plan.covers(conference.members, faults):
            self.stats.stale += 1
            self._trace("plan.stale", cid, point)
            return "stale", None
        self.stats.hits += 1
        self._trace("plan.hit", cid, point)
        if plan.unroutable:
            return "hit", UnroutableError(*plan.entry.args)
        return "hit", _unpack_route(plan.entry, conference, self._network)

    def invalidate(self, conference_id: int) -> int:
        """Drop every plan of one conference (leave/close/drop).

        Returns the number of plans removed; unknown ids are a no-op.
        """
        removed = len(self._plans.pop(conference_id, ()))
        self.stats.invalidated += removed
        return removed

    def invalidate_links(self, links: "Iterable[Point]") -> list[int]:
        """Drop exactly the plans that touch any of ``links``.

        The scoped form of :meth:`invalidate` used by membership churn:
        a plan is affected when its *protected point* is one of the
        touched links or its stored backup route *crosses* one (the
        link's load just changed, so the plan's capacity assumptions —
        and the most-loaded-first ranking that chose it — are stale).
        Plans elsewhere survive, so a hitless in-block join replans
        nothing but the conferences actually sharing the graft.
        Returns the affected conference ids, for targeted re-planning.
        """
        touched = frozenset(links)
        if not touched:
            return []
        affected: list[int] = []
        for cid in list(self._plans):
            plans = self._plans[cid]
            doomed = [
                point
                for point, plan in plans.items()
                if point in touched or _body_crosses(plan.entry, touched)
            ]
            if not doomed:
                continue
            for point in doomed:
                del plans[point]
            self.stats.invalidated += len(doomed)
            affected.append(cid)
            if not plans:
                del self._plans[cid]
        return affected

    def clear(self) -> None:
        """Drop every plan (stats are kept)."""
        self._plans.clear()

    def _trace(self, name: str, cid: int, point: Point) -> None:
        if self.tracer is not None:
            self.tracer.event(name, cid=cid, level=point[0], row=point[1])
