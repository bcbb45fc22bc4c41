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
``(topology, policy, members, fault set)``.  The store routes its
plans itself, through the *same* kernel the reactive path calls, under
the fault set ``base ∪ {point}`` (one fault-overlay call per
:meth:`BackupPlanStore.protect`) — so a plan that is still **valid**
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

**Negative plans from the wiring.**  On a network with unique paths
(every banyan fabric of the paper: at most one path joins an input to
a point) most plans are negative, and :meth:`BackupPlanStore.protect`
decides them without the kernel.  Let ``anc(q)`` be the inputs that
reach point ``q`` and ``cone(q)`` the points ``q`` reaches.  A member's
signal reaches ``(t, j)`` along exactly one path, so it is lost there
iff some dead point ``q`` lies on that path: the member is in
``anc(q)`` and ``(t, j)`` is in ``cone(q)``.  Hence ``(t, j)`` carries
the full conference under a dead set ``D`` iff every member is in
``anc(t, j)`` and ``(t, j)`` lies in no ``cone(q)`` of a ``q`` in ``D``
that some member reaches — the kernel's forward mask, read from two
bitset tables.  Member ``j`` can tap iff such a level exists (any
level under EARLIEST, the final one under FINAL; pins play no part in
planning), and the kernel's verdict names the first member, in member
order, that cannot.  The screen computes exactly that under
``D = faults | {point}`` — base faults included, so it holds for any
live route, fresh or stale — and builds the error through the
kernel's own constructor (same message, same ``port``).  Only the
pairs where every member can tap (positive plans), and every pair on a
fabric without unique paths (extra-stage cube, Beneš), go to the
kernel.  The tables live on the network instance and are built on the
first ``protect`` call (:class:`~repro.topology.network.MultistageNetwork`'s
``_ancestors`` / ``_cones``); ``tests/protect/test_negative_screen.py``
holds every screened verdict against the kernel.

Memory is the price: each positive plan stores its backup
:class:`~repro.core.routing.Route`, so a store holds at most
``live conferences × F`` plans.
:meth:`BackupPlanStore.footprint` reports the realized cost for the
memory-vs-F tradeoff table in ``benchmarks/results/``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import chain

from repro.core.batch import _route_batch
from repro.core.conference import Conference
from repro.core.routing import (
    Route,
    RoutingPolicy,
    TapPolicy,
    UnroutableError,
    _unroutable,
)
from repro.topology.network import MultistageNetwork, Point

__all__ = ["BackupPlan", "BackupPlanStore"]

_NO_FAULTS: frozenset[Point] = frozenset()


def _wired_verdict(
    net: MultistageNetwork,
    members: tuple[int, ...],
    dead: "Iterable[Point]",
    tap_policy: TapPolicy,
) -> "UnroutableError | None":
    """The kernel's unroutable verdict for ``members`` under ``dead``, read
    from the wiring; ``None`` when every member can tap, or when ``net``
    has more than one path somewhere (see the module docstring for why
    this is exact)."""
    if not net._unique_paths:
        return None
    n_rows, n_stages = net.n_ports, net.n_stages
    anc, cones = net._ancestors, net._cones
    mask = 0
    for m in members:
        mask |= 1 << m
    # Bit t * n_rows + r: some member's only path to (t, r) is dead.
    cut = 0
    for t, r in dead:
        if 0 <= t <= n_stages and 0 <= r < n_rows and anc[t][r] & mask:
            cut |= cones[t][r] << (t * n_rows)
    levels = (n_stages,) if tap_policy is TapPolicy.FINAL else range(n_stages + 1)
    for j in members:
        if not any(
            (anc[t][j] & mask) == mask and not (cut >> (t * n_rows + j)) & 1 for t in levels
        ):
            return _unroutable(j, tap_policy)
    return None


def _touches(plan: "BackupPlan") -> "set[Point]":
    """The points whose change invalidates ``plan``: its protected point
    and every link its stored backup route crosses."""
    points = {plan.point}
    if not plan.unroutable:
        points.update(plan.entry.links)
    return points


@dataclass(frozen=True)
class BackupPlan:
    """One precomputed failover routing for ``(conference, point)``.

    ``entry`` is either the backup :class:`~repro.core.routing.Route`
    itself or an :class:`UnroutableError` recording that the conference
    cannot survive ``point``'s death (a negative plan).  ``base_faults``
    is the fault set in force when the plan was cut; the plan covers
    exactly the fault set ``base_faults | {point}`` and no other.
    """

    members: tuple[int, ...]
    point: Point
    base_faults: frozenset[Point]
    entry: "Route | UnroutableError" = field(repr=False)

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
        return sum(map(len, self.entry.levels)) + len(self.entry.taps)


class BackupPlanStore:
    """Fault-aware store of per-link backup routings for live conferences.

    Bound to one network and one routing policy at construction.
    Plans are keyed ``(conference id, protected point)``; the conference
    id (not the membership) keys the store because plans follow the
    *lifecycle* of an admitted call — :meth:`invalidate` on leave/drop
    must clear exactly that call's plans.

    ``protection`` is the per-conference plan budget F (at least 1: a
    controller without protection builds no store): each
    :meth:`protect` call plans the F most important links of each live
    route.

    The store plans its own backups: :meth:`protect` decides the
    negative plans of a unique-path network from its wiring and routes
    every other requested ``(conference, point)`` pair in one call to
    the routing kernel's per-conference fault overlay, the same kernel
    the reactive path reaches through
    :func:`~repro.core.routing.route_conference` — that sameness is what
    makes fast failover bit-identical.
    """

    def __init__(
        self,
        network: MultistageNetwork,
        policy: "RoutingPolicy | None" = None,
        protection: int = 1,
        tracer=None,
    ):
        if protection < 1:
            raise ValueError(f"protection must be >= 1, got {protection}")
        self._network = network
        self._policy = policy or RoutingPolicy()
        self._protection = protection
        self._plans: dict[int, dict[Point, BackupPlan]] = {}
        # point -> keys (cid, protected point) of the plans touching it.
        self._holders: dict[Point, set[tuple[int, Point]]] = {}
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
        routes: "Iterable[Route]",
        faults: frozenset,
        ranked: "Callable[[Route, int], list[Point]] | None" = None,
    ) -> int:
        """(Re)plan live routes: cover F links of each against a single
        additional fault on top of ``faults``, every backup in one call.

        Each route's conference loses its previous plans wholesale (so
        membership churn or a changed live route can never leave a plan
        for a link the call no longer crosses).  ``ranked(route, k)``
        picks up to ``k`` protected links, most important first; the
        default is point order.  Each ``(conference, point)`` pair is
        planned under ``faults | {point}``: on a unique-path network a
        negative verdict is read from the wiring, and every remaining
        pair is routed in one fault-overlay call to the routing kernel.
        The plans are stored in route order, then link rank.  Returns
        the number of plans stored.
        """
        base = frozenset(faults) if faults else _NO_FAULTS
        k = self._protection
        net, tap_policy = self._network, self._policy.tap_policy
        conferences: list[Conference] = []
        points: list[Point] = []
        outcomes: "list[Route | UnroutableError | None]" = []
        for route in routes:
            conference = route.conference
            self._drop(conference.conference_id)
            for point in ranked(route, k) if ranked else sorted(route.links)[:k]:
                conferences.append(conference)
                points.append(point)
                outcomes.append(
                    _wired_verdict(net, conference.members, chain(base, (point,)), tap_policy)
                )
        if not points:
            return 0
        pending = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if pending:
            routed = _route_batch(
                net,
                [conferences[i] for i in pending],
                self._policy,
                base,
                [(points[i],) for i in pending],
            )
            for i, outcome in zip(pending, routed):
                error = outcome.error
                outcomes[i] = error if isinstance(error, UnroutableError) else outcome.unwrap()
        for conference, point, outcome in zip(conferences, points, outcomes):
            self._store(
                conference.conference_id,
                BackupPlan(
                    members=conference.members,
                    point=point,
                    base_faults=base,
                    entry=outcome,
                ),
            )
        return len(points)

    def lookup(
        self, conference: Conference, point: Point, faults: frozenset
    ) -> "tuple[str, Route | UnroutableError | None]":
        """The O(1) failover step: fetch the plan covering ``point``.

        Returns ``(status, payload)`` where status is:

        * ``"hit"`` — a valid plan covers the fault; payload is the
          stored :class:`~repro.core.routing.Route` (the plan is keyed
          by conference id and covers only the same members, so its
          conference is the requester's) or, for a negative plan, a
          fresh copy of the recorded :class:`UnroutableError` — either
          way identical to what the reactive path would compute;
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
            self._trace("plan.miss", cid, point)
            return "miss", None
        if not plan.covers(conference.members, faults):
            self._trace("plan.stale", cid, point)
            return "stale", None
        self._trace("plan.hit", cid, point)
        if plan.unroutable:
            return "hit", UnroutableError(*plan.entry.args)
        return "hit", plan.entry

    def invalidate(self, conference_id: int) -> int:
        """Drop every plan of one conference (leave/close/drop).

        Returns the number of plans removed; unknown ids are a no-op.
        """
        return self._drop(conference_id)

    def invalidate_links(self, links: "Iterable[Point]") -> None:
        """Drop exactly the plans that touch any of ``links``.

        The scoped form of :meth:`invalidate` used by membership churn:
        a plan is affected when its *protected point* is one of the
        touched links or its stored backup route *crosses* one (the
        link's load just changed, so the plan's capacity assumptions —
        and the most-loaded-first ranking that chose it — are stale).
        Plans elsewhere survive, so a hitless in-block join replans
        nothing but the conferences actually sharing the graft.
        A point index finds the affected plans, so the plans elsewhere
        are never read.
        """
        doomed: dict[int, set[Point]] = {}
        for link in frozenset(links):
            for cid, point in self._holders.get(link, ()):
                doomed.setdefault(cid, set()).add(point)
        for cid, points in doomed.items():
            plans = self._plans[cid]
            for point in points:
                self._unindex(cid, plans.pop(point))
            if not plans:
                del self._plans[cid]

    def clear(self) -> None:
        """Drop every plan."""
        self._plans.clear()
        self._holders.clear()

    # -- the point index ---------------------------------------------------

    def _store(self, cid: int, plan: BackupPlan) -> None:
        """Keep ``plan`` as ``cid``'s plan for its point, indexed by the
        points it touches."""
        plans = self._plans.setdefault(cid, {})
        old = plans.get(plan.point)
        if old is not None:
            self._unindex(cid, old)
        plans[plan.point] = plan
        key = (cid, plan.point)
        for point in _touches(plan):
            self._holders.setdefault(point, set()).add(key)

    def _unindex(self, cid: int, plan: BackupPlan) -> None:
        key = (cid, plan.point)
        for point in _touches(plan):
            holders = self._holders[point]
            holders.discard(key)
            if not holders:
                del self._holders[point]

    def _drop(self, cid: int) -> int:
        """Remove every plan of ``cid``; returns how many there were."""
        plans = self._plans.pop(cid, {})
        for plan in plans.values():
            self._unindex(cid, plan)
        return len(plans)

    def _trace(self, name: str, cid: int, point: Point) -> None:
        if self.tracer is not None:
            self.tracer.event(name, cid=cid, level=point[0], row=point[1])
