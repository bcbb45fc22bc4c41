"""Member churn: people joining and leaving a live conference.

Teleconferences are not static — members dial in and drop off while the
call runs.  This module grows and shrinks a live route *incrementally*
(:func:`extend_route` / :func:`prune_route`) and reports the
*disruption*: which links must be torn down or newly claimed, and
whether continuing members' output taps move (a moved tap is an audible
glitch and a mux reprogram; an unmoved tap is hitless).

Incremental vs full semantics
-----------------------------

:func:`extend_route` re-sweeps forward reachability for the enlarged
member set but *pins* every continuing member's current tap, keeping it
whenever the full new combination still arrives there.  On the indirect
binary cube an in-block join therefore stays hitless for everyone (taps
stay at the block's level ``K``) and the old tree is reused as a
subtree; only a join that grows the enclosing block moves taps.  Pins
also preserve fault-era tap choices, so a long-extended route can hold
more links than a fresh routing of the same members would — that
surplus is reported as ``drift_links`` (the extra links are extra
conflict opportunities against other conferences, hence
"conflict-multiplicity drift"), and ``drift_limit`` demotes the change
to a full re-route-from-scratch when it grows past the knob.

:func:`prune_route` re-taps every survivor at the earliest level where
the remaining combination is complete, releasing the links that served
only the leaver (and reclaiming depth the leaver forced).  An in-block
leave keeps every tap in place; shrinking below the natural route is
how ``prune_route(extend_route(r, p), p)`` restores ``r`` exactly.

Either way the :class:`ChurnResult` diff is *exact*: a delta-aware
fabric reprograms only ``links_added | links_removed`` links, whereas a
full reroute reinstalls the whole tree (every link of the old and new
routes is touched — see :attr:`ChurnResult.links_touched`).  Full
reroute remains available as :func:`apply_churn` and is the explicit
fallback when an incremental extend would exceed ``drift_limit``.

Engine
------

Both directions route the new member set with the bit-sliced kernel
first (:func:`~repro.core.routing.route_conference`, or a route primed
for the serving tick).  A pin only binds when it lies *deeper* than the
member's natural tap: the natural tap is the earliest level whose row
carries the full combination, so a shallower pin is never full and an
equal one changes nothing.  When no continuing member's old tap lies
deeper than its kernel tap, the kernel route *is* the incremental
result, with drift 0 — always so for :func:`prune_route` (no pins) and
under ``TapPolicy.FINAL`` (every tap is final).  Only when a pin may
bind — a route cut under a fault that has since been repaired — is the
conference routed once more, through the same kernel with its pins as
input; the drift is that route's link count minus the natural one's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.batch import _route_batch
from repro.core.conference import Conference
from repro.core.routing import Route, RoutingPolicy, _check_taps, route_conference
from repro.topology.network import MultistageNetwork, Point

__all__ = [
    "ChurnPolicy",
    "ChurnResult",
    "apply_churn",
    "extend_route",
    "prune_route",
]


@dataclass(frozen=True)
class ChurnPolicy:
    """How the service layer applies membership changes.

    ``incremental`` routes joins/leaves through
    :func:`extend_route`/:func:`prune_route`; when false every change is
    a full reroute (the pre-1.6 behavior, kept as an ablation arm).
    ``drift_limit`` demotes an incremental join to a full reroute when
    it would leave the route holding more than ``drift_limit`` surplus
    links over a fresh routing.
    """

    incremental: bool = True
    drift_limit: "int | None" = None

    def __post_init__(self) -> None:
        if self.drift_limit is not None and self.drift_limit < 0:
            raise ValueError("drift_limit must be >= 0")


@dataclass(frozen=True)
class ChurnResult:
    """Before/after routes of a membership change plus the diff.

    ``links_added``/``links_removed`` are the fabric reconfiguration;
    ``taps_moved`` maps each continuing member whose mux selection
    changed to its (old level, new level) pair.  ``mode`` says how the
    change was computed (``"incremental"`` or ``"full-reroute"``),
    ``drift_links`` how many surplus links the result holds over a
    fresh routing of the same members, and ``fallback_reason`` why an
    incremental step was demoted (``None`` when it was not).
    """

    before: Route
    after: Route
    links_added: frozenset[Point]
    links_removed: frozenset[Point]
    taps_moved: dict[int, tuple[int, int]]
    mode: str = "incremental"
    drift_links: int = 0
    fallback_reason: "str | None" = None

    @property
    def hitless(self) -> bool:
        """True when no continuing member's tap moved."""
        return not self.taps_moved

    @property
    def reconfigured_links(self) -> int:
        """Size of the exact diff (links added plus links removed)."""
        return len(self.links_added) + len(self.links_removed)

    @property
    def links_touched(self) -> int:
        """Links the fabric must reprogram to apply this change.

        An incremental change touches exactly the diff; a full reroute
        reinstalls the whole tree, touching every link of the old and
        new routes even where they coincide.
        """
        if self.mode == "incremental":
            return self.reconfigured_links
        return len(self.before.links | self.after.links)

    # -- Result protocol -------------------------------------------------

    @property
    def ok(self) -> bool:
        """A constructed churn result always describes an applied change."""
        return True

    @property
    def reason(self) -> "str | None":
        return None

    def as_dict(self) -> dict:
        """JSON-ready summary (the routes themselves are elided)."""
        return {
            "kind": "churn",
            "ok": True,
            "reason": None,
            "conference_id": self.after.conference.conference_id,
            "mode": self.mode,
            "hitless": self.hitless,
            "links_added": len(self.links_added),
            "links_removed": len(self.links_removed),
            "links_touched": self.links_touched,
            "taps_moved": len(self.taps_moved),
            "drift_links": self.drift_links,
            "fallback_reason": self.fallback_reason,
            "members": len(self.after.conference.members),
            "depth": self.after.depth,
        }


def _ports_tuple(port_or_ports: "int | Iterable[int]") -> tuple[int, ...]:
    """Normalize a single port or an iterable of ports to a sorted tuple."""
    if isinstance(port_or_ports, int):
        return (port_or_ports,)
    ports = tuple(sorted(set(port_or_ports)))
    if not ports:
        raise ValueError("no ports given")
    return ports


def _diff(
    before: Route,
    after: Route,
    *,
    mode: str,
    drift_links: int = 0,
    fallback_reason: "str | None" = None,
) -> ChurnResult:
    """Assemble the exact change set between two routes of one call."""
    continuing = set(before.conference.members) & set(after.conference.members)
    taps_moved = {
        port: (before.taps[port], after.taps[port])
        for port in sorted(continuing)
        if before.taps[port] != after.taps[port]
    }
    old, new = before.links, after.links
    return ChurnResult(
        before=before,
        after=after,
        links_added=new - old,
        links_removed=old - new,
        taps_moved=taps_moved,
        mode=mode,
        drift_links=drift_links,
        fallback_reason=fallback_reason,
    )


def _churn_step(
    net: MultistageNetwork,
    route: Route,
    members: "tuple[int, ...]",
    pins: "dict[int, int]",
    policy: RoutingPolicy,
    faults: "frozenset | None",
    router: "Callable[[Conference], Route]",
    drift_limit: "int | None",
) -> ChurnResult:
    """One incremental membership change, kernel first.

    ``router`` returns the natural route of a conference under
    ``faults`` (raising :class:`~repro.core.routing.UnroutableError`, or
    ``ValueError`` for an out-of-range member); it is also the
    full-reroute result, so no path routes twice.  The pinned kernel
    call runs only when some pin lies deeper than its member's natural
    tap — the only way a pin can bind.  A result holding more than
    ``drift_limit`` surplus links is demoted to the full reroute.
    """
    conference = Conference.of(members, conference_id=route.conference.conference_id)
    natural = router(conference)
    if policy.prune:
        # The greedy-pruning ablation has no incremental form: pruned
        # regions are not pin-stable, so churn on them is a reroute.
        return _diff(route, natural, mode="full-reroute", fallback_reason="prune-policy")
    after = natural
    if any(pins.get(port, -1) > tap for port, tap in natural.taps.items()):
        dead = frozenset(faults) if faults else frozenset()
        after = _route_batch(net, [conference], policy, dead, None, [pins])[0].unwrap()
    _check_taps(net, after)
    drift = after.n_links - natural.n_links
    if drift_limit is not None and drift > drift_limit:
        return _diff(
            route, natural, mode="full-reroute", fallback_reason=f"drift:{drift}>{drift_limit}"
        )
    return _diff(route, after, mode="incremental", drift_links=drift)


def apply_churn(
    net: MultistageNetwork,
    route: Route,
    new_members: "tuple[int, ...] | list[int]",
    *,
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | None" = None,
) -> ChurnResult:
    """Reroute ``route``'s conference from scratch with a new member tuple.

    The conference id is preserved; ``new_members`` must be non-empty.
    Returns the change set relative to the old route, with
    ``mode="full-reroute"`` (the whole tree is reinstalled — prefer
    :func:`extend_route`/:func:`prune_route` for delta-only changes).
    """
    new_conf = Conference.of(new_members, conference_id=route.conference.conference_id)
    return _diff(route, route_conference(net, new_conf, policy, faults), mode="full-reroute")


def extend_route(
    net: MultistageNetwork,
    route: Route,
    port: "int | Iterable[int]",
    *,
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | None" = None,
    drift_limit: "int | None" = None,
) -> ChurnResult:
    """Grow a live route in place to include the joining port(s).

    Claims only the links needed to reach the newcomers and to carry
    their signal into the existing tree: continuing members keep their
    current tap whenever the full new combination still arrives there
    (always true for in-block joins on the cube, which are therefore
    hitless and purely additive).  Falls back to a full reroute when
    the step would accrue more than ``drift_limit`` surplus links; a
    negative ``drift_limit`` raises ``ValueError`` before any routing.
    """
    ChurnPolicy(drift_limit=drift_limit)  # validates the limit
    policy = policy or RoutingPolicy()
    ports = _ports_tuple(port)
    conference = route.conference
    for p in ports:
        if p in conference.member_set:
            raise ValueError(f"port {p} is already a member")
    members = tuple(sorted(conference.members + ports))
    return _churn_step(
        net, route, members, dict(route.taps), policy, faults,
        lambda conf: route_conference(net, conf, policy, faults),
        drift_limit,
    )


def prune_route(
    net: MultistageNetwork,
    route: Route,
    port: "int | Iterable[int]",
    *,
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | None" = None,
) -> ChurnResult:
    """Shrink a live route in place, dropping the leaving port(s).

    Releases the links that served only the leavers and re-taps each
    survivor at the earliest level where the remaining combination is
    complete — reclaiming any depth the leaver forced, which is what
    makes ``prune_route(extend_route(r, p), p)`` restore ``r`` exactly.
    An in-block leave keeps every surviving tap in place (hitless).
    The change is applied as a delta.  A leave pins no tap, so it never
    drifts and takes no ``drift_limit``.
    """
    policy = policy or RoutingPolicy()
    ports = _ports_tuple(port)
    conference = route.conference
    for p in ports:
        if p not in conference.member_set:
            raise ValueError(f"port {p} is not a member")
    remaining = tuple(m for m in conference.members if m not in set(ports))
    if not remaining:
        raise ValueError("cannot remove the last member; tear the conference down instead")
    # No pins: survivors re-tap naturally, so drift never survives a leave.
    return _churn_step(
        net, route, remaining, {}, policy, faults,
        lambda conf: route_conference(net, conf, policy, faults),
        None,
    )
