"""The sequential per-point routing walk, kept as a reference.

:func:`route_conference_sequential` routes one conference at a time
through per-member Python dict sweeps — the algorithm of
:mod:`repro.core.routing`, stated as plainly as it can be.  It is not a
production path: the library routes every conference through the
bit-sliced kernel behind :func:`~repro.core.batch.route_batch`.  This
walk is the oracle the differential tests hold the kernel against, and
the baseline F2 times it against; with ``receivers=``, of group routing.

Internal under the stability policy of ``docs/api.md``: no module of
the package imports it.
"""

from __future__ import annotations

from repro.core.conference import Conference
from repro.core.routing import (
    Route,
    RoutingPolicy,
    TapPolicy,
    UnroutableError,
    _carried_masks,
    _check_taps,
    _prune,
)
from repro.topology.network import MultistageNetwork

__all__ = ["route_conference_sequential"]


def _forward_masks(
    net: MultistageNetwork,
    conference: Conference,
    dead: frozenset = frozenset(),
) -> list[dict[int, int]]:
    """Per-level ``row -> member bitmask`` of reachable member signals.

    ``dead`` points (faulty links/injections) carry no signal: masks are
    never written into them, so downstream reachability reflects only
    surviving paths.
    """
    tab = net.successor_table
    sides = range(tab.shape[2])
    level0 = {
        port: 1 << idx
        for idx, port in enumerate(conference.members)
        if (0, port) not in dead
    }
    levels = [level0]
    cur = level0
    for s in range(net.n_stages):
        nxt: dict[int, int] = {}
        for row, mask in cur.items():
            for side in sides:
                r2 = int(tab[s, row, side])
                if (s + 1, r2) in dead:
                    continue
                nxt[r2] = nxt.get(r2, 0) | mask
        levels.append(nxt)
        cur = nxt
    return levels


def _select_taps(
    forward: list[dict[int, int]],
    conference: Conference,
    policy: RoutingPolicy,
    n_stages: int,
    receivers: "tuple[int, ...] | None" = None,
) -> dict[int, int]:
    """Choose the tap level of every receiver (default: member) under the policy."""
    full = conference.full_mask
    taps: dict[int, int] = {}
    for port in conference.members if receivers is None else receivers:
        if policy.tap_policy is TapPolicy.FINAL:
            if forward[n_stages].get(port, 0) != full:
                raise UnroutableError(
                    f"conference cannot be combined at final-stage output {port}"
                )
            taps[port] = n_stages
            continue
        for t in range(n_stages + 1):
            if forward[t].get(port, 0) == full:
                taps[port] = t
                break
        else:
            raise UnroutableError(
                f"no surviving level combines the full conference on row {port}"
            )
    return taps


def _backward_mark(
    net: MultistageNetwork,
    taps: dict[int, int],
    n_stages: int,
    dead: frozenset = frozenset(),
) -> list[set[int]]:
    """Rows per level from which some tap point is still reachable,
    traversing only surviving points."""
    tab = net.predecessor_table
    marked: list[set[int]] = [set() for _ in range(n_stages + 1)]
    for port, level in taps.items():
        marked[level].add(port)
    sides = range(tab.shape[2])
    for t in range(n_stages, 0, -1):
        below = marked[t]
        dest = marked[t - 1]
        for row in below:
            for side in sides:
                prev = int(tab[t - 1, row, side])
                if (t - 1, prev) not in dead:
                    dest.add(prev)
    return marked


def route_conference_sequential(
    net: MultistageNetwork,
    conference: Conference,
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | None" = None,
    pins: "dict[int, int] | None" = None,
    receivers: "tuple[int, ...] | None" = None,
) -> Route:
    """The sequential reference implementation of
    :func:`~repro.core.routing.route_conference`.

    Same contract, same results, same error args — one conference at a
    time.  ``pins`` maps member ports to tap levels to keep: a pinned
    member taps at its pin whenever the full combination reaches its row
    there, and at its natural level otherwise (the incremental-churn
    semantics of :func:`~repro.core.churn.extend_route`).  ``receivers``
    (sorted) tap in place of the members, which still inject: a group
    connection (:mod:`repro.core.groupcast`); taps, pins and errors are
    then keyed by receiver.
    """
    policy = policy or RoutingPolicy()
    dead = frozenset(faults) if faults else frozenset()
    if conference.members[-1] >= net.n_ports:
        raise ValueError(
            f"conference member {conference.members[-1]} out of range for "
            f"{net.n_ports}-port network"
        )
    forward = _forward_masks(net, conference, dead)
    taps = _select_taps(forward, conference, policy, net.n_stages, receivers)
    for port, pin in (pins or {}).items():
        if port in taps and forward[pin].get(port, 0) == conference.full_mask:
            taps[port] = pin
    marked = _backward_mark(net, taps, net.n_stages, dead)
    levels = [
        {row: mask for row, mask in forward[t].items() if row in marked[t]}
        for t in range(net.n_stages + 1)
    ]
    if policy.prune:
        levels = _prune(net, conference, levels, taps)
    route = Route(
        conference=conference,
        n_ports=net.n_ports,
        n_stages=net.n_stages,
        levels=tuple(_carried_masks(net, conference, levels)),
        taps=taps,
    )
    _check_taps(net, route)
    return route
