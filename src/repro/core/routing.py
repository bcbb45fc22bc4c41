"""Self-routing of conferences through a multistage network.

The routing model (from the paper's design): every member of a
conference injects its signal at its input; switches on the way combine
signals of the same conference (fan-in) and broadcast them onward
(fan-out); each member's output multiplexer taps the earliest inter-stage
link on its own row at which the signal is the *full* combination of all
members.

The algorithm is a forward/backward sweep over the layered graph:

1. **Forward pass** — for every point ``(t, r)`` compute ``F(t, r)``,
   the set of members whose signal can be present there (a bitmask over
   member indices).  ``F`` grows along edges, so it is computed level by
   level in one pass.
2. **Tap selection** — member ``j`` taps ``(t_j, j)`` where ``t_j`` is
   the earliest level with ``F(t_j, j)`` equal to the full member mask
   (policy ``earliest``), or the final level (policy ``final``, i.e. the
   relay-disabled ablation).
3. **Backward pass** — mark every point from which some tap is still
   reachable; the route uses exactly the points that are both forward-
   active and backward-marked.

This "natural" routing is *self-routing* in the paper's sense: the used
region is determined pointwise from member addresses with no global
computation, and for the indirect binary cube it matches the closed form
in ``repro.analysis.theory`` (a fact the test suite checks exhaustively).
A greedy pruning pass is available as an ablation; it can only remove
redundant fan-out, never the conflicts forced by the banyan unique-path
property.

This module holds the model (policies, :class:`Route`, errors), the
pruning ablation and the entry point :func:`route_conference`.  The
sweep itself has one engine, the bit-sliced kernel of
:mod:`repro.core.batch`, which runs pins, conferences of any size and
pruning (as a post-pass over each kernel route).  A per-point walk of
the same algorithm lives in :mod:`repro.core.reference` as the oracle
of the differential tests; no production path imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

from repro.core.conference import Conference
from repro.obs.metrics import timed
from repro.topology.network import MultistageNetwork, Point

__all__ = [
    "TapPolicy",
    "RoutingPolicy",
    "Route",
    "UnroutableError",
    "route_conference",
    "delivered_members",
]


class UnroutableError(ValueError):
    """A conference cannot be realized (typically due to faults).

    On a healthy full-access network every conference is routable; this
    error therefore only occurs under fault injection, when a member is
    cut off from the fabric or no surviving level combines the full
    conference on some member's row.
    """


class TapPolicy(str, Enum):
    """When each member's output mux taps the combined signal."""

    #: Tap the earliest level at which the full combination reaches the
    #: member's row (requires the mux relay enhancement).
    EARLIEST = "earliest"
    #: Tap the final stage only (plain network, relay disabled).
    FINAL = "final"


@dataclass(frozen=True)
class RoutingPolicy:
    """Knobs of the routing algorithm.

    ``prune`` enables the greedy redundant-branch removal ablation; the
    default natural routing is what the paper's conflict analysis is
    about.
    """

    tap_policy: TapPolicy = TapPolicy.EARLIEST
    prune: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "tap_policy", TapPolicy(self.tap_policy))


class _LinkAccounting:
    """Link accounting read from ``levels``/``taps``: the one definition
    :class:`Route` and :class:`~repro.core.groupcast.GroupRoute` share."""

    n_ports: int
    levels: "tuple[dict[int, int], ...]"
    taps: "dict[int, int]"

    @cached_property
    def cells(self) -> np.ndarray:
        """:attr:`links` as one read-only int64 array, link ``(t, r)`` as
        the ledger cell ``t * n_ports + r`` in ``levels`` order; built on
        first use and cached on the instance."""
        levels, n = self.levels[1:], self.n_ports
        counts = list(map(len, levels))
        rows = np.fromiter(chain.from_iterable(levels), dtype=np.int64, count=sum(counts))
        cells = rows + np.arange(n, n * len(self.levels), n, dtype=np.int64).repeat(counts)
        cells.flags.writeable = False
        return cells

    @property
    def links(self) -> frozenset[Point]:
        """Used inter-stage links, identified by their downstream point.

        Level-0 points are network inputs, not links, so they are
        excluded; these are the wires on which disjoint conferences can
        collide.
        """
        return frozenset(
            (t, r) for t, rows in enumerate(self.levels) if t >= 1 for r in rows
        )

    @property
    def n_links(self) -> int:
        """Number of inter-stage links the route occupies."""
        return sum(len(rows) for rows in self.levels[1:])

    @property
    def depth(self) -> int:
        """Deepest level the route reaches (max tap level)."""
        return max(self.taps.values())

    def mask_at(self, level: int, row: int) -> int:
        """Injection bitmask carried at ``(level, row)`` (0 when unused)."""
        return self.levels[level].get(row, 0)


@dataclass(frozen=True)
class Route(_LinkAccounting):
    """The realization of one conference in a network.

    ``levels`` maps each level ``t`` to a dict ``row -> member bitmask``
    of used points and the partial combination they carry; ``taps`` maps
    each member port to the level its output mux selects.
    """

    conference: Conference
    n_ports: int
    n_stages: int
    levels: tuple[dict[int, int], ...]
    taps: dict[int, int]

    @property
    def points(self) -> frozenset[Point]:
        """All used points (level, row), including level-0 injections."""
        return frozenset(
            (t, r) for t, rows in enumerate(self.levels) for r in rows
        )

    # -- fabric adapter (shared with GroupRoute) ------------------------

    @property
    def channel_id(self) -> int:
        """Channel identifier on dilated links (the conference id)."""
        return self.conference.conference_id

    @property
    def injections(self) -> tuple[int, ...]:
        """Ports that transmit into the fabric (every member)."""
        return self.conference.members

    @property
    def expected_delivery(self) -> frozenset[int]:
        """What each tap must receive: the full member set."""
        return self.conference.member_set

    @property
    def exclusive_ports(self) -> frozenset[int]:
        """Ports this connection claims exclusively."""
        return self.conference.member_set


def _unroutable(port: int, tap_policy: TapPolicy) -> UnroutableError:
    """The verdict that ``port`` cannot tap, in its tap policy's words.

    The kernel and the backup-plan screen both build their errors here,
    so a screened plan carries the kernel's exact message and ``port``.
    """
    if tap_policy is TapPolicy.FINAL:
        err = UnroutableError(f"conference cannot be combined at final-stage output {port}")
    else:
        err = UnroutableError(f"no surviving level combines the full conference on row {port}")
    err.port = port
    return err


def delivered_members(
    net: MultistageNetwork,
    conference: Conference,
    levels: "list[dict[int, int]] | tuple[dict[int, int], ...]",
    taps: dict[int, int],
) -> dict[int, int]:
    """Recompute the bitmask actually arriving at each tap.

    Propagates signals forward *restricted to the used region* — the
    check that a candidate route (e.g. after pruning) still delivers the
    full combination to every member.  Returns ``port -> mask at its
    tap``.
    """
    carried = _carried_masks(net, conference, levels)
    return {port: carried[t].get(port, 0) for port, t in taps.items()}


def _carried_masks(
    net: MultistageNetwork,
    conference: Conference,
    levels: "list[dict[int, int]] | tuple[dict[int, int], ...]",
) -> list[dict[int, int]]:
    """Canonicalize a used region to the masks signals actually carry.

    Re-propagates injections through the used region and drops points
    that end up carrying nothing (pruning can strand redundant points).
    For the natural route this is the identity: within the backward-
    marked region the carried mask equals the forward-reachability mask.
    """
    tab = net.successor_table
    cur = {port: 1 << idx for idx, port in enumerate(conference.members) if port in levels[0]}
    out = [cur]
    for s in range(net.n_stages):
        used_next = levels[s + 1]
        nxt: dict[int, int] = {}
        for row, mask in cur.items():
            for side in range(tab.shape[2]):
                r2 = int(tab[s, row, side])
                if r2 in used_next:
                    nxt[r2] = nxt.get(r2, 0) | mask
        out.append(nxt)
        cur = nxt
    return out


def _check_taps(net: MultistageNetwork, route: Route) -> None:
    """Every tap must hear the full combination (cheap; catches wiring bugs)."""
    full = route.conference.full_mask
    bad = {port for port, t in route.taps.items() if route.mask_at(t, port) != full}
    if bad:
        raise AssertionError(
            f"routing invariant violated: taps {sorted(bad)} missing members "
            f"(topology {net.name})"
        )


def _prune(
    net: MultistageNetwork,
    conference: Conference,
    levels: list[dict[int, int]],
    taps: dict[int, int],
) -> list[dict[int, int]]:
    """Greedy removal of redundant points, deepest level first.

    A point can be removed when every tap still receives the full
    combination afterwards.  Tap points and member injections are kept
    unconditionally.  This is a heuristic — minimizing the used link
    count exactly is a Steiner-type problem — but it suffices to measure
    how much of the natural route is redundant fan-out.
    """
    full = conference.full_mask
    keep = {(t, port) for port, t in taps.items()} | {(0, p) for p in conference.members}
    work = [dict(rows) for rows in levels]
    candidates = [
        (t, r)
        for t in range(net.n_stages, -1, -1)
        for r in sorted(levels[t])
        if (t, r) not in keep
    ]
    for t, r in candidates:
        saved = work[t].pop(r)
        delivered = delivered_members(net, conference, work, taps)
        if any(delivered[port] != full for port in taps):
            work[t][r] = saved
    return work


@timed("repro_route_conference")
def route_conference(
    net: MultistageNetwork,
    conference: Conference,
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | None" = None,
) -> Route:
    """Route one conference through ``net`` under ``policy``.

    ``faults`` is an optional set of dead points ``(level, row)`` —
    failed inter-stage links (levels >= 1) or failed injections (level
    0).  The router uses only surviving paths and taps; the mux relay's
    choice of tap level is what gives the network its fault tolerance
    (see ``repro.analysis.resilience``).

    Returns a :class:`Route`; raises :class:`UnroutableError` when the
    conference cannot be combined on some member's row (only possible
    under faults on the built-in full-access topologies).

    There is a single routing kernel: this delegates to
    :func:`repro.core.batch.route_batch` as a batch of one.  Pins, wide
    conferences and the ``prune=True`` ablation all run on that kernel;
    the sequential per-point walk survives only as the reference the
    differential tests and F2 hold it against
    (:mod:`repro.core.reference`).
    """
    from repro.core.batch import route_batch  # circular at module load

    return route_batch(net, [conference], policy, faults)[0].unwrap()
