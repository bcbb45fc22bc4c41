"""Conference placement and admission control.

Two placement disciplines frame the paper's comparison:

* **Aligned placement** (the Yang-2001 design): every conference is
  assigned an exclusive *aligned block* of ports sized to the next power
  of two, managed here by a classic buddy allocator.  On the indirect
  binary cube this makes simultaneous conferences provably conflict-free
  because a conference's route never leaves its block's rows.
* **Arbitrary placement** (this paper's question): members sit wherever
  the users happen to be attached; conflicts arise and their worst-case
  multiplicity is the paper's key quantity.

The :class:`AdmissionController` adds the dynamic dimension used by the
discrete-event simulator: conferences join and leave over time, and a
join is admitted only if the resulting link loads stay within the
network's dilation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.churn import ChurnResult

from repro.core.conference import Conference, ConferenceSet
from repro.core.network import ConferenceNetwork
from repro.core.routing import Route
from repro.topology.network import Point
from repro.util.validation import check_network_size

__all__ = [
    "BuddyAllocator",
    "place_aligned",
    "AdmissionController",
    "AdmissionDenied",
]


class BuddyAllocator:
    """Power-of-two aligned block allocator over the port space.

    Maintains free lists per block exponent; allocation splits the
    smallest sufficient block (standard buddy discipline) and freeing
    coalesces buddies.  Used to realize the aligned placement policy and
    heavily property-tested (no overlap, coalescing restores the initial
    state, etc.).
    """

    def __init__(self, n_ports: int):
        self._n = check_network_size(n_ports)
        self._n_ports = n_ports
        # free[k] = set of aligned bases of free blocks of size 2**k.
        self._free: list[set[int]] = [set() for _ in range(self._n + 1)]
        self._free[self._n].add(0)
        self._allocated: dict[int, int] = {}  # base -> exponent

    @property
    def n_ports(self) -> int:
        """Total managed ports."""
        return self._n_ports

    def free_capacity(self) -> int:
        """Number of currently unallocated ports."""
        return sum(len(bases) << k for k, bases in enumerate(self._free))

    def largest_free_exponent(self) -> int:
        """Exponent of the largest free block, or -1 when full."""
        for k in range(self._n, -1, -1):
            if self._free[k]:
                return k
        return -1

    def allocate(self, size: int) -> range:
        """Allocate an aligned block holding at least ``size`` ports.

        Returns the block as a range; raises ``MemoryError`` when no
        block large enough is free (the caller treats this as call
        blocking).
        """
        if size < 1 or size > self._n_ports:
            raise ValueError(f"block size {size} out of range [1, {self._n_ports}]")
        want = max(0, (size - 1).bit_length())
        k = want
        while k <= self._n and not self._free[k]:
            k += 1
        if k > self._n:
            raise MemoryError(f"no free aligned block of size {1 << want}")
        base = min(self._free[k])
        self._free[k].remove(base)
        while k > want:  # split down to the requested exponent
            k -= 1
            self._free[k].add(base + (1 << k))
        self._allocated[base] = want
        return range(base, base + (1 << want))

    def release(self, base: int) -> None:
        """Free the allocated block starting at ``base``, coalescing buddies."""
        try:
            k = self._allocated.pop(base)
        except KeyError:
            raise KeyError(f"no allocated block at base {base}") from None
        while k < self._n:
            buddy = base ^ (1 << k)
            if buddy not in self._free[k]:
                break
            self._free[k].remove(buddy)
            base = min(base, buddy)
            k += 1
        self._free[k].add(base)

    def allocations(self) -> dict[int, int]:
        """Snapshot of live allocations: base -> exponent."""
        return dict(self._allocated)


def place_aligned(n_ports: int, sizes: Sequence[int]) -> ConferenceSet:
    """Place conferences of the given sizes into disjoint aligned blocks.

    Each conference of size ``m`` occupies the first ``m`` ports of a
    buddy-allocated block of size ``2**ceil(log2 m)`` — the Yang-2001
    discipline.  Raises ``MemoryError`` when the sizes do not fit.
    """
    alloc = BuddyAllocator(n_ports)
    groups = []
    # Largest first minimizes fragmentation, like any buddy system.
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    placed: dict[int, list[int]] = {}
    for idx in order:
        block = alloc.allocate(sizes[idx])
        placed[idx] = list(block)[: sizes[idx]]
    for idx in range(len(sizes)):
        groups.append(placed[idx])
    return ConferenceSet.of(n_ports, groups)


class AdmissionDenied(RuntimeError):
    """A conference join was rejected by admission control.

    ``reason`` is ``"capacity"`` (some link would exceed the dilation)
    or ``"ports"`` (a requested port is already in a conference).
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"admission denied ({reason}): {detail}")
        self.reason = reason
        self.detail = detail


class AdmissionController:
    """Online admission of conferences under finite link dilation.

    Keeps the link-load ledger of all live conferences; a join is
    admitted only when every link the new route needs has spare
    capacity.  This is what the blocking-probability experiment (F3)
    drives.

    The ledger is one flat int64 array with a cell per point of the
    network grid: link ``(t, r)`` is cell ``t * N + r`` (level-0 cells
    are injections and stay zero), the encoding of
    :attr:`~repro.core.routing.Route.cells`.  A route books, checks and
    releases its links as one fancy-indexed array operation.
    """

    def __init__(self, network: ConferenceNetwork, *, tracer=None):
        self._network = network
        self._n_rows, self._n_stages = n_rows, n_stages = network.n_ports, network.n_stages
        self._load = np.zeros((n_stages + 1) * n_rows, dtype=np.int64)
        self._mark = np.zeros(len(self._load), dtype=bool)  # all False between uses
        self._routes: dict[int, Route] = {}
        self._ports_in_use: set[int] = set()
        # Observation only (duck-typed repro.obs.trace.Tracer): ledger
        # changes emit admission.admit/deny/leave/replace events.
        self.tracer = tracer

    @property
    def network(self) -> ConferenceNetwork:
        """The conference network admission is managed for."""
        return self._network

    @property
    def live_conferences(self) -> tuple[int, ...]:
        """Ids of currently admitted conferences."""
        return tuple(self._routes)

    @property
    def ports_in_use(self) -> frozenset[int]:
        """Ports currently claimed by live conferences."""
        return frozenset(self._ports_in_use)

    def link_load(self, link: Point) -> int:
        """Current channel load on one inter-stage link (0 off the grid)."""
        level, row = link
        if 0 < level <= self._n_stages and 0 <= row < self._n_rows:
            return self._load.item(level * self._n_rows + row)
        return 0

    def peak_load(self) -> int:
        """The worst current link load (0 when idle)."""
        return int(self._load.max())

    def stage_loads(self) -> dict[int, list[int]]:
        """Nonzero channel loads per entering level, in row order.

        The raw material of the per-stage link-occupancy telemetry: key
        ``t`` lists the load of every occupied link entering level
        ``t``, so ``max`` of a value is the *observed* conflict
        multiplicity at that stage — the paper's headline quantity,
        live.
        """
        cells = np.flatnonzero(self._load)
        loads = self._load[cells].tolist()
        bounds = np.searchsorted(
            cells, np.arange(1, self._n_stages + 2) * self._n_rows
        ).tolist()
        return {
            level: loads[lo:hi]
            for level, lo, hi in zip(range(1, len(bounds)), bounds, bounds[1:])
            if hi > lo
        }

    def route_of(self, conference_id: int) -> Route:
        """The live route of one admitted conference."""
        try:
            return self._routes[conference_id]
        except KeyError:
            raise KeyError(f"no live conference with id {conference_id}") from None

    def try_join(self, conference: "Conference | Iterable[int]") -> Route:
        """Admit and route a conference, or raise :class:`AdmissionDenied`."""
        if not isinstance(conference, Conference):
            conference = Conference.of(conference)
        if conference.conference_id in self._routes:
            raise AdmissionDenied(
                "ports", f"conference id {conference.conference_id} already live"
            )
        clash = self._port_clash(conference.members)
        if clash:
            raise AdmissionDenied("ports", f"ports {sorted(clash)} already in a conference")
        return self.admit_route(self._network.route(conference))

    def admit_route(self, route: Route) -> Route:
        """Admit a pre-computed route (e.g. one routed around faults).

        Same checks as :meth:`try_join` — port exclusivity and link
        capacity — but the caller controls how the route was produced.
        """
        conference = route.conference
        if conference.conference_id in self._routes:
            self._trace_deny(conference.conference_id, "ports")
            raise AdmissionDenied(
                "ports", f"conference id {conference.conference_id} already live"
            )
        clash = self._port_clash(conference.members)
        if clash:
            self._trace_deny(conference.conference_id, "ports")
            raise AdmissionDenied("ports", f"ports {sorted(clash)} already in a conference")
        cells = route.cells
        self._check_capacity(conference.conference_id, cells, lambda: route.links)
        self._load[cells] += 1
        self._routes[conference.conference_id] = route
        self._ports_in_use.update(conference.members)
        if self.tracer is not None:
            self.tracer.event(
                "admission.admit", cid=conference.conference_id, links=route.n_links
            )
        return route

    def _busiest_links(self, route: Route, k: int) -> list[Point]:
        """Up to ``k`` of ``route``'s links, most-loaded first, ties in point
        order: one gather over the ledger for the route's cells (a cell's
        order is its point's order).  One sort on the key
        ``cell - load * size``, unique per cell, gives that order."""
        cells = route.cells
        top = cells[np.argsort(cells - self._load[cells] * self._load.size)[:k]]
        return [divmod(cell, self._n_rows) for cell in top.tolist()]

    def _minus(self, cells: np.ndarray, other: np.ndarray) -> np.ndarray:
        """``cells`` minus ``other`` (routes' cells), by marking the grid:
        a few array operations where ``np.setdiff1d`` would sort."""
        mark = self._mark
        mark[other] = True
        out = cells[~mark[cells]]
        mark[other] = False
        return out

    def _trace_deny(self, cid: int, reason: str) -> None:
        if self.tracer is not None:
            self.tracer.event("admission.deny", cid=cid, reason=reason)

    def _check_capacity(
        self, cid: int, cells: np.ndarray, links: "Callable[[], frozenset[Point]]"
    ) -> None:
        """Raise ``capacity`` unless every cell has a spare channel.

        The common admit is one vectorized ``max``.  Only a denial reads
        ``links()`` — the link frozenset — so the reported link is the
        first full one in its iteration order, as it always has been.
        """
        cap = self._network.dilation
        if not len(cells) or self._load[cells].max() < cap:
            return
        full = {
            divmod(cell, self._n_rows) for cell in cells[self._load[cells] >= cap].tolist()
        }
        link = next(link for link in links() if link in full)
        self._trace_deny(cid, "capacity")
        raise AdmissionDenied("capacity", f"link {link} at load {self.link_load(link)}/{cap}")

    def _port_clash(self, members: Iterable[int]) -> "set[int]":
        """The requested ports already claimed by a live conference.

        Intersects against the ledger's own port set, so a wrapper (the
        self-healing controller) need not copy :attr:`ports_in_use`.
        """
        return self._ports_in_use.intersection(members)

    def replace_route(self, conference_id: int, new_route: Route) -> Route:
        """Atomically swing a live conference onto a new route.

        Capacity is checked only on the links the new route *adds* (the
        links shared with the old route are already paid for), so a
        self-healing reroute can never be rejected for resources it
        already holds.  On :class:`AdmissionDenied` the ledger is
        untouched and the old route stays live.
        """
        old = self.route_of(conference_id)
        added, released = self._swing(
            conference_id, old, new_route, lambda: new_route.links - old.links
        )
        if self.tracer is not None:
            self.tracer.event(
                "admission.replace", cid=conference_id, added=added, released=released
            )
        return new_route

    def _swing(
        self, cid: int, old: Route, new: Route, added_links: "Callable[[], frozenset[Point]]"
    ) -> "tuple[int, int]":
        """Move a live conference from ``old`` to ``new`` by the diff of their
        cells: the ports ``new`` adds must be free and the links it adds
        have spare channels (else :class:`AdmissionDenied`, ledger
        untouched; ``added_links()`` names the first full link).  Returns
        the numbers of links added and released."""
        clash = self._port_clash(new.conference.members) - old.conference.member_set
        if clash:
            self._trace_deny(cid, "ports")
            raise AdmissionDenied("ports", f"ports {sorted(clash)} already in a conference")
        added, released = self._minus(new.cells, old.cells), self._minus(old.cells, new.cells)
        self._check_capacity(cid, added, added_links)
        self._load[added] += 1
        self._load[released] -= 1
        self._routes[cid] = new
        self._ports_in_use.difference_update(old.conference.members)
        self._ports_in_use.update(new.conference.members)
        return len(added), len(released)

    def apply_churn(self, churn: "ChurnResult") -> Route:
        """Apply a membership change as a delta against the ledger.

        Unlike :meth:`replace_route`, which re-books the whole route,
        only the exact ``links_added``/``links_removed`` diff touches
        the ledger — a hitless in-block join charges nothing but its
        graft.  Capacity is checked on the added links alone; on
        :class:`AdmissionDenied` the ledger is untouched and the old
        route stays live.  The result must have been computed against
        the currently live route (otherwise the diff is stale).
        """
        cid = churn.after.conference.conference_id
        old = self.route_of(cid)
        if old is not churn.before and (
            old.links != churn.before.links or old.taps != churn.before.taps
        ):
            raise ValueError(
                f"stale churn result for conference {cid}: "
                "not computed against the live route"
            )
        self._swing(cid, old, churn.after, lambda: churn.links_added)
        if self.tracer is not None:
            self.tracer.event(
                "admission.churn",
                cid=cid,
                mode=churn.mode,
                added=len(churn.links_added),
                released=len(churn.links_removed),
                hitless=churn.hitless,
            )
        return churn.after

    def leave(self, conference_id: int) -> None:
        """Tear down a live conference, releasing its links."""
        try:
            route = self._routes.pop(conference_id)
        except KeyError:
            raise KeyError(f"no live conference with id {conference_id}") from None
        self._load[route.cells] -= 1
        self._ports_in_use.difference_update(route.conference.members)
        if self.tracer is not None:
            self.tracer.event("admission.leave", cid=conference_id)

    def snapshot(self) -> ConferenceSet:
        """The live conferences as a validated :class:`ConferenceSet`."""
        return ConferenceSet(
            self._network.n_ports,
            tuple(r.conference for r in self._routes.values()),
        )
