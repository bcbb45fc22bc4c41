"""Memoized routing: the LRU route cache and per-worker network registry.

Routing is a pure function of ``(topology, policy, conference members,
fault set)``, so repeated placements — the randomized search
re-routing the same port pairs thousands of times, sweep trials
re-placing recurring conferences — can reuse earlier work verbatim.
:class:`RouteCache` memoizes exactly that function for the parallel
experiment engine (the serving stack keeps no route cache).  Two design
points matter:

* **Fault state is part of the key.**  A route computed on the healthy
  network is *never* served once a link has died: the lookup key
  includes the fault set in force, so pre-fault entries are bypassed by
  construction (and the cache can follow a live
  :class:`~repro.sim.faults.FaultInjector` to track the current set).
* **Routes are cached by membership, not identity.**  The geometry of a
  route depends only on the member ports; the conference id is a label.
  Entries store ``(levels, taps)`` and the cache re-wraps them around
  the requesting conference, so a cache warmed by one workload serves
  later conferences with the same members but different ids.

``shared_network`` / ``shared_route_cache`` are the per-process
registry: a worker of the parallel engine builds each topology (and its
cache) once — typically from the pool initializer — and every trial it
executes reuses them.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.conference import Conference
from repro.core.routing import (
    Route,
    RoutingPolicy,
    UnroutableError,
    _body_crosses,
    _pack_route,
    _unpack_route,
    route_conference,
)
from repro.topology.builders import build
from repro.topology.network import MultistageNetwork, Point

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.engine import EventLoop
    from repro.sim.faults import FaultInjector, FaultTransition

__all__ = ["CacheStats", "RouteCache", "shared_network", "shared_route_cache"]

_NO_FAULTS: frozenset[Point] = frozenset()


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`RouteCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    unroutable: int = field(default=0)

    @property
    def requests(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """The combined accounting of two caches, as a new instance.

        Field-wise addition; ``hit_rate`` of the result is therefore the
        request-weighted aggregate, which is what a sharded sweep wants
        to report for its per-worker caches.
        """
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            unroutable=self.unroutable + other.unroutable,
        )

    @classmethod
    def merged(cls, many: "Iterable[CacheStats]") -> "CacheStats":
        """Fold any number of per-worker stats into one total."""
        total = cls()
        for stats in many:
            total = total.merge(stats)
        return total

    def as_dict(self) -> dict:
        """A plain-dict view (picklable; includes the derived fields)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "unroutable": self.unroutable,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
        }


class RouteCache:
    """LRU memoization of :func:`~repro.core.routing.route_conference`.

    Bound to one network and one routing policy at construction; lookup
    keys are ``(member tuple, fault set)``.  Unroutable outcomes are
    cached too (a negative entry re-raises
    :class:`~repro.core.routing.UnroutableError`), which keeps repeated
    failing reroutes under a persistent fault cheap.
    """

    def __init__(
        self,
        network: MultistageNetwork,
        policy: "RoutingPolicy | None" = None,
        maxsize: int = 4096,
        tracer=None,
    ):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._network = network
        self._policy = policy or RoutingPolicy()
        self._maxsize = maxsize
        self._entries: "OrderedDict[tuple, tuple | UnroutableError]" = OrderedDict()
        self._faults: frozenset[Point] = _NO_FAULTS
        self.stats = CacheStats()
        # Observation only (duck-typed repro.obs.trace.Tracer): lookups
        # emit cache.hit / cache.miss, context moves cache.invalidate.
        self.tracer = tracer

    # -- introspection -----------------------------------------------------

    @property
    def network(self) -> MultistageNetwork:
        """The network routes are computed on."""
        return self._network

    @property
    def policy(self) -> RoutingPolicy:
        """The routing policy baked into every entry."""
        return self._policy

    @property
    def maxsize(self) -> int:
        """Entry budget before LRU eviction."""
        return self._maxsize

    @property
    def current_faults(self) -> frozenset[Point]:
        """The fault set used when ``route`` is called without one."""
        return self._faults

    def __len__(self) -> int:
        return len(self._entries)

    # -- fault tracking ----------------------------------------------------

    def set_faults(self, faults: "frozenset[Point] | None") -> None:
        """Update the default fault context for keyless lookups.

        Entries under other fault sets stay resident (a repair that
        restores a previous set finds its routes warm) but can no longer
        be returned for the current one — the key namespace moved.
        """
        self._faults = frozenset(faults) if faults else _NO_FAULTS
        if self.tracer is not None:
            self.tracer.event("cache.invalidate", dead=len(self._faults))

    def attach(self, injector: "FaultInjector") -> None:
        """Follow a live fault injector's transitions."""
        injector.subscribe(self.handle_transition)

    def handle_transition(self, loop: "EventLoop", transition: "FaultTransition") -> None:
        """Injector callback: move the default fault context."""
        if transition.failed:
            self.set_faults(self._faults | {transition.point})
        else:
            self.set_faults(self._faults - {transition.point})

    # -- the memoized function ---------------------------------------------

    def route(
        self,
        conference: "Conference | list[int] | tuple[int, ...]",
        faults: "frozenset[Point] | None" = None,
    ) -> Route:
        """Route ``conference``, reusing a cached result when possible.

        ``faults`` defaults to the tracked fault context.  The returned
        route compares equal to a fresh
        :func:`~repro.core.routing.route_conference` call (the property
        suite checks this for arbitrary conferences and fault sets).
        """
        if not isinstance(conference, Conference):
            conference = Conference.of(conference)
        key_faults = self._faults if faults is None else (frozenset(faults) or _NO_FAULTS)
        key = (conference.members, key_faults)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if self.tracer is not None:
                self.tracer.event(
                    "cache.hit", cid=conference.conference_id, faults=len(key_faults)
                )
            return _unpack_route(entry, conference, self._network)
        self.stats.misses += 1
        if self.tracer is not None:
            self.tracer.event(
                "cache.miss", cid=conference.conference_id, faults=len(key_faults)
            )
        try:
            route = route_conference(
                self._network, conference, self._policy, faults=key_faults or None
            )
        except UnroutableError as exc:
            self._store(key, _pack_route(exc))
            self.stats.unroutable += 1
            raise
        self._store(key, _pack_route(route))
        return route

    def prime(
        self,
        conferences: "Iterable[Conference | list[int] | tuple[int, ...]]",
        faults: "frozenset[Point] | None" = None,
    ) -> int:
        """Batch-compute and store routes for every absent conference.

        The columnar kernel (:func:`repro.core.batch.route_batch`) routes
        all misses in one pass; present entries are left untouched, so a
        ``prime`` followed by ``route`` calls returns exactly the routes
        the sequential path would have computed — priming moves work, not
        decisions.  Hit/miss statistics and trace events are *not*
        recorded here (they belong to lookups); only evictions tick when
        the batch overflows ``maxsize``.  Returns the number of entries
        inserted.
        """
        from repro.core.batch import _prime_routes

        key_faults = self._faults if faults is None else (frozenset(faults) or _NO_FAULTS)
        return _prime_routes(
            self._network,
            (c if isinstance(c, Conference) else Conference.of(c) for c in conferences),
            self._policy,
            key_faults,
            self._store,
            skip=self._entries,
        )

    def _store(self, key: tuple, entry: "tuple | UnroutableError") -> None:
        self._entries[key] = entry
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate_links(self, links: "Iterable[Point]") -> int:
        """Evict exactly the entries whose stored route crosses ``links``.

        The scoped eviction membership churn uses: the cache memoizes a
        pure function, so resident entries are never *wrong* — but
        entries crossing just-reconfigured links were computed against a
        link occupancy that no longer holds, and serving them keeps
        admission re-discovering the same contention.  Dropping only the
        crossing entries (negative entries have no links and survive)
        keeps the rest of the working set warm.  Returns the eviction
        count.
        """
        touched = frozenset(links)
        if not touched:
            return 0
        doomed = [key for key, entry in self._entries.items() if _body_crosses(entry, touched)]
        for key in doomed:
            del self._entries[key]
        self.stats.evictions += len(doomed)
        if doomed and self.tracer is not None:
            self.tracer.event("cache.invalidate_links", evicted=len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        self._entries.clear()


# -- per-process registry --------------------------------------------------
#
# These module-level caches are what makes worker processes cheap: the
# pool initializer (or the first trial) builds each topology and its
# route cache once per process, and every subsequent trial in that
# worker reuses them.  They hold *shared mutable* caches — experiment
# code must not mutate the returned network, and determinism is
# preserved because cached routes equal freshly computed ones.


@lru_cache(maxsize=64)
def shared_network(topology: str, n_ports: int) -> MultistageNetwork:
    """The process-wide instance of a registry topology."""
    return build(topology, n_ports)


@lru_cache(maxsize=64)
def shared_route_cache(
    topology: str, n_ports: int, policy: "RoutingPolicy | None" = None, maxsize: int = 4096
) -> RouteCache:
    """The process-wide route cache of a registry topology.

    ``policy`` participates in the registry key (it is hashable and
    frozen), so relay-on and relay-off experiments get distinct caches.
    """
    return RouteCache(shared_network(topology, n_ports), policy=policy, maxsize=maxsize)
