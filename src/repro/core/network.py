"""The conference network — the paper's object of study.

A :class:`ConferenceNetwork` bundles a multistage topology, the
per-output multiplexer relay, a routing policy and a link dilation into
one facade: route conferences, measure conflicts, and verify delivery on
the simulated hardware.  This is the main entry point of the library::

    from repro import ConferenceNetwork

    net = ConferenceNetwork.build("omega", 64)
    routes = net.route_set(ConferenceSet.of(64, [[0, 5, 9], [12, 13]]))
    report = net.conflicts(routes)
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.batch import route_batch as _batch_route
from repro.core.conference import Conference, ConferenceSet
from repro.core.conflict import ConflictReport, analyze_conflicts
from repro.core.routing import Route, RoutingPolicy, TapPolicy, route_conference
from repro.switching.fabric import DeliveryReport, Fabric
from repro.topology.builders import build as build_topology
from repro.topology.network import MultistageNetwork

__all__ = ["ConferenceNetwork", "RealizationResult"]


@dataclass(frozen=True)
class RealizationResult:
    """Routes plus their conflict and hardware-delivery reports.

    Implements the shared result contract of :data:`repro.api.Result`:
    ``ok`` / ``reason`` / ``as_dict`` — the same shape
    :class:`~repro.serve.protocol.ServiceResponse` responses expose, so
    one serializer (``repro.report.serialize.result_to_dict``) renders
    all of them.
    """

    routes: tuple[Route, ...]
    conflicts: ConflictReport
    delivery: DeliveryReport

    @property
    def ok(self) -> bool:
        """True when every member heard its full conference."""
        return self.delivery.correct

    @property
    def reason(self) -> "str | None":
        """Why the realization failed (``None`` when it succeeded)."""
        if self.ok:
            return None
        return f"delivery: {len(self.delivery.errors)} member(s) heard a wrong mix"

    def as_dict(self) -> dict:
        """A JSON-ready summary (the shared result-serializer contract)."""
        return {
            "kind": "realization",
            "ok": self.ok,
            "reason": self.reason,
            "n_conferences": self.conflicts.n_conferences,
            "max_multiplicity": self.conflicts.max_multiplicity,
            "conflict_free": self.conflicts.conflict_free,
            "peak_link_load": self.delivery.peak_link_load,
            "errors": list(self.delivery.errors),
        }


class ConferenceNetwork:
    """A multistage conference switching network.

    Parameters
    ----------
    topology:
        A built :class:`MultistageNetwork` (see
        ``repro.topology.builders``) or use :meth:`build` by name.
    policy:
        Routing policy; the default uses the earliest-tap mux relay.
    dilation:
        Channels per inter-stage link.  Routing a conference set whose
        conflict multiplicity exceeds the dilation raises
        :class:`~repro.switching.fabric.CapacityExceeded` during
        :meth:`realize`.
    relay_enabled:
        Whether the Yang-2001 per-stage output multiplexers exist.  When
        off, the policy is forced to final-stage taps.
    """

    def __init__(
        self,
        topology: MultistageNetwork,
        policy: "RoutingPolicy | None" = None,
        dilation: int = 1,
        relay_enabled: bool = True,
    ):
        self._topology = topology
        if policy is None:
            policy = RoutingPolicy(
                tap_policy=TapPolicy.EARLIEST if relay_enabled else TapPolicy.FINAL
            )
        if not relay_enabled and policy.tap_policy is not TapPolicy.FINAL:
            raise ValueError("early taps require the mux relay; pass TapPolicy.FINAL")
        self._policy = policy
        self._relay_enabled = relay_enabled
        self._fabric = Fabric(topology, dilation=dilation, relay_enabled=relay_enabled)

    @classmethod
    def build(
        cls,
        topology_name: str,
        n_ports: int,
        policy: "RoutingPolicy | None" = None,
        dilation: int = 1,
        relay_enabled: bool = True,
    ) -> "ConferenceNetwork":
        """Construct a conference network from a topology registry name."""
        return cls(
            build_topology(topology_name, n_ports),
            policy=policy,
            dilation=dilation,
            relay_enabled=relay_enabled,
        )

    # -- introspection ---------------------------------------------------

    @property
    def topology(self) -> MultistageNetwork:
        """The underlying multistage network."""
        return self._topology

    @property
    def n_ports(self) -> int:
        """Number of conference ports."""
        return self._topology.n_ports

    @property
    def n_stages(self) -> int:
        """Number of switching stages."""
        return self._topology.n_stages

    @property
    def policy(self) -> RoutingPolicy:
        """The routing policy in force."""
        return self._policy

    @property
    def dilation(self) -> int:
        """Channels per inter-stage link."""
        return self._fabric.dilation

    @property
    def relay_enabled(self) -> bool:
        """Whether per-stage output multiplexers are present."""
        return self._relay_enabled

    @property
    def fabric(self) -> Fabric:
        """The simulated hardware fabric."""
        return self._fabric

    def __repr__(self) -> str:
        return (
            f"ConferenceNetwork({self._topology.name}, N={self.n_ports}, "
            f"dilation={self.dilation}, relay={'on' if self._relay_enabled else 'off'})"
        )

    # -- routing ----------------------------------------------------------

    def route(
        self,
        conference: "Conference | Iterable[int]",
        faults: "frozenset | None" = None,
    ) -> Route:
        """Route a single conference (members may be given as bare ports).

        ``faults`` is an optional set of dead points ``(level, row)``;
        routing then uses only surviving paths and taps (see
        ``repro.core.routing.route_conference``).
        """
        if not isinstance(conference, Conference):
            conference = Conference.of(conference)
        return route_conference(self._topology, conference, self._policy, faults=faults)

    def route_set(self, conferences: "ConferenceSet | Iterable[Iterable[int]]") -> tuple[Route, ...]:
        """Route every conference of a disjoint set (:meth:`route_batch`)."""
        return self.route_batch(conferences)

    def route_batch(
        self,
        conferences: "ConferenceSet | Iterable[Iterable[int]]",
    ) -> tuple[Route, ...]:
        """Route a disjoint set in one columnar pass; order is preserved.

        The bitset kernel (:func:`repro.core.batch.route_batch`)
        evaluates every conference's layered graph stage by stage with
        numpy columnar state, returning the routes one :meth:`route`
        call per conference would return, and raises the same error the
        first failing conference's :meth:`route` call would have raised.
        """
        conferences = self._coerce_set(conferences)
        outcomes = _batch_route(self._topology, list(conferences), self._policy)
        return tuple(outcome.unwrap() for outcome in outcomes)

    def conflicts(self, routes: Sequence[Route]) -> ConflictReport:
        """Conflict analysis of already-computed routes."""
        return analyze_conflicts(routes, n_stages=self.n_stages)

    def realize(
        self, conferences: "ConferenceSet | Iterable[Iterable[int]]"
    ) -> RealizationResult:
        """Route, conflict-check and hardware-simulate a conference set.

        Raises :class:`~repro.switching.fabric.CapacityExceeded` when the
        set needs more link channels than the configured dilation.
        """
        conferences = self._coerce_set(conferences)
        routes = self.route_set(conferences)
        conflicts = analyze_conflicts(routes, n_stages=self.n_stages)
        delivery = self._fabric.simulate(routes)
        return RealizationResult(routes=routes, conflicts=conflicts, delivery=delivery)

    def _coerce_set(
        self, conferences: "ConferenceSet | Iterable[Iterable[int]]"
    ) -> ConferenceSet:
        if isinstance(conferences, ConferenceSet):
            if conferences.n_ports != self.n_ports:
                raise ValueError(
                    f"conference set sized for {conferences.n_ports} ports, "
                    f"network has {self.n_ports}"
                )
            return conferences
        return ConferenceSet.of(self.n_ports, conferences)
