"""General group connections: many-to-many, multicast, and conference.

The paper frames conferencing inside the broader space of *group
communication*: "messages from one or more sender(s) are delivered to a
large number of receivers".  This module implements that general object
— a :class:`GroupConnection` with independent sender and receiver sets —
on the same fabric and with the same routing kernel
(:mod:`repro.core.batch`), the receivers given as its tap rows:

* senders inject; switches combine senders' signals;
* each *receiver* taps the earliest link on its own row carrying the
  combination of **all senders**.

Special cases: ``senders == receivers`` is the paper's conference;
``len(senders) == 1`` is multicast; ``receivers ⊂ senders`` is a
broadcast bus with passive talkers.  Routes expose the same ``links`` /
``n_stages`` interface as conference routes, so conflict analysis and
slot scheduling work unchanged on mixed traffic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.batch import _route_batch
from repro.core.conference import Conference
from repro.core.routing import RoutingPolicy, TapPolicy, _check_taps, _LinkAccounting
from repro.topology.network import MultistageNetwork
from repro.util.validation import check_ports

__all__ = ["GroupConnection", "GroupRoute", "route_group"]


@dataclass(frozen=True)
class GroupConnection:
    """A group-communication request: who talks, who listens.

    Senders and receivers may overlap arbitrarily; both must be
    non-empty.  A port may appear in both roles (a conference member).
    """

    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    connection_id: int = 0

    def __post_init__(self) -> None:
        if not self.senders:
            raise ValueError("a group connection needs at least one sender")
        if not self.receivers:
            raise ValueError("a group connection needs at least one receiver")
        object.__setattr__(self, "senders", tuple(sorted(set(self.senders))))
        object.__setattr__(self, "receivers", tuple(sorted(set(self.receivers))))

    @staticmethod
    def multicast(source: int, destinations: Iterable[int], connection_id: int = 0) -> "GroupConnection":
        """One sender, many receivers."""
        return GroupConnection((source,), tuple(destinations), connection_id)

    @staticmethod
    def conference(members: Iterable[int], connection_id: int = 0) -> "GroupConnection":
        """Everyone talks, everyone listens — the paper's object."""
        members = tuple(members)
        return GroupConnection(members, members, connection_id)

    @property
    def is_conference(self) -> bool:
        """True when senders and receivers coincide."""
        return self.senders == self.receivers

    @property
    def is_multicast(self) -> bool:
        """True for single-sender connections."""
        return len(self.senders) == 1

    @property
    def ports(self) -> frozenset[int]:
        """All ports the connection touches in either role."""
        return frozenset(self.senders) | frozenset(self.receivers)


@dataclass(frozen=True)
class GroupRoute(_LinkAccounting):
    """Realization of a group connection; interface-compatible with
    :class:`~repro.core.routing.Route` for conflict accounting (the
    link accounting is Route's own); ``levels`` carry sender bitmasks."""

    connection: GroupConnection
    n_ports: int
    n_stages: int
    levels: tuple[dict[int, int], ...]
    taps: dict[int, int]

    # -- fabric adapter (shared with Route) ------------------------------

    @property
    def channel_id(self) -> int:
        """Channel identifier on dilated links (the connection id)."""
        return self.connection.connection_id

    @property
    def injections(self) -> tuple[int, ...]:
        """Ports that transmit into the fabric (the senders)."""
        return self.connection.senders

    @property
    def expected_delivery(self) -> frozenset[int]:
        """What each tap must receive: every sender's signal."""
        return frozenset(self.connection.senders)

    @property
    def exclusive_ports(self) -> frozenset[int]:
        """Ports this connection claims exclusively."""
        return self.connection.ports


def route_group(
    net: MultistageNetwork,
    connection: GroupConnection,
    earliest_taps: bool = True,
) -> GroupRoute:
    """Route a group connection through ``net``.

    Same two sweeps as conference routing, with taps on *receiver* rows:
    forward sender-mask propagation, per-receiver earliest (or final)
    tap, backward usefulness marking.  Raises ``ValueError`` when some
    receiver can never hear every sender (impossible on full-access
    networks).
    """
    return _route_groups(net, [connection], earliest_taps)[0]


def _route_groups(
    net: MultistageNetwork,
    connections: "Sequence[GroupConnection]",
    earliest_taps: bool,
) -> list[GroupRoute]:
    """:func:`route_group` for a list of connections, in one kernel call.
    All ports are checked first; then the first unroutable connection raises."""
    for connection in connections:
        check_ports(connection.senders, net.n_ports, "senders")
        check_ports(connection.receivers, net.n_ports, "receivers")
    policy = RoutingPolicy(TapPolicy.EARLIEST if earliest_taps else TapPolicy.FINAL)
    confs = [Conference(c.senders, c.connection_id) for c in connections]
    receivers = [c.receivers for c in connections]
    outcomes = _route_batch(net, confs, policy, frozenset(), receivers=receivers)
    routes = []
    for connection, outcome in zip(connections, outcomes):
        if not outcome.ok:
            port = outcome.error.port
            if earliest_taps:
                raise ValueError(
                    f"receiver {port} can never hear all senders "
                    f"{connection.senders} in {net.name}"
                )
            raise ValueError(f"receiver {port} cannot combine all senders at the outputs")
        route = outcome.route
        _check_taps(net, route)
        routes.append(GroupRoute(connection, net.n_ports, net.n_stages, route.levels, route.taps))
    return routes
