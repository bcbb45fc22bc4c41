"""Time-division alternative to space dilation.

A network with conflict multiplicity ``f`` can be built two ways: dilate
every link to ``f`` channels (space), or run ``f`` time slots per frame
and schedule conflicting conferences into different slots (time).  The
slot-assignment problem is graph colouring of the *conflict graph*
(vertices = conferences, edges = pairs sharing a link); the maximum link
multiplicity is exactly the largest hyperedge clique and hence a lower
bound on the slot count, but colouring can need more because conflict
relations overlap imperfectly.

This module builds conflict graphs, colours them (DSATUR via
networkx), and reports the slots/dilation gap that the
scheduling ablation bench measures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import networkx as nx

from repro.core.conflict import analyze_conflicts, link_loads
from repro.core.routing import Route

__all__ = ["conflict_graph", "ScheduleResult", "schedule_slots"]


def conflict_graph(routes: Sequence[Route]) -> nx.Graph:
    """Graph with one node per conference, edges between link-sharers.

    Node labels are conference ids; each edge carries one witnessing
    shared link as the attribute ``link``.
    """
    g = nx.Graph()
    routes = list(routes)
    for route in routes:
        g.add_node(route.conference.conference_id)
    for i, a in enumerate(routes):
        for b in routes[i + 1 :]:
            shared = a.links & b.links
            if shared:
                g.add_edge(
                    a.conference.conference_id,
                    b.conference.conference_id,
                    link=min(shared),
                )
    return g


@dataclass(frozen=True)
class ScheduleResult:
    """A slot assignment for a set of conference routes.

    ``slots[cid]`` is the time slot of conference ``cid``; ``n_slots``
    is the frame length; ``clique_bound`` is the max link multiplicity
    (no schedule can beat it).
    """

    slots: dict[int, int]
    n_slots: int
    clique_bound: int

    @property
    def optimal(self) -> bool:
        """True when the schedule meets the link-multiplicity bound."""
        return self.n_slots == self.clique_bound


def schedule_slots(routes: Sequence[Route]) -> ScheduleResult:
    """Colour the conflict graph into time slots with greedy DSATUR.

    Verifies the produced schedule: no two same-slot conferences share a
    link.  An empty route set (the TDM mode between sessions) gets an
    empty schedule.
    """
    routes = list(routes)
    graph = conflict_graph(routes)
    if len(routes) == 0:
        return ScheduleResult(slots={}, n_slots=0, clique_bound=0)
    colouring = nx.coloring.greedy_color(graph, strategy="DSATUR")
    n_slots = (max(colouring.values()) + 1) if colouring else 1

    by_id = {r.conference.conference_id: r for r in routes}
    for a, b in graph.edges():
        if colouring[a] == colouring[b]:
            raise AssertionError(f"colouring put conflicting conferences {a},{b} in one slot")
    # Independent re-check against raw link loads per slot.
    for slot in range(n_slots):
        slot_routes = [by_id[c] for c, s in colouring.items() if s == slot]
        loads = link_loads(slot_routes)
        if loads and max(loads.values()) > 1:
            raise AssertionError(f"slot {slot} still has a link conflict")

    clique = analyze_conflicts(routes, n_stages=routes[0].n_stages).max_multiplicity
    return ScheduleResult(
        slots=dict(colouring),
        n_slots=n_slots,
        clique_bound=max(clique, 1),
    )
