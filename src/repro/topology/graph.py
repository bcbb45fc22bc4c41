"""Layered-graph algorithms over a multistage network.

The routing and analysis code views a network as a DAG of points
``(level, row)``.  This module holds the generic graph machinery: path
finding/counting, forward and backward cones, and a networkx export used
by visual inspection tools and a few property tests.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.topology.network import MultistageNetwork, Point
from repro.util.validation import check_port, check_stage

__all__ = [
    "forward_cone",
    "backward_cone",
    "count_paths",
    "unique_path",
    "all_paths",
    "to_networkx",
]


def forward_cone(net: MultistageNetwork, source: Point) -> list[frozenset[int]]:
    """Rows reachable from ``source`` at each level ``source.level..n``.

    Returns a list indexed from 0 where entry ``d`` is the reachable row
    set at level ``source_level + d``; entry 0 is ``{source_row}``.
    """
    level, row = source
    check_stage(level, net.n_stages, inclusive=True)
    check_port(row, net.n_ports, "row")
    tab = net.successor_table
    sides = range(tab.shape[2])
    cones = [frozenset({row})]
    frontier = {row}
    for s in range(level, net.n_stages):
        nxt: set[int] = set()
        for r in frontier:
            for i in sides:
                nxt.add(int(tab[s, r, i]))
        frontier = nxt
        cones.append(frozenset(frontier))
    return cones


def backward_cone(net: MultistageNetwork, sink: Point) -> list[frozenset[int]]:
    """Rows that can reach ``sink``, per level ``0..sink.level``.

    Entry ``t`` of the returned list is the set of rows at level ``t``
    from which ``sink`` is reachable; the last entry is ``{sink_row}``.
    """
    level, row = sink
    check_stage(level, net.n_stages, inclusive=True)
    check_port(row, net.n_ports, "row")
    tab = net.predecessor_table
    sides = range(tab.shape[2])
    cones = [frozenset({row})]
    frontier = {row}
    for s in range(level, 0, -1):
        prev: set[int] = set()
        for r in frontier:
            for i in sides:
                prev.add(int(tab[s - 1, r, i]))
        frontier = prev
        cones.append(frozenset(frontier))
    cones.reverse()
    return cones


def count_paths(net: MultistageNetwork, source: int, dest: int) -> int:
    """Number of distinct input->output paths from port ``source`` to ``dest``.

    Banyan networks have exactly one for every (source, dest) pair; the
    property tests hold :func:`~repro.topology.properties.is_banyan`
    against this pairwise count.
    """
    check_port(source, net.n_ports, "source")
    check_port(dest, net.n_ports, "dest")
    tab = net.successor_table
    counts = np.zeros(net.n_ports, dtype=np.int64)
    counts[source] = 1
    for s in range(net.n_stages):
        nxt = np.zeros(net.n_ports, dtype=np.int64)
        active = np.nonzero(counts)[0]
        for i in range(tab.shape[2]):
            np.add.at(nxt, tab[s, active, i], counts[active])
        counts = nxt
    return int(counts[dest])


def unique_path(net: MultistageNetwork, source: int, dest: int) -> tuple[Point, ...]:
    """The unique path from input ``source`` to output ``dest``.

    Only valid on banyan networks; raises ``ValueError`` when zero or
    multiple paths exist.  The returned tuple runs from ``(0, source)``
    to ``(n_stages, dest)`` inclusive.
    """
    paths = all_paths(net, source, dest)
    if len(paths) != 1:
        raise ValueError(
            f"expected a unique path {source}->{dest} in {net.name}, found {len(paths)}"
        )
    return paths[0]


def all_paths(net: MultistageNetwork, source: int, dest: int) -> list[tuple[Point, ...]]:
    """All input->output paths from ``source`` to ``dest``."""
    check_port(source, net.n_ports, "source")
    check_port(dest, net.n_ports, "dest")
    # Intersect forward cone of the source with backward cone of the dest,
    # then enumerate by DFS restricted to surviving points.
    fwd = forward_cone(net, (0, source))
    bwd = backward_cone(net, (net.n_stages, dest))
    alive = [fwd[t] & bwd[t] for t in range(net.n_levels)]
    if not alive[0] or not alive[-1]:
        return []
    tab = net.successor_table
    results: list[tuple[Point, ...]] = []

    def extend(prefix: list[Point]) -> None:
        level, row = prefix[-1]
        if level == net.n_stages:
            results.append(tuple(prefix))
            return
        for side in range(tab.shape[2]):
            nxt = int(tab[level, row, side])
            if nxt in alive[level + 1]:
                prefix.append((level + 1, nxt))
                extend(prefix)
                prefix.pop()

    extend([(0, source)])
    # Broadcast switches can reach the same next row via both outputs of
    # a switch only if post-wiring merged rails, which Stage forbids
    # (post is a bijection), so DFS cannot emit duplicates.
    return results


def to_networkx(net: MultistageNetwork) -> nx.DiGraph:
    """Export the layered point graph as a ``networkx.DiGraph``.

    Nodes are ``(level, row)`` tuples; edges carry the stage index as the
    attribute ``stage`` and the driving switch as ``switch``.
    """
    g = nx.DiGraph(name=net.name, n_ports=net.n_ports, n_stages=net.n_stages)
    tab = net.successor_table
    for s, stage in enumerate(net.stages):
        for row in range(net.n_ports):
            for side in range(tab.shape[2]):
                g.add_edge(
                    (s, row),
                    (s + 1, int(tab[s, row, side])),
                    stage=s,
                    switch=stage.switch_of_row(row),
                )
    return g
