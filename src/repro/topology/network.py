"""Generic multistage interconnection network (MIN) model.

A network is a column of ``N`` input ports, then ``n_stages`` stages, then
``N`` output ports.  Each stage consists of a fixed *pre-wiring*
permutation, a column of ``N/2`` two-by-two switch modules on adjacent
rail pairs, and a fixed *post-wiring* permutation.  This canonical form
expresses every banyan-class topology in the paper (omega, baseline,
indirect binary cube and their reverses) with the right notion of a
persistent *physical row*: the inter-stage link on row ``r`` after stage
``t`` is the wire the paper's per-stage output multiplexers tap.

The network is purely structural — it knows which points connect to
which, but carries no signals.  Signal semantics live in
``repro.switching`` and routing in ``repro.core.routing``.

Coordinates
-----------
* A **point** ``(level, row)`` with ``0 <= level <= n_stages`` is a
  position on the wire entering stage ``level`` (or the network output
  column when ``level == n_stages``).  Level 0 points are the inputs.
* Stage ``s`` reads points at level ``s`` and drives points at level
  ``s + 1``.
* An **inter-stage link** is any point with ``level >= 1``: each such
  point is fed by exactly one switch output, so identifying links with
  their downstream points is lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

from repro.topology.permutations import Permutation, identity
from repro.util.validation import check_network_size, check_port, check_stage

__all__ = ["Stage", "MultistageNetwork", "Point"]

#: A point in the layered graph: ``(level, row)``.
Point = tuple[int, int]


@dataclass(frozen=True)
class Stage:
    """One switching stage: pre-wiring, switch column, post-wiring.

    ``pre`` maps a physical row at this level to the rail feeding the
    switch column (rails ``radix*t .. radix*t + radix - 1`` share switch
    ``t``); ``post`` maps a switch output rail to the physical row at
    the next level.  ``radix`` is the switch-module size — 2 for the
    paper's networks, larger for radix-``r`` delta networks.
    """

    pre: Permutation
    post: Permutation
    label: str = "stage"
    radix: int = 2

    def __post_init__(self) -> None:
        if self.pre.size != self.post.size:
            raise ValueError(
                f"stage wiring sizes differ: pre={self.pre.size}, post={self.post.size}"
            )
        if self.radix < 2:
            raise ValueError(f"switch radix must be >= 2, got {self.radix}")
        if self.pre.size % self.radix:
            raise ValueError(
                f"stage spans {self.pre.size} rows, not divisible by radix {self.radix}"
            )

    @property
    def size(self) -> int:
        """Number of rows the stage spans."""
        return self.pre.size

    @property
    def n_switches(self) -> int:
        """Switch modules in this stage."""
        return self.size // self.radix

    def switch_of_row(self, row: int) -> int:
        """Index of the switch module that reads physical row ``row``."""
        return self.pre(row) // self.radix

    def partner_row(self, row: int) -> int:
        """The other physical row sharing a switch with ``row`` (radix 2)."""
        if self.radix != 2:
            raise ValueError("partner_row is only defined for radix-2 stages")
        return self.pre.inverse(self.pre(row) ^ 1)

    def partner_rows(self, row: int) -> tuple[int, ...]:
        """All other physical rows sharing a switch with ``row``."""
        rail = self.pre(row)
        base = (rail // self.radix) * self.radix
        inv = self.pre.inverse
        return tuple(inv(base + i) for i in range(self.radix) if base + i != rail)

    def successors(self, row: int) -> tuple[int, ...]:
        """Physical rows at the next level reachable from ``row``.

        A switch module can forward (and broadcast) any input to every
        output, so each input row reaches all output rows of its switch;
        returned in rail order.
        """
        base = (self.pre(row) // self.radix) * self.radix
        return tuple(self.post(base + i) for i in range(self.radix))

    def predecessors(self, row: int) -> tuple[int, ...]:
        """Physical rows at this stage's input level that can drive ``row``."""
        base = (self.post.inverse(row) // self.radix) * self.radix
        inv = self.pre.inverse
        return tuple(inv(base + i) for i in range(self.radix))

    def switch_io(self, switch: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The (input rows, output rows) of switch ``switch``.

        Inputs/outputs are given in rail order, which is the order
        switch-state semantics in ``repro.switching`` use.
        """
        if not 0 <= switch < self.n_switches:
            raise ValueError(f"switch {switch} out of range [0, {self.n_switches})")
        rails = range(self.radix * switch, self.radix * (switch + 1))
        inv = self.pre.inverse
        return tuple(inv(r) for r in rails), tuple(self.post(r) for r in rails)


class MultistageNetwork:
    """A concrete multistage network topology.

    Instances are immutable descriptions of wiring; all heavy
    computations (successor tables, reachability) are cached on first
    use.  Build instances through ``repro.topology.builders`` rather than
    directly unless you are defining a new topology.
    """

    def __init__(self, n_ports: int, stages: "list[Stage] | tuple[Stage, ...]", name: str = "min"):
        stages = tuple(stages)
        if not stages:
            raise ValueError("a network needs at least one stage")
        radixes = {s.radix for s in stages}
        if len(radixes) != 1:
            raise ValueError(f"stages mix switch radixes {sorted(radixes)}")
        self._radix = next(iter(radixes))
        if self._radix == 2:
            check_network_size(n_ports)
        elif n_ports < 2 or n_ports % self._radix:
            raise ValueError(
                f"network size {n_ports} is not divisible by radix {self._radix}"
            )
        for s in stages:
            if s.size != n_ports:
                raise ValueError(
                    f"stage {s.label} spans {s.size} rows but network has {n_ports} ports"
                )
        self._n_ports = n_ports
        self._stages = stages
        self._name = name

    # -- basic shape ---------------------------------------------------

    @property
    def n_ports(self) -> int:
        """Number of input (and output) ports, ``N``."""
        return self._n_ports

    @property
    def n_stages(self) -> int:
        """Number of switching stages."""
        return len(self._stages)

    @property
    def n_levels(self) -> int:
        """Number of point levels (stages + 1)."""
        return len(self._stages) + 1

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The stage descriptions, input side first."""
        return self._stages

    @property
    def name(self) -> str:
        """Topology name, e.g. ``"omega"``."""
        return self._name

    @property
    def radix(self) -> int:
        """Switch-module size (2 for all the paper's networks)."""
        return self._radix

    @property
    def n_switches(self) -> int:
        """Total number of switch modules in the network."""
        return self.n_stages * (self._n_ports // self._radix)

    @property
    def n_links(self) -> int:
        """Total number of inter-stage links (including output-column wires)."""
        return self.n_stages * self._n_ports

    def __repr__(self) -> str:
        return f"MultistageNetwork({self._name}, N={self._n_ports}, stages={self.n_stages})"

    # -- layered-graph navigation --------------------------------------

    def successors(self, level: int, row: int) -> tuple[Point, ...]:
        """The points a signal at ``(level, row)`` can drive."""
        check_stage(level, self.n_stages)
        check_port(row, self._n_ports, "row")
        return tuple((level + 1, r) for r in self._stages[level].successors(row))

    def predecessors(self, level: int, row: int) -> tuple[Point, ...]:
        """The points that can drive ``(level, row)`` (``level >= 1``)."""
        if level < 1:
            raise ValueError("level-0 points are network inputs and have no predecessors")
        check_stage(level, self.n_stages, inclusive=True)
        check_port(row, self._n_ports, "row")
        return tuple((level - 1, r) for r in self._stages[level - 1].predecessors(row))

    @cached_property
    def successor_table(self) -> np.ndarray:
        """Array ``[stage, row, side] -> next-level row`` for fast routing.

        The last axis has ``radix`` entries (2 for the paper's networks).
        """
        n, m, r = self.n_stages, self._n_ports, self._radix
        tab = np.empty((n, m, r), dtype=np.int64)
        for s, stage in enumerate(self._stages):
            rails = stage.pre.table
            post = stage.post.table
            base = (rails // r) * r
            for i in range(r):
                tab[s, :, i] = post[base + i]
        tab.setflags(write=False)
        return tab

    @cached_property
    def predecessor_table(self) -> np.ndarray:
        """Array ``[stage, row, side] -> previous-level row``."""
        n, m, r = self.n_stages, self._n_ports, self._radix
        tab = np.empty((n, m, r), dtype=np.int64)
        for s, stage in enumerate(self._stages):
            pre_inv = stage.pre.inverse.table
            rails = stage.post.inverse.table
            base = (rails // r) * r
            for i in range(r):
                tab[s, :, i] = pre_inv[base + i]
        tab.setflags(write=False)
        return tab

    # -- path structure (bitsets, built on first use) --------------------

    @cached_property
    def _ancestors(self) -> "tuple[tuple[int, ...], ...]":
        """``[t][r]``: bitset of the inputs that reach point ``(t, r)``."""
        level = tuple(1 << r for r in range(self._n_ports))
        out = [level]
        for sides in self.predecessor_table.tolist():
            level = tuple(reduce(or_, [level[p] for p in preds]) for preds in sides)
            out.append(level)
        return tuple(out)

    @cached_property
    def _unique_paths(self) -> bool:
        """At most one path joins any input to any point.

        True iff at every point the ancestor sets of its predecessors are
        pairwise disjoint (by induction over the levels).
        """
        anc = self._ancestors
        for t, sides in enumerate(self.predecessor_table.tolist()):
            for preds in sides:
                seen = 0
                for p in preds:
                    if anc[t][p] & seen:
                        return False
                    seen |= anc[t][p]
        return True

    @cached_property
    def _cones(self) -> "tuple[tuple[int, ...], ...]":
        """``[t][r]``: the points ``(t + d, r')`` that ``(t, r)`` reaches,
        as a bitset with bit ``d * n_ports + r'`` (the point itself is bit
        ``r``)."""
        n = self._n_ports
        level = tuple(1 << r for r in range(n))
        out = [level]
        for sides in reversed(self.successor_table.tolist()):
            level = tuple(
                (reduce(or_, [level[s] for s in succ]) << n) | (1 << r)
                for r, succ in enumerate(sides)
            )
            out.append(level)
        return tuple(reversed(out))

    # -- whole-network derived structure --------------------------------

    def straight_permutation(self) -> Permutation:
        """Input->output mapping when every switch is set straight.

        Omega and the indirect binary cube realize the identity; baseline
        realizes bit reversal.  Used as a regression oracle in tests.
        """
        perm = identity(self._n_ports)
        for stage in self._stages:
            # Straight switch: rail r out = rail r in, so the stage acts
            # as post∘pre on physical rows.
            perm = perm.then(stage.pre).then(stage.post)
        return perm

    def reachable_rows(self, level_from: int, row: int, level_to: int) -> frozenset[int]:
        """All rows at ``level_to`` reachable from ``(level_from, row)``."""
        check_stage(level_from, self.n_stages, inclusive=True)
        check_stage(level_to, self.n_stages, inclusive=True)
        if level_to < level_from:
            raise ValueError(f"cannot reach backward: {level_from} -> {level_to}")
        frontier = {row}
        tab = self.successor_table
        sides = range(tab.shape[2])
        for s in range(level_from, level_to):
            nxt: set[int] = set()
            for r in frontier:
                for i in sides:
                    nxt.add(int(tab[s, r, i]))
            frontier = nxt
        return frozenset(frontier)

    def co_reachable_rows(self, level_to: int, row: int, level_from: int) -> frozenset[int]:
        """All rows at ``level_from`` that can reach ``(level_to, row)``."""
        check_stage(level_from, self.n_stages, inclusive=True)
        check_stage(level_to, self.n_stages, inclusive=True)
        if level_to < level_from:
            raise ValueError(f"cannot reach backward: {level_from} -> {level_to}")
        frontier = {row}
        tab = self.predecessor_table
        sides = range(tab.shape[2])
        for s in range(level_to, level_from, -1):
            prev: set[int] = set()
            for r in frontier:
                for i in sides:
                    prev.add(int(tab[s - 1, r, i]))
            frontier = prev
        return frozenset(frontier)

    def reversed_network(self, name: "str | None" = None) -> "MultistageNetwork":
        """The mirror-image network (outputs become inputs).

        Reversing omega yields the flip network; reversing baseline
        yields the reverse baseline.  The reverse of a banyan network is
        banyan, which the property tests exploit.
        """
        rev = [
            Stage(pre=s.post.inverse, post=s.pre.inverse, label=f"rev-{s.label}", radix=s.radix)
            for s in reversed(self._stages)
        ]
        return MultistageNetwork(self._n_ports, rev, name=name or f"reverse-{self._name}")
