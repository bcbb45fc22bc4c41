"""Bit-sliced batch routing — the kernel behind ``route_batch``.

This is the one routing engine of the library: every path that routes a
conference (``route_conference``, admission, healing, churn, backup
plans, analysis) or a group connection (``route_group``) ends in
:func:`_kernel`.  It evaluates a whole *batch*
of conferences stage by stage with wide integer operations, the idiom of
stage-wide MIN evaluation.  Each stage of the network is one fixed row
permutation per switch side, so it is applied to whole packed words at
once:

* **Forward planes.**  Level ``t`` is a row-major ``(n_rows, W)`` uint64
  plane.  Conference ``c`` of ``m`` members starts at bit ``shift`` of
  word ``word``; member ``i`` is bit ``(shift + i) & 63`` of word
  ``word + ((shift + i) >> 6)``.  Slots are packed first-fit in batch
  order: a slot of at most 64 members never straddles two words, so a
  word carries several small conferences and ``W`` is about the batch's
  member count over 64; a wider conference starts a fresh word and
  spans ``ceil(m / 64)`` of them.  A stage gathers the rows of every
  switch side in one ``take`` and ORs them; a dead point zeroes its
  whole row, for every conference at once.
* **Taps.**  A receiver's slot is full at ``(t, r)`` when every word
  piece of its conference's slot is set there.  The receivers are the
  members, or a group connection's own rows (its members are then the
  senders).  The policy picks the earliest or the final full level; a
  *pinned* receiver (incremental churn) taps at its pin instead
  whenever its slot is full there.
* **Backward planes.**  Level ``t`` is a ``(n_rows, ceil(B / 64))``
  uint64 plane with one bit per conference: bit ``c`` is set where some
  tap of conference ``c`` is reachable through surviving points.
* **Replay.**  The used region is walked level by level from the member
  rows: each level takes the successors of the previous level's used
  points, keeps those whose conference bit is marked, and keeps the
  first occurrence of each point, which is the sequential walk's
  first-touch order.

The contract is **byte-identity** with the sequential walk of
:mod:`repro.core.reference`, not mere equality: the produced
:class:`~repro.core.routing.Route` objects build their ``levels`` and
``taps`` dicts in the *same insertion order* the sequential algorithm
uses, so ``repr``, JSON serialization, frozenset iteration of
``Route.links`` — and therefore every downstream order-sensitive
decision (admission capacity messages, the worst-case search's
``max(loads.items())`` target pick) — are indistinguishable from the
per-object path.  The differential grid in
``tests/core/test_batch_differential.py`` holds the kernel against that
walk across every registered topology, both tap policies, fault sets,
conference sizes and batch shapes.

**Fault overlay.**  Besides the shared fault set, the kernel takes an
optional per-conference list of extra dead points.  Once a forward
level is filled, an overlay point ``(t, r)`` of conference ``c`` clears
only ``c``'s slot in ``masks[t, r]``; in the backward sweep it clears
only ``c``'s bit of the gathered plane at ``(t, r)`` before the OR.
Conference ``c`` is then routed exactly as under ``faults | overlay[c]``
(``tests/core/test_batch_overlay.py``), so backup planning routes every
``(conference, protected link)`` pair of a re-protect in one call.  A
batch with no overlay, pins or wide conference does no extra array
work for them.

**Pruning.**  ``policy.prune=True`` (the greedy ablation) is a post-pass
over each kernel route: :func:`~repro.core.routing._prune`, then the
carried-mask canonicalisation, then the tap invariant.

A batch is routed in chunks of at most ``_MAX_CELLS // n_rows``
conferences and as many words (a slot takes ``ceil(m / 64)`` words at
most), so no level of a chunk's planes exceeds ``_MAX_CELLS`` cells and
memory stays flat however large the batch.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from repro.core.conference import Conference
from repro.core.conflict import ConflictReport
from repro.core.routing import (
    Route,
    RoutingPolicy,
    TapPolicy,
    _carried_masks,
    _check_taps,
    _prune,
    _unroutable,
)
from repro.obs.metrics import timed
from repro.topology.network import MultistageNetwork, Point
from repro.util.bits import pack_rows

__all__ = [
    "BatchRouteOutcome",
    "route_batch",
    "stage_occupancy",
    "occupancy_words",
    "analyze_conflicts_columnar",
]

#: Soft bound on ``n_words * n_rows`` cells per level; larger batches
#: are routed in chunks so memory stays flat.
_MAX_CELLS = 1 << 18

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: ``_BIT[i]`` is the uint64 with only bit ``i`` set.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))

@dataclass(frozen=True)
class BatchRouteOutcome:
    """One conference's result within a :func:`route_batch` call.

    Exactly one of ``route`` / ``error`` is set; ``error`` carries the
    same exception (type and message) the sequential
    :func:`~repro.core.routing.route_conference` call would have raised.
    """

    conference: Conference
    route: "Route | None" = None
    error: "ValueError | None" = None

    @property
    def ok(self) -> bool:
        """True when the conference was routed."""
        return self.route is not None

    def unwrap(self) -> Route:
        """The route, or (re-)raise the recorded routing error."""
        if self.route is not None:
            return self.route
        raise type(self.error)(*self.error.args)


def route_batch(
    net: MultistageNetwork,
    conferences: "Sequence[Conference] | Iterable[Conference]",
    policy: "RoutingPolicy | None" = None,
    faults: "frozenset | None" = None,
) -> list[BatchRouteOutcome]:
    """Route every conference of a batch; order is preserved.

    Semantics per conference are exactly those of
    :func:`~repro.core.routing.route_conference` under the same ``net``,
    ``policy`` and ``faults`` — routing is a pure per-conference
    function, so batching changes when the work happens, never the
    result.  Failures (``UnroutableError`` under faults, ``ValueError``
    for out-of-range members) are captured per conference instead of
    aborting the batch.
    """
    return _route_batch(
        net,
        list(conferences),
        policy or RoutingPolicy(),
        frozenset(faults) if faults else frozenset(),
    )


@timed("repro_route_batch")
def _route_batch(
    net: MultistageNetwork,
    confs: "list[Conference]",
    policy: RoutingPolicy,
    dead: frozenset,
    overlay: "Sequence[Collection[Point]] | None" = None,
    pins: "Sequence[dict[int, int]] | None" = None,
    receivers: "Sequence[Sequence[int]] | None" = None,
) -> list[BatchRouteOutcome]:
    """:func:`route_batch` with optional per-conference overlays, pins, receivers.

    ``overlay[i]`` holds extra dead points for ``confs[i]`` alone, on top
    of the shared ``dead`` set: conference ``i``'s outcome is exactly
    ``route_batch(net, [confs[i]], policy, dead | overlay[i])``.  That is
    how a backup plan for every ``(conference, protected point)`` pair
    of a re-protect is routed in one call.

    ``pins[i]`` maps members of ``confs[i]`` to tap levels to keep: a
    pinned member taps at its pin when its slot is full there, and at
    its policy tap otherwise (incremental churn, :mod:`repro.core.churn`).

    ``receivers[i]`` (sorted, non-empty, checked by the caller) are the
    rows that tap ``confs[i]`` in place of its members, which still inject
    (group connections, :mod:`repro.core.groupcast`).  Every failure's
    ``port`` attribute names the first receiver that cannot tap.
    """
    outcomes: "list[BatchRouteOutcome | None]" = [None] * len(confs)
    limit = max(1, _MAX_CELLS // net.n_ports)
    chunks: list[list[int]] = []
    words = limit
    for i, conf in enumerate(confs):
        if conf.members[-1] >= net.n_ports:
            outcomes[i] = BatchRouteOutcome(
                conf,
                error=ValueError(
                    f"conference member {conf.members[-1]} out of range for "
                    f"{net.n_ports}-port network"
                ),
            )
            continue
        need = (len(conf.members) + 63) >> 6
        if words + need > limit:
            chunks.append([])
            words = 0
        chunks[-1].append(i)
        words += need
    for part in chunks:
        extras = [None if s is None else [s[i] for i in part] for s in (overlay, pins, receivers)]
        for i, outcome in zip(part, _kernel(net, [confs[i] for i in part], policy, dead, *extras)):
            outcomes[i] = _pruned(net, outcome) if policy.prune and outcome.ok else outcome
    return outcomes  # type: ignore[return-value]


def _pruned(net: MultistageNetwork, outcome: BatchRouteOutcome) -> BatchRouteOutcome:
    """The greedy-pruning ablation as a post-pass over a kernel route."""
    route = outcome.route
    conf = route.conference
    levels = _carried_masks(net, conf, _prune(net, conf, list(route.levels), route.taps))
    pruned = Route(conf, route.n_ports, route.n_stages, tuple(levels), route.taps)
    _check_taps(net, pruned)
    return BatchRouteOutcome(conf, route=pruned)


def _slots(sizes: "list[int]") -> "tuple[list[int], list[int]]":
    """Lay each conference's member bits out in 64-bit words.

    Conference ``c`` of ``m`` members starts at bit ``shifts[c]`` of
    word ``words[c]``, first-fit in batch order.  A slot of at most 64
    members never straddles two words; a wider one starts a fresh word
    and spans ``ceil(m / 64)`` words.
    """
    words, shifts = [], []
    word = shift = 0
    for m in sizes:
        if shift and shift + m > 64:
            word, shift = word + 1, 0
        words.append(word)
        shifts.append(shift)
        word, shift = word + ((shift + m) >> 6), (shift + m) & 63
    return words, shifts


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(s, s + n)`` for each ``(s, n)`` pair."""
    ends = np.cumsum(counts)
    return np.repeat(starts + counts - ends, counts) + np.arange(ends[-1] if len(ends) else 0)


def _flatten(
    lists: "Sequence[Sequence[int]]", sizes: "Sequence[int]"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Concatenated rows, start offsets and owning entry of row lists."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    rows = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(offsets[-1]))
    return rows, offsets, np.repeat(np.arange(len(lists), dtype=np.int64), sizes)


def _gather_or(plane: np.ndarray, table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One stage of a row-major plane: ``out[r] = OR_s plane[table[r, s]]``.

    All switch sides are gathered in a single ``take``.
    """
    sides = np.take(plane, table.T, axis=0)
    np.bitwise_or(sides[0], sides[1], out=out)
    for side in sides[2:]:
        out |= side
    return out


def _points_by_level(
    groups: "Sequence[Collection[Point]]", n_stages: int, n_rows: int
) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
    """Group on-grid points by level: ``t -> (group indexes, rows)``."""
    by_level: dict[int, tuple[list[int], list[int]]] = {}
    for c, points in enumerate(groups):
        for level, row in points:
            if 0 <= level <= n_stages and 0 <= row < n_rows:
                confs, rows = by_level.setdefault(level, ([], []))
                confs.append(c)
                rows.append(row)
    return {
        level: (np.asarray(confs, dtype=np.int64), np.asarray(rows, dtype=np.int64))
        for level, (confs, rows) in by_level.items()
    }


def _kernel(
    net: MultistageNetwork,
    confs: list[Conference],
    policy: RoutingPolicy,
    dead: frozenset,
    overlay: "Sequence[Collection[Point]] | None" = None,
    pins: "Sequence[dict[int, int]] | None" = None,
    receivers: "Sequence[Sequence[int]] | None" = None,
) -> list[BatchRouteOutcome]:
    """The bit-sliced forward/tap/backward sweep over one chunk.

    ``overlay[c]`` (optional) lists extra dead points of conference
    ``c`` alone: they clear only ``c``'s slot of the forward planes and
    ``c``'s bit of the backward planes.  ``pins[c]`` (optional) maps
    receivers of conference ``c`` to tap levels kept where the slot is
    full.  ``receivers[c]`` (optional) are the rows that tap conference
    ``c``; by default its members, whose arrays are then reused.
    """
    n_rows, n_stages, radix = net.n_ports, net.n_stages, net.radix
    n_levels = n_stages + 1
    n_conf = len(confs)
    succ, pred = net.successor_table, net.predecessor_table
    dead_at = _points_by_level([dead], n_stages, n_rows)
    overlay_at = _points_by_level(overlay, n_stages, n_rows) if overlay else {}

    member_lists = [c.members for c in confs]
    size_list = [len(m) for m in member_lists]
    word_list, shift_list = _slots(size_list)
    n_words = word_list[-1] + ((shift_list[-1] + size_list[-1] + 63) >> 6)
    n_cwords = (n_conf + 63) >> 6
    sizes = np.array(size_list, dtype=np.int64)
    members, offsets, conf_of = _flatten(member_lists, sizes)
    total = len(members)
    # Members inject; receivers (by default the members) tap.
    recv_lists = member_lists if receivers is None else receivers
    recv_rows, recv_offsets, recv_conf = (
        (members, offsets, conf_of) if receivers is None
        else _flatten(receivers, [len(r) for r in receivers])
    )
    n_recv = len(recv_rows)
    word_c = np.array(word_list, dtype=np.int64)
    shift_c = np.array(shift_list, dtype=np.int64)
    # Member i of a conference is bit (shift + i) & 63 of word
    # word + ((shift + i) >> 6); small slots stay inside their word.
    pos = shift_c[conf_of] + np.arange(total, dtype=np.int64) - offsets[conf_of]
    word_m = word_c[conf_of] + (pos >> 6)
    bits = _BIT[pos & 63]
    # A slot's pieces: one per word it touches, each with its word, its
    # lowest bit and its in-word bits.  A small slot is one piece,
    # indexed by its conference; a wide slot starts at bit 0.
    wide = max(size_list) > 64
    if wide:
        n_pieces_c = (shift_c + sizes + 63) >> 6
        piece_start = np.cumsum(n_pieces_c) - n_pieces_c
        piece_conf = np.repeat(np.arange(n_conf, dtype=np.int64), n_pieces_c)
        piece_k = np.arange(len(piece_conf), dtype=np.int64) - piece_start[piece_conf]
        piece_word = word_c[piece_conf] + piece_k
        piece_lo = np.where(piece_k == 0, shift_c[piece_conf], 0)
        width = np.minimum(shift_c[piece_conf] + sizes[piece_conf] - 64 * piece_k, 64) - piece_lo
    else:
        piece_word, piece_lo, width = word_c, shift_c, sizes
    piece_lo = piece_lo.astype(np.uint64)
    piece_slot = np.left_shift(_ALL_ONES >> (64 - width).astype(np.uint64), piece_lo)

    def pieces_of(conf_idx: np.ndarray, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Every ``(piece, row)`` pair of some conferences' ``(conf, row)`` cells."""
        if not wide:
            return conf_idx, rows
        counts = n_pieces_c[conf_idx]
        return _ranges(piece_start[conf_idx], counts), np.repeat(rows, counts)

    # Forward pass: masks[t, r, w] packs, slot by slot, the members of
    # each conference in word w whose signal can be present at point
    # (t, r) through surviving paths.  A stage gathers the rows of every
    # switch side and ORs them; a dead row is zeroed for every conference
    # at once; an overlay point clears only its own conference's slot
    # (``at``, since two conferences of one word may share a dead cell).
    # Seeding ORs because overlapping conferences may share a cell.
    masks = np.zeros((n_levels, n_rows, n_words), dtype=np.uint64)
    np.bitwise_or.at(masks[0], (members, word_m), bits)
    overlay_pieces = {t: pieces_of(*cells) for t, cells in overlay_at.items()}
    for t in range(n_levels):
        if t:
            _gather_or(masks[t - 1], pred[t - 1], masks[t])
        if t in dead_at:
            masks[t, dead_at[t][1]] = 0
        if t in overlay_pieces:
            ov_pieces, ov_rows = overlay_pieces[t]
            np.bitwise_and.at(
                masks[t], (ov_rows, piece_word[ov_pieces]), ~piece_slot[ov_pieces]
            )
    flat_masks = masks.reshape(n_levels, -1)

    # Tap selection: ok[t, i] where every piece of receiver i's slot is
    # full on receiver i's own row at level t.
    tap_pieces, tap_rows = pieces_of(recv_conf, recv_rows)
    slot = piece_slot[tap_pieces]
    ok = (flat_masks[:, tap_rows * n_words + piece_word[tap_pieces]] & slot) == slot
    if wide:
        counts = n_pieces_c[recv_conf]
        ok = np.logical_and.reduceat(ok, np.cumsum(counts) - counts, axis=1)
    if policy.tap_policy is TapPolicy.FINAL:
        recv_ok = ok[n_stages]
        taps_of_recv = np.full(n_recv, n_stages, dtype=np.int64)
    else:
        recv_ok = ok.any(axis=0)
        taps_of_recv = ok.argmax(axis=0)
    if pins is not None:
        pin = np.fromiter(
            (p.get(m, -1) for p, ms in zip(pins, recv_lists) for m in ms),
            dtype=np.int64,
            count=n_recv,
        )
        held = (pin >= 0) & ok[np.maximum(pin, 0), np.arange(n_recv)]
        taps_of_recv = np.where(held, pin, taps_of_recv)
    routable = np.logical_and.reduceat(recv_ok, recv_offsets[:-1])

    outcomes: "list[BatchRouteOutcome | None]" = [None] * n_conf
    if not routable.all():
        # First failing receiver per conference, in receiver order (the
        # sequential loop raises at exactly that receiver).
        first_bad = np.minimum.reduceat(
            np.where(recv_ok, n_recv, np.arange(n_recv)), recv_offsets[:-1]
        )
        for c in np.flatnonzero(~routable):
            port = recv_lists[c][int(first_bad[c]) - int(recv_offsets[c])]
            outcomes[c] = BatchRouteOutcome(confs[c], error=_unroutable(port, policy.tap_policy))

    # Backward pass: marked[t, r, c // 64] holds bit c % 64 when some tap
    # of conference c is reachable from (t, r) through surviving points.
    cword_c = np.arange(n_conf, dtype=np.int64) >> 6
    cbit_c = _BIT[np.arange(n_conf) & 63]
    live = recv_ok & routable[recv_conf]
    live_confs = recv_conf[live]
    marked = np.zeros((n_levels, n_rows, n_cwords), dtype=np.uint64)
    np.bitwise_or.at(
        marked,
        (taps_of_recv[live], recv_rows[live], cword_c[live_confs]),
        cbit_c[live_confs],
    )
    for t in range(n_stages, 0, -1):
        prev = _gather_or(marked[t], succ[t - 1], np.empty_like(marked[t]))
        if t - 1 in dead_at:
            prev[dead_at[t - 1][1]] = 0
        if t - 1 in overlay_at:
            ov_confs, ov_rows = overlay_at[t - 1]
            np.bitwise_and.at(prev, (ov_rows, cword_c[ov_confs]), ~cbit_c[ov_confs])
        marked[t - 1] |= prev
    flat_marked = marked.reshape(n_levels, -1)

    # Used region + sequential insertion order.  The sequential algorithm
    # builds each level's dict by iterating the previous level's dict in
    # *its* order and the switch sides in table order; replaying that
    # first-touch order here makes the dicts byte-identical, not merely
    # equal (frozenset iteration of Route.links then matches too).  Each
    # level keeps the first occurrence of every (conference, row)
    # candidate whose conference bit is marked: a marked point is never
    # dead, so a marked successor of a used point always carries signal.
    keep = (flat_marked[0, members * n_cwords + cword_c[conf_of]] & cbit_c[conf_of]) != 0
    confs_t, rows_t = conf_of[keep], members[keep]
    level_confs, level_rows = [confs_t], [rows_t]
    for t in range(1, n_levels):
        cand_rows = np.take(succ[t - 1], rows_t, axis=0).reshape(-1)
        cand_confs = confs_t.repeat(radix)
        keys = cand_confs * n_rows + cand_rows
        perm = keys.argsort(kind="stable")
        ranked = keys[perm]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        firsts = np.sort(perm[first])
        confs_t, rows_t = cand_confs[firsts], cand_rows[firsts]
        used = np.flatnonzero(
            flat_marked[t, rows_t * n_cwords + cword_c[confs_t]] & cbit_c[confs_t]
        )
        confs_t, rows_t = confs_t[used], rows_t[used]
        level_confs.append(confs_t)
        level_rows.append(rows_t)

    # Materialize Route objects (plain-int dicts, matching the sequential
    # path field for field).  Every used point's carried mask is read in
    # one gather (a wide slot's further words in one more gather per
    # word, assembled into Python ints), then the points are grouped by
    # conference (stable, so level and first-touch order survive) and
    # converted with one ``tolist``: per-conference numpy slicing would
    # cost more than the sweeps themselves.
    counts = [len(c) for c in level_confs]
    point_confs = np.concatenate(level_confs)
    point_rows = np.concatenate(level_rows)
    point_levels = np.repeat(np.arange(n_levels, dtype=np.int64), counts)
    point_cells = (point_levels * n_rows + point_rows) * n_words
    flat_all = masks.reshape(-1)
    head = piece_start[point_confs] if wide else point_confs
    point_masks = (flat_all[point_cells + piece_word[head]] & piece_slot[head]) >> piece_lo[head]
    order = np.argsort(point_confs, kind="stable")
    mask_list = point_masks[order].tolist()
    if wide:
        for k in range(1, int(n_pieces_c.max())):
            sel = np.flatnonzero(n_pieces_c[point_confs[order]] > k)
            src = order[sel]
            piece = head[src] + k
            high = flat_all[point_cells[src] + piece_word[piece]] & piece_slot[piece]
            for j, value in zip(sel.tolist(), high.tolist()):
                mask_list[j] |= value << (64 * k)
    points = zip(point_rows[order].tolist(), mask_list)
    sizes_of = np.bincount(
        point_confs * n_levels + point_levels, minlength=n_conf * n_levels
    ).tolist()
    tap_list = taps_of_recv.tolist()
    offset_list = recv_offsets.tolist()
    for c in range(n_conf):
        if outcomes[c] is not None:
            continue  # unroutable: no tap was marked, so it owns no points
        base = c * n_levels
        levels = tuple([dict(islice(points, n)) for n in sizes_of[base : base + n_levels]])
        conf = confs[c]
        taps = dict(zip(recv_lists[c], tap_list[offset_list[c] : offset_list[c + 1]]))
        # Direct field assembly: Route's frozen-dataclass __init__ costs
        # five object.__setattr__ calls per instance, measurable at this
        # volume; the resulting object is indistinguishable.
        route = object.__new__(Route)
        route.__dict__.update(
            conference=conf,
            n_ports=n_rows,
            n_stages=n_stages,
            levels=levels,
            taps=taps,
        )
        outcomes[c] = BatchRouteOutcome(conf, route=route)
    return outcomes  # type: ignore[return-value]


# -- columnar conflict accounting ------------------------------------------


def stage_occupancy(
    routes: Iterable[Route], n_stages: int, n_rows: int
) -> np.ndarray:
    """Stage-major link-load matrix: ``[t, r]`` counts the routes using
    the link entering ``(t, r)``.

    Row 0 (the injection level) is always zero — injections are ports,
    not links — so the matrix aligns index-for-index with point
    coordinates.  Agrees entry-wise with
    :func:`~repro.core.conflict.link_loads` (the property suite checks
    this against random batches).
    """
    loads = np.zeros((n_stages + 1, n_rows), dtype=np.int64)
    for route in routes:
        for t in range(1, len(route.levels)):
            rows = list(route.levels[t])
            if rows:
                loads[t, rows] += 1
    return loads


def occupancy_words(loads: np.ndarray) -> tuple[int, ...]:
    """Per-level occupancy bitsets: bit ``r`` of word ``t`` is set when
    some route uses the link entering ``(t, r)``.

    The words round-trip through :func:`repro.util.bits.unpack_rows`
    losslessly (a hypothesis property), giving a compact stage-major
    fingerprint of which links a batch touches.
    """
    return tuple(pack_rows(np.flatnonzero(level).tolist()) for level in loads)


def analyze_conflicts_columnar(
    routes: Sequence[Route],
    n_stages: "int | None" = None,
    n_rows: "int | None" = None,
) -> ConflictReport:
    """Columnar :func:`~repro.core.conflict.analyze_conflicts`.

    Builds the same :class:`~repro.core.conflict.ConflictReport` —
    field-for-field equal, including the worst-link tie-break
    (lexicographically smallest among max-load links) — from the
    stage-major load matrix instead of a Counter walk.
    """
    routes = list(routes)
    if n_stages is None:
        if not routes:
            raise ValueError("n_stages is required for an empty route collection")
        n_stages = routes[0].n_stages
    for r in routes:
        if r.n_stages != n_stages:
            raise ValueError("routes come from networks with different stage counts")
    if n_rows is None:
        n_rows = max((r.n_ports for r in routes), default=1)
    loads = stage_occupancy(routes, n_stages, n_rows)
    worst_load = int(loads.max()) if routes else 0
    worst: "Point | None" = None
    if worst_load > 0:
        level, row = np.argwhere(loads == worst_load)[0]
        worst = (int(level), int(row))
    profile = tuple(int(v) for v in loads[1:].max(axis=1)) if n_stages else ()
    positive = loads[loads > 0]
    values, counts = np.unique(positive, return_counts=True)
    return ConflictReport(
        n_conferences=len(routes),
        n_stages=n_stages,
        max_multiplicity=worst_load,
        worst_link=worst,
        stage_profile=profile,
        load_histogram=tuple(
            (int(v), int(c)) for v, c in zip(values, counts)
        ),
        total_links_used=int(np.count_nonzero(loads)),
    )
