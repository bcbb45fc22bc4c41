"""Worst-case conflict search: constructions, exhaustive and randomized.

Three complementary ways to find the conflict multiplicity of a
topology, strongest-evidence first:

* :func:`cube_adversarial_set` — an explicit family of disjoint
  2-member conferences that meets the theoretical bound on the indirect
  binary cube, making the ``Θ(sqrt(N))`` law constructive.
* :func:`exhaustive_max_multiplicity` — enumerate *every* disjoint
  conference family (small ``N``); ground truth for all topologies.
* :func:`matching_lower_bound` — exact optimum restricted to 2-member
  conferences at any ``N``: for each link, build the graph of port pairs
  whose route uses it and take a maximum matching (disjointness is
  exactly a matching constraint).
* :func:`randomized_search` — seeded stochastic hill climbing for large
  ``N``; a lower-bound generator used to sanity-check the other two.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.batch import route_batch
from repro.core.conference import Conference, ConferenceSet
from repro.core.routing import RoutingPolicy
from repro.obs.metrics import timed
from repro.topology.network import MultistageNetwork, Point
from repro.util.bits import ilog2
from repro.util.rng import ensure_rng
from repro.util.validation import check_network_size
from repro.workloads.partitions import conference_sets

__all__ = [
    "SearchResult",
    "cube_adversarial_set",
    "radix_cube_adversarial_set",
    "exhaustive_max_multiplicity",
    "matching_lower_bound",
    "matching_stage_profile",
    "randomized_search",
]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a worst-case search.

    ``multiplicity`` is the best (largest) link contention found;
    ``witness`` is a conference set achieving it and ``link`` the
    contested link.  ``exact`` records whether the search was exhaustive
    over its declared space.
    """

    multiplicity: int
    witness: "ConferenceSet | None"
    link: "Point | None"
    explored: int
    exact: bool


def cube_adversarial_set(n_ports: int, level: "int | None" = None) -> ConferenceSet:
    """Disjoint conferences meeting the bound on the cube at ``level``.

    For a link entering level ``t`` (default the worst level,
    ``max(1, floor(n/2))``), builds ``2**min(t, n-t)`` two-member conferences all
    of whose routes traverse link ``(t, 0)``:

    * ``{i, i << t}`` for ``i = 1 .. 2**min(t, n-t) - 1``: member ``i``
      has zero high bits (it can sit on row 0 at level ``t``) and member
      ``i << t`` has zero low bits (row 0 still leads to its tap);
    * ``{0, N-1}``: port 0 satisfies both conditions itself.

    The returned set achieves ``cube_link_multiplicity(t, n)`` exactly,
    which the tests verify for every ``t`` and a sweep of ``N``.
    """
    n = check_network_size(n_ports)
    if level is None:
        level = max(1, n // 2)
    if not 1 <= level <= n:
        raise ValueError(f"level must be in [1, {n}], got {level}")
    m = min(level, n - level)
    groups: list[list[int]] = [[i, i << level] for i in range(1, 1 << m)]
    anchor_partner = n_ports - 1
    if anchor_partner == 0:  # N == 1 cannot happen (validated), guard anyway
        raise AssertionError("unreachable: network size >= 2")
    if m == n - m and anchor_partner in {g[1] for g in groups}:
        # N-1 is of the form i << level only when level == 0; impossible here.
        raise AssertionError("unreachable: N-1 has non-zero low bits for level >= 1")
    groups.append([0, anchor_partner])
    return ConferenceSet.of(n_ports, groups)


def radix_cube_adversarial_set(n_ports: int, radix: int, level: int) -> ConferenceSet:
    """The adversarial construction generalized to the radix-``r`` cube.

    ``min(r**level, r**(n-level))`` disjoint 2-member conferences all
    traversing link ``(level, 0)``: pairs ``{i, i * r**level}`` plus the
    anchor ``{0, N-1}`` (port 0 satisfies both link conditions itself).
    """
    from repro.topology.permutations import digit_count

    n = digit_count(n_ports, radix)
    if not 1 <= level <= n:
        raise ValueError(f"level must be in [1, {n}], got {level}")
    m = min(radix ** level, radix ** (n - level))
    groups: list[list[int]] = [[i, i * radix**level] for i in range(1, m)]
    groups.append([0, n_ports - 1])
    return ConferenceSet.of(n_ports, groups)


@timed("repro_exhaustive_search")
def exhaustive_max_multiplicity(
    net: MultistageNetwork,
    policy: "RoutingPolicy | None" = None,
    max_conferences: "int | None" = None,
) -> SearchResult:
    """Ground-truth worst case by full enumeration (use only for N <= 8).

    Routes every family of disjoint conferences (all sizes >= 2) and
    returns the maximum link multiplicity with a witness.  Each family's
    not-yet-seen conferences are routed in one kernel call.
    """
    policy = policy or RoutingPolicy()
    best = SearchResult(0, None, None, 0, True)
    explored = 0
    known: dict[tuple[int, ...], frozenset[Point]] = {}
    for cs in conference_sets(net.n_ports, max_conferences=max_conferences):
        explored += 1
        if len(cs) < 2:
            continue
        _route_missing(net, policy, known, (conf.members for conf in cs))
        loads: Counter = Counter()
        for conf in cs:
            loads.update(known[conf.members])
        if loads:
            link, mult = max(loads.items(), key=lambda kv: kv[1])
            if mult > best.multiplicity:
                best = SearchResult(mult, cs, link, explored, True)
    return SearchResult(best.multiplicity, best.witness, best.link, explored, True)


def _route_missing(
    net: MultistageNetwork,
    policy: "RoutingPolicy | None",
    known: "dict[tuple[int, ...], frozenset[Point]]",
    groups: "Iterable[Iterable[int]]",
) -> None:
    """Store the links of every member group ``known`` lacks, keyed by
    its sorted members, routing them all in one :func:`route_batch`
    call (a routing error raises)."""
    keys = (tuple(sorted(group)) for group in groups)
    missing = list(dict.fromkeys(key for key in keys if key not in known))
    if missing:
        outcomes = route_batch(net, [Conference.of(m) for m in missing], policy)
        for members, outcome in zip(missing, outcomes):
            known[members] = outcome.unwrap().links


def _pair_link_graph(
    net: MultistageNetwork, policy: RoutingPolicy
) -> dict[Point, list[tuple[int, int]]]:
    """For every link, the list of port pairs whose route uses it.

    All ``N(N-1)/2`` pair routes go through the columnar kernel in
    bounded chunks; the per-link pair lists (and the dict's insertion
    order) are identical to the sequential walk.
    """
    by_link: dict[Point, list[tuple[int, int]]] = {}
    pairs = [(a, b) for a in range(net.n_ports) for b in range(a + 1, net.n_ports)]
    chunk = 4096  # bounds resident Route objects, not correctness
    for lo in range(0, len(pairs), chunk):
        part = pairs[lo : lo + chunk]
        outcomes = route_batch(net, [Conference.of(p) for p in part], policy)
        for pair, outcome in zip(part, outcomes):
            for link in outcome.unwrap().links:
                by_link.setdefault(link, []).append(pair)
    return by_link


@timed("repro_matching_bound")
def matching_lower_bound(
    net: MultistageNetwork,
    policy: "RoutingPolicy | None" = None,
) -> SearchResult:
    """Exact worst case over 2-member conferences, any ``N``.

    Disjointness of 2-member conferences through a fixed link is a
    matching constraint on the "uses this link" pair graph, so a maximum
    matching per link gives the exact optimum of the restricted space —
    a lower bound for the unrestricted problem that the universal upper
    bound (and exhaustive search at small N) shows to be tight.
    """
    policy = policy or RoutingPolicy()
    by_link = _pair_link_graph(net, policy)
    best_mult, best_link, best_pairs = 0, None, []
    for link, pairs in by_link.items():
        if len(pairs) <= best_mult:
            continue  # even all-disjoint pairs could not beat the best
        g = nx.Graph(pairs)
        matching = nx.max_weight_matching(g, maxcardinality=True)
        # Keep only matched edges that are themselves qualifying pairs.
        chosen = [tuple(sorted(e)) for e in matching if tuple(sorted(e)) in set(pairs)]
        if len(chosen) > best_mult:
            best_mult, best_link, best_pairs = len(chosen), link, chosen
    witness = ConferenceSet.of(net.n_ports, best_pairs) if best_pairs else None
    explored = sum(len(p) for p in by_link.values())
    return SearchResult(best_mult, witness, best_link, explored, True)


@timed("repro_matching_stage_profile")
def matching_stage_profile(
    net: MultistageNetwork,
    policy: "RoutingPolicy | None" = None,
) -> tuple[int, ...]:
    """Exact per-level worst case over 2-member conferences.

    Entry ``t - 1`` is the maximum multiplicity achievable on any link
    entering level ``t`` — the measured counterpart of
    ``repro.analysis.theory.stage_profile_law``.
    """
    policy = policy or RoutingPolicy()
    by_link = _pair_link_graph(net, policy)
    profile = [0] * net.n_stages
    for link, pairs in by_link.items():
        level = link[0]
        if len(pairs) <= profile[level - 1]:
            continue
        g = nx.Graph(pairs)
        matching = nx.max_weight_matching(g, maxcardinality=True)
        chosen = [tuple(sorted(e)) for e in matching if tuple(sorted(e)) in set(pairs)]
        profile[level - 1] = max(profile[level - 1], len(chosen))
    return tuple(profile)


@timed("repro_randomized_search")
def randomized_search(
    net: MultistageNetwork,
    trials: int = 200,
    pool_size: int = 64,
    policy: "RoutingPolicy | None" = None,
    seed: "int | np.random.Generator | None" = None,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
) -> SearchResult:
    """Stochastic hill climbing for a high-multiplicity conference set.

    Each trial seeds a random partial matching of the ports, finds the
    most contested link, then greedily re-pairs free ports to add
    conferences crossing that link.  Returns the best witness found;
    this is a *lower* bound and is compared against the exact matching
    bound in the experiments.

    ``workers`` switches to the sharded engine
    (:func:`repro.parallel.experiments.randomized_search_parallel`):
    trials draw from per-trial seed streams, so the result is identical
    for every worker count and chunking — but it is a *different*
    (equally valid) sample than the original single-stream walk, which
    stays the default for backward reproducibility.  The sharded path
    requires ``seed`` to be an integer (or ``None``) and ``net`` to be
    a registry topology.
    """
    policy = policy or RoutingPolicy()
    if workers is not None:
        from repro.parallel.experiments import randomized_search_parallel

        if isinstance(seed, np.random.Generator):
            raise TypeError("the sharded search needs an integer seed, not a Generator")
        return randomized_search_parallel(
            net.name,
            net.n_ports,
            trials=trials,
            pool_size=pool_size,
            policy=policy,
            seed=seed,
            workers=workers,
            chunk_size=chunk_size,
        )
    rng = ensure_rng(seed)
    n = net.n_ports
    ilog2(n)
    known: dict[tuple[int, ...], frozenset[Point]] = {}
    best = SearchResult(0, None, None, trials, False)
    for _ in range(trials):
        found = _hill_climb(rng, pool_size, net, policy, known)
        if found is not None and len(found[1]) > best.multiplicity:
            target, keep = found
            best = SearchResult(len(keep), ConferenceSet.of(n, keep), target, trials, False)
    return best


def _hill_climb(
    rng: np.random.Generator,
    pool_size: int,
    net: MultistageNetwork,
    policy: "RoutingPolicy | None",
    known: "dict[tuple[int, ...], frozenset[Point]]",
) -> "tuple | None":
    """One search trial, shared by the serial loop and the sharded trials:
    ``(target link, kept pairs)``, or ``None`` when the seed matching
    uses no link.  Pair links are read from ``known`` (sorted members ->
    links), which the trial fills as it goes and callers keep across
    trials, so each distinct pair is routed at most once."""
    n = net.n_ports
    ports = rng.permutation(n)
    pairs = [(int(ports[2 * i]), int(ports[2 * i + 1])) for i in range(min(pool_size, n // 2))]
    # One kernel call resolves the seed matching.
    _route_missing(net, policy, known, pairs)
    loads: Counter = Counter()
    links_of: dict[tuple[int, int], frozenset[Point]] = {}
    for a, b in pairs:
        links = known[(min(a, b), max(a, b))]
        links_of[(a, b)] = links
        loads.update(links)
    if not loads:
        return None
    target, _ = max(loads.items(), key=lambda kv: kv[1])
    # Keep only pairs crossing the target link, then top up greedily.
    keep = [p for p in pairs if target in links_of[p]]
    used = {x for p in keep for x in p}
    free = [p for p in range(n) if p not in used]
    rng.shuffle(free)
    for i in range(len(free)):
        if free[i] in used:
            continue  # every inner pair would be skipped anyway
        routed_until = i + 1  # greedy-scan candidates routed so far
        for j in range(i + 1, len(free)):
            a, b = free[i], free[j]
            if a in used or b in used:
                continue
            if j >= routed_until:
                # Route the next block lazily: a hit poisons the rest of
                # this scan, so batching far ahead routes unasked pairs.
                block, k = [], j
                while k < len(free) and len(block) < 64:
                    if free[k] not in used:
                        block.append((a, free[k]))
                    k += 1
                routed_until = k
                _route_missing(net, policy, known, block)
            pair = (min(a, b), max(a, b))
            if target in known[pair]:
                keep.append(pair)
                used.update(pair)
    return target, keep
