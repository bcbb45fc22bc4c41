"""Random conference-set generators.

The statistical experiments (F1, F3) and the randomized worst-case
search need families of disjoint conferences drawn from controllable
distributions.  Each generator takes a seed (or Generator) and network
size and yields validated :class:`ConferenceSet` values.

Distributions:

* ``uniform_partition`` — occupy a target fraction of ports, split into
  conferences of i.i.d. sizes; membership uniformly random.  The
  arbitrary-placement model of this paper.
* ``clustered`` — members of each conference drawn near a random centre,
  modelling geographically-correlated attendees (locality *reduces*
  cube-network conflicts, which experiment F1 quantifies).
* ``interleaved`` — the adversarial flavour: conferences deliberately
  straddle large aligned blocks, stressing the low stages.
* ``aligned_sets`` — the Yang-2001 discipline via the buddy allocator.
"""

from __future__ import annotations

import numpy as np

from repro.core.admission import place_aligned
from repro.core.conference import ConferenceSet
from repro.util.rng import ensure_rng
from repro.util.validation import check_network_size, check_probability

__all__ = [
    "draw_sizes",
    "uniform_partition",
    "clustered",
    "interleaved",
    "aligned_sets",
]


def draw_sizes(
    rng: np.random.Generator,
    n_available: int,
    mean_size: float,
    min_size: int = 2,
    max_size: "int | None" = None,
) -> list[int]:
    """Draw conference sizes until the available ports are (nearly) used.

    Sizes are ``min_size + Poisson(mean_size - min_size)``, truncated to
    ``max_size`` and to the ports remaining; generation stops when fewer
    than ``min_size`` ports remain.
    """
    if mean_size < min_size:
        raise ValueError(f"mean size {mean_size} below minimum size {min_size}")
    sizes: list[int] = []
    remaining = n_available
    while remaining >= min_size:
        s = min_size + int(rng.poisson(mean_size - min_size))
        if max_size is not None:
            s = min(s, max_size)
        s = min(s, remaining)
        if s < min_size:
            break
        sizes.append(s)
        remaining -= s
    return sizes


def uniform_partition(
    n_ports: int,
    load: float = 0.75,
    mean_size: float = 4.0,
    min_size: int = 2,
    max_size: "int | None" = None,
    seed: "int | np.random.Generator | None" = None,
) -> ConferenceSet:
    """Disjoint conferences over uniformly-random member ports.

    ``load`` is the target fraction of occupied ports.  This is the
    paper's arbitrary-placement regime: member addresses carry no
    structure at all.
    """
    check_network_size(n_ports)
    check_probability(load, "load")
    rng = ensure_rng(seed)
    budget = int(round(load * n_ports))
    sizes = draw_sizes(rng, budget, mean_size, min_size=min_size, max_size=max_size)
    perm = rng.permutation(n_ports)
    groups, cursor = [], 0
    for s in sizes:
        groups.append([int(p) for p in perm[cursor : cursor + s]])
        cursor += s
    return ConferenceSet.of(n_ports, groups)


def clustered(
    n_ports: int,
    load: float = 0.75,
    mean_size: float = 4.0,
    spread: int = 8,
    seed: "int | np.random.Generator | None" = None,
) -> ConferenceSet:
    """Conferences whose members cluster around random centres.

    Each conference picks a centre port and draws members from the
    ``spread`` free ports nearest to it (by address distance), modelling
    locality of attachment.  Falls back to global draws when a
    neighbourhood is exhausted.
    """
    check_network_size(n_ports)
    check_probability(load, "load")
    if spread < 1:
        raise ValueError(f"spread must be >= 1, got {spread}")
    rng = ensure_rng(seed)
    budget = int(round(load * n_ports))
    sizes = draw_sizes(rng, budget, mean_size)
    free = set(range(n_ports))
    groups = []
    for s in sizes:
        if len(free) < s:
            break
        centre = int(rng.choice(sorted(free)))
        near = sorted(free, key=lambda p: (abs(p - centre), p))
        pool = near[: max(s, spread)]
        chosen = [int(p) for p in rng.choice(pool, size=s, replace=False)]
        free.difference_update(chosen)
        groups.append(chosen)
    return ConferenceSet.of(n_ports, groups)


def interleaved(
    n_ports: int,
    n_conferences: "int | None" = None,
    seed: "int | np.random.Generator | None" = None,
) -> ConferenceSet:
    """Adversarially interleaved 2-member conferences.

    Pairs each low-address port ``i`` with a partner in the opposite
    half whose low bits are zeroed — the pattern the cube worst case is
    made of — then shuffles residual choices randomly.  Useful as a
    stress workload that random sampling essentially never finds.
    """
    n = check_network_size(n_ports)
    rng = ensure_rng(seed)
    t = n // 2
    limit = (1 << min(t, n - t)) - 1
    if n_conferences is None:
        n_conferences = limit
    if not 1 <= n_conferences <= limit:
        raise ValueError(f"n_conferences must be in [1, {limit}]")
    ids = rng.permutation(np.arange(1, limit + 1))[:n_conferences]
    groups = [[int(i), int(i) << t] for i in ids]
    return ConferenceSet.of(n_ports, groups)


def aligned_sets(
    n_ports: int,
    load: float = 0.75,
    mean_size: float = 4.0,
    seed: "int | np.random.Generator | None" = None,
) -> ConferenceSet:
    """Random sizes placed by the Yang-2001 aligned-block discipline.

    Size distribution matches :func:`uniform_partition` so the two
    placement policies are directly comparable; placement goes through
    the buddy allocator.  Sizes that no longer fit are dropped (the
    static analogue of call blocking).
    """
    check_network_size(n_ports)
    check_probability(load, "load")
    rng = ensure_rng(seed)
    budget = int(round(load * n_ports))
    sizes = draw_sizes(rng, budget, mean_size)
    while sizes:
        try:
            return place_aligned(n_ports, sizes)
        except MemoryError:
            sizes.pop()  # shed the last conference and retry
    return ConferenceSet.of(n_ports, [])

