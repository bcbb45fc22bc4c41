"""Analytic blocking approximation (reduced-load / Erlang fixed point).

The simulator (experiment F3) measures capacity blocking; this module
*predicts* it with the classical teletraffic machinery, adapted to
conference trees:

1. **Usage probabilities.**  Monte-Carlo estimate, per inter-stage
   link, of the probability ``q_l`` that a random conference's route
   uses link ``l``, and the mean number of links per route.
2. **Per-link offered load.**  With conferences offered at ``a``
   erlangs total, link ``l`` sees ``a * q_l`` erlangs.
3. **Erlang-B per link.**  A link dilated to ``c`` channels blocks with
   ``B(a*q_l, c)``; one reduced-load iteration thins the offered load
   by the acceptance probability to account for calls blocked
   elsewhere.
4. **Call blocking.**  A call needs every link of its route, so the
   independence approximation gives
   ``P_block ≈ 1 - E[ prod_{l in route} (1 - B_l) ]``, estimated over
   sampled routes.

The link-independence assumption is crude for tree-shaped routes (links
of one route share fate), so the prediction is an over-estimate at low
dilation; the F4 bench quantifies the gap against simulation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.routing import route_conference
from repro.topology.network import MultistageNetwork
from repro.util.rng import ensure_rng
from repro.workloads.generators import uniform_partition

__all__ = ["erlang_b", "LinkLoadModel", "estimate_link_model", "predicted_blocking"]


def erlang_b(offered_erlangs: float, channels: int) -> float:
    """The Erlang-B loss formula, computed by the stable recurrence."""
    if channels < 0:
        raise ValueError(f"channel count must be >= 0, got {channels}")
    if offered_erlangs < 0:
        raise ValueError(f"offered load must be >= 0, got {offered_erlangs}")
    if offered_erlangs == 0:
        return 0.0
    inv_b = 1.0
    for c in range(1, channels + 1):
        inv_b = 1.0 + inv_b * c / offered_erlangs
    return 1.0 / inv_b


@dataclass(frozen=True)
class LinkLoadModel:
    """Monte-Carlo link-usage statistics for a topology + workload.

    ``usage[link]`` is the probability a random conference uses the
    link; ``mean_route_links`` the mean route size; ``samples`` the
    number of conferences the estimate is built from.
    """

    usage: dict[tuple[int, int], float]
    mean_route_links: float
    samples: int


def estimate_link_model(
    net: MultistageNetwork,
    mean_size: float = 4.0,
    samples: int = 400,
    seed: "int | np.random.Generator | None" = 0,
) -> LinkLoadModel:
    """Sample random conferences and tabulate per-link usage frequency."""
    rng = ensure_rng(seed)
    counts: Counter = Counter()
    total_links = 0
    n_sampled = 0
    while n_sampled < samples:
        cs = uniform_partition(net.n_ports, load=0.75, mean_size=mean_size, seed=rng)
        for conf in cs:
            if n_sampled >= samples:
                break
            links = route_conference(net, conf).links
            counts.update(links)
            total_links += len(links)
            n_sampled += 1
    usage = {link: c / n_sampled for link, c in counts.items()}
    return LinkLoadModel(
        usage=usage,
        mean_route_links=total_links / n_sampled,
        samples=n_sampled,
    )


def predicted_blocking(
    net: MultistageNetwork,
    offered_erlangs: float,
    dilation: int,
    model: "LinkLoadModel | None" = None,
    reduced_load_iterations: int = 2,
    route_samples: int = 200,
    seed: int = 1,
) -> float:
    """Analytic capacity-blocking probability for conference calls.

    ``offered_erlangs`` is the total conference-call load (arrival rate
    × holding time).  Returns the independence-approximation call
    blocking under ``dilation`` channels per link.
    """
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    model = model or estimate_link_model(net)

    # Reduced-load fixed point on per-link blocking.
    blocking = {link: 0.0 for link in model.usage}
    for _ in range(max(1, reduced_load_iterations)):
        new = {}
        for link, q in model.usage.items():
            thinned = offered_erlangs * q * (1.0 - blocking[link])
            new[link] = erlang_b(thinned, dilation)
        blocking = new

    # Call blocking over sampled routes under link independence.
    rng = ensure_rng(seed)
    acc = []
    sampled = 0
    while sampled < route_samples:
        cs = uniform_partition(net.n_ports, load=0.75, seed=rng)
        for conf in cs:
            if sampled >= route_samples:
                break
            links = route_conference(net, conf).links
            p_accept = math.prod(1.0 - blocking.get(link, 0.0) for link in links)
            acc.append(1.0 - p_accept)
            sampled += 1
    return float(np.mean(acc)) if acc else 0.0
