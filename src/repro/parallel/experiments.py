"""Parallelized experiment kernels for the Monte Carlo sweeps.

Each public function here is an experiment family from the benchmark
suite re-expressed as sharded trials for
:class:`~repro.parallel.runner.ExperimentRunner`:

* :func:`random_load_arm` — one cell of the F1 random-traffic sweep
  (topology × workload × load), returning exact per-trial records;
* :func:`search_trials` / :func:`randomized_search_parallel` — the
  randomized worst-case search with per-trial seed streams;
* :func:`group_traffic_trial` — the E3 connection-shape comparison;
* :func:`traffic_arm` / :func:`availability_arm` — the F3 blocking and
  E5 availability sweeps, parallelized over their independent arms.

The module-level ``*_trial`` functions are the units workers execute;
they resolve networks through the per-process registry
(:func:`~repro.parallel.cache.shared_network`), so a warm worker never
rebuilds topology tables, and route through the batch kernel.  Every
kernel is a pure function of ``(seed, params)``; the differential suite
checks the serial and parallel engines agree record-for-record.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.core.batch import route_batch
from repro.core.conference import ConferenceSet
from repro.core.conflict import analyze_conflicts
from repro.core.network import ConferenceNetwork
from repro.obs.metrics import DEFAULT_OCCUPANCY_BUCKETS, maybe_registry
from repro.parallel.cache import shared_network
from repro.parallel.runner import ExperimentRunner, NetworkSpec
from repro.sim.scenarios import run_traffic
from repro.workloads.generators import clustered, interleaved, uniform_partition

__all__ = [
    "WORKLOAD_GENERATORS",
    "random_load_trial",
    "random_load_arm",
    "summarize_multiplicities",
    "search_trial",
    "search_trials",
    "reduce_search_records",
    "randomized_search_parallel",
    "group_traffic_trial",
    "traffic_arm",
    "availability_arm",
]

#: Workload name -> generator used by the random-load sweep.  The
#: generators take ``(n_ports, seed=..., **kwargs)``.
WORKLOAD_GENERATORS = {
    "uniform": uniform_partition,
    "clustered": clustered,
    "interleaved": interleaved,
}


def _runner(params: "dict | None" = None, **overrides) -> ExperimentRunner:
    opts = dict(params or {})
    opts.update(overrides)
    warm = ()
    if "topology" in opts and "n_ports" in opts:
        warm = (NetworkSpec(opts["topology"], opts["n_ports"]),)
    return ExperimentRunner(
        workers=opts.get("workers"),
        chunk_size=opts.get("chunk_size"),
        warm=warm,
        metrics=opts.get("metrics"),
    )


def _record_trial(kind: str, multiplicity: int) -> None:
    """Gated kernel telemetry: a no-op unless the chunk runs metered."""
    registry = maybe_registry()
    if registry is None:
        return
    registry.counter("repro_trials_total", "Experiment kernel trials executed").inc(
        kind=kind
    )
    registry.histogram(
        "repro_trial_multiplicity",
        "Peak conflict multiplicity found per kernel trial",
        buckets=DEFAULT_OCCUPANCY_BUCKETS,
    ).observe(multiplicity, kind=kind)


# -- F1: required dilation under random traffic ----------------------------


def random_load_trial(index: int, seed, params: dict) -> dict:
    """Route one random conference set; report its conflict pressure."""
    net = shared_network(params["topology"], params["n_ports"])
    generate = WORKLOAD_GENERATORS[params.get("workload", "uniform")]
    kwargs = dict(params.get("generator_kwargs") or {})
    conferences = generate(params["n_ports"], seed=seed, **kwargs)
    routes = [outcome.unwrap() for outcome in route_batch(net, conferences)]
    report = analyze_conflicts(routes, n_stages=net.n_stages)
    _record_trial("random_load", int(report.max_multiplicity))
    return {
        "trial": index,
        "max_multiplicity": int(report.max_multiplicity),
        "n_conferences": len(conferences),
        "n_links": int(sum(route.n_links for route in routes)),
    }


def summarize_multiplicities(records: Sequence[dict]) -> dict:
    """The F1 summary statistics of an arm's per-trial records."""
    arr = np.asarray([r["max_multiplicity"] for r in records])
    return {
        "mean": float(arr.mean()),
        "p95": float(np.percentile(arr, 95)),
        "max": int(arr.max()),
    }


def random_load_arm(
    topology: str,
    n_ports: int,
    workload: str = "uniform",
    trials: int = 40,
    seed: "int | None" = None,
    seeds: "Sequence[int | np.random.SeedSequence] | None" = None,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    metrics=None,
    **generator_kwargs,
) -> dict:
    """One sweep cell: ``trials`` random sets on one topology/workload.

    Returns ``{"records": [per-trial dicts], "summary": {mean, p95,
    max}}``.  Passing ``seeds=[base + i ...]`` reproduces the legacy
    serial benchmarks byte-for-byte; passing ``seed`` engages the
    spawned seed stream.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) turns on worker-side
    collection; records are identical either way.
    """
    if workload not in WORKLOAD_GENERATORS:
        known = ", ".join(sorted(WORKLOAD_GENERATORS))
        raise KeyError(f"unknown workload {workload!r}; known: {known}")
    params = {
        "topology": topology,
        "n_ports": n_ports,
        "workload": workload,
        "generator_kwargs": generator_kwargs,
    }
    runner = _runner(params, workers=workers, chunk_size=chunk_size, metrics=metrics)
    records = runner.run_trials(random_load_trial, trials, params=params, seed=seed, seeds=seeds)
    return {"records": records, "summary": summarize_multiplicities(records)}


# -- randomized worst-case search ------------------------------------------


@lru_cache(maxsize=64)
def _shared_pair_links(topology: str, n_ports: int, policy) -> dict:
    """The process-wide pair-links dict (sorted members -> links) of one
    registry topology and policy; at most ``N(N-1)/2`` entries."""
    return {}


def search_trial(index: int, seed, params: dict) -> dict:
    """One hill-climbing trial of the randomized worst-case search.

    The same trial :func:`repro.analysis.worstcase.randomized_search`
    loops over, drawn from a per-trial stream.  Pair links are kept in
    the worker's shared dict: pairs recur heavily across trials, so each
    is routed once per worker.
    """
    from repro.analysis.worstcase import _hill_climb

    topology, n, policy = params["topology"], params["n_ports"], params.get("policy")
    found = _hill_climb(
        np.random.default_rng(seed),
        params.get("pool_size", 64),
        shared_network(topology, n),
        policy,
        _shared_pair_links(topology, n, policy),
    )
    if found is None:
        _record_trial("search", 0)
        return {"trial": index, "multiplicity": 0, "link": None, "groups": []}
    target, keep = found
    _record_trial("search", len(keep))
    return {
        "trial": index,
        "multiplicity": len(keep),
        "link": (int(target[0]), int(target[1])),
        "groups": [[a, b] for a, b in keep],
    }


def search_trials(
    topology: str,
    n_ports: int,
    trials: int = 200,
    pool_size: int = 64,
    policy=None,
    seed: "int | None" = 0,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    metrics=None,
) -> list[dict]:
    """Per-trial records of the sharded randomized search, trial order."""
    params = {
        "topology": topology,
        "n_ports": n_ports,
        "pool_size": pool_size,
        "policy": policy,
    }
    runner = _runner(params, workers=workers, chunk_size=chunk_size, metrics=metrics)
    return runner.run_trials(search_trial, trials, params=params, seed=seed)


def reduce_search_records(records: Sequence[dict], n_ports: int):
    """Fold per-trial records into a ``SearchResult`` (first-best wins).

    Scans in trial order and keeps the earliest record that strictly
    improves the multiplicity — the same tie-breaking the serial loop
    applies, so the reduction is chunking-invariant.
    """
    from repro.analysis.worstcase import SearchResult

    best: "dict | None" = None
    for record in records:
        if best is None or record["multiplicity"] > best["multiplicity"]:
            best = record
    if best is None or not best["groups"]:
        return SearchResult(0, None, None, len(records), False)
    witness = ConferenceSet.of(n_ports, best["groups"])
    return SearchResult(
        best["multiplicity"], witness, tuple(best["link"]), len(records), False
    )


def randomized_search_parallel(
    topology: str,
    n_ports: int,
    trials: int = 200,
    pool_size: int = 64,
    policy=None,
    seed: "int | None" = 0,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    metrics=None,
):
    """Sharded randomized worst-case search; see ``randomized_search``."""
    records = search_trials(
        topology,
        n_ports,
        trials=trials,
        pool_size=pool_size,
        policy=policy,
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        metrics=metrics,
    )
    return reduce_search_records(records, n_ports)


# -- E3: group-communication traffic mixes ---------------------------------


def group_traffic_trial(index: int, seed, params: dict) -> dict:
    """Per-shape fabric load of one drawn family of port groups.

    Draws ``n_groups`` disjoint groups of ``group_size`` ports, routes
    them as full conference / panel / multicast (one kernel call per
    shape), and returns the per-shape mean links, mean depth, and
    required dilation.  ``ValueError`` when the groups do not fit.
    """
    from repro.core.groupcast import GroupConnection, _route_groups

    n_ports = params["n_ports"]
    size = params["group_size"]
    if params["n_groups"] * size > n_ports:
        raise ValueError(
            f"{params['n_groups']} groups of {size} ports do not fit in {n_ports} ports"
        )
    net = shared_network(params["topology"], n_ports)
    rng = np.random.default_rng(seed)
    perm = [int(p) for p in rng.permutation(n_ports)]
    groups = [perm[i : i + size] for i in range(0, n_ports - size + 1, size)]
    groups = groups[: params["n_groups"]]
    shapes = {
        "conference": [GroupConnection.conference(g, connection_id=c) for c, g in enumerate(groups)],
        "multicast": [
            GroupConnection.multicast(g[0], g[1:], connection_id=c) for c, g in enumerate(groups)
        ],
        "panel": [
            GroupConnection(senders=tuple(g[:2]), receivers=tuple(g), connection_id=c)
            for c, g in enumerate(groups)
        ],
    }
    record: dict = {"trial": index}
    for shape, connections in shapes.items():
        routes = _route_groups(net, connections, earliest_taps=True)
        record[shape] = {
            "mean_links": float(np.mean([r.n_links for r in routes])),
            "mean_depth": float(np.mean([r.depth for r in routes])),
            "dilation": int(
                analyze_conflicts(routes, n_stages=net.n_stages).max_multiplicity
            ),
        }
    return record


# -- F3 / E5: arm-level parallelism ----------------------------------------


def traffic_arm(item: dict, params: "dict | None" = None) -> dict:
    """One stochastic-traffic run (an F3 sweep cell).

    ``item`` overrides ``params``; the merged dict needs ``topology``,
    ``n_ports``, ``dilation``, ``config``, ``duration`` and ``seed``.
    Returns the cell coordinates plus the run's summary statistics.
    """
    opts = {**(params or {}), **item}
    network = ConferenceNetwork.build(
        opts["topology"], opts["n_ports"], dilation=opts["dilation"]
    )
    stats = run_traffic(
        network, opts["config"], duration=opts["duration"], seed=opts["seed"]
    )
    return {
        "topology": opts["topology"],
        "dilation": opts["dilation"],
        "offered": stats.offered,
        "capacity_blocking": stats.capacity_blocking_probability,
        "port_blocking": stats.blocked["ports"] / stats.offered,
        "mean_occupancy": stats.mean_occupancy,
        "summary": stats.summary(),
    }


def availability_arm(item: dict, params: "dict | None" = None) -> list[dict]:
    """One topology's relay-on/relay-off availability comparison (E5)."""
    from repro.analysis.resilience import availability_over_time

    opts = {**(params or {}), **item}
    kwargs = {
        key: opts[key]
        for key in ("process", "duration", "retry", "seed", "load", "dilation")
        if key in opts
    }
    return availability_over_time(opts["topology"], opts["n_ports"], **kwargs)
