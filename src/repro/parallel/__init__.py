"""Parallel sharded experiment engine.

Fan Monte Carlo trials out over worker processes with per-trial seed
streams and an ordered deterministic reduction, so results are
byte-identical for any worker count and chunking.  Workers build each
topology once (:func:`shared_network`) and route straight through the
batch kernel.

See DESIGN.md ("Parallel experiment engine") for the determinism
contract and ``tests/parallel/`` for the differential suite enforcing
it.
"""

from repro.parallel.cache import shared_network
from repro.parallel.experiments import (
    random_load_arm,
    randomized_search_parallel,
    search_trials,
    summarize_multiplicities,
)
from repro.parallel.runner import ExperimentRunner, NetworkSpec, run_tasks, run_trials
from repro.parallel.seeds import (
    chunk_slices,
    chunk_tasks,
    seed_fingerprint,
    spawn_seed_sequences,
    trial_seeds,
)

__all__ = [
    "shared_network",
    "random_load_arm",
    "randomized_search_parallel",
    "search_trials",
    "summarize_multiplicities",
    "ExperimentRunner",
    "NetworkSpec",
    "run_tasks",
    "run_trials",
    "chunk_slices",
    "chunk_tasks",
    "seed_fingerprint",
    "spawn_seed_sequences",
    "trial_seeds",
]
