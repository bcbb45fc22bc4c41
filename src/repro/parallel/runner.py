"""The work-sharded experiment runner.

:class:`ExperimentRunner` fans independent units of work out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reduces the results
deterministically:

* **Sharding** — trials are chunked into contiguous batches (amortizing
  pickling and scheduling overhead) and submitted in order; results are
  reassembled by chunk index, so the output list is always in trial
  order no matter which worker finished first.
* **Seed discipline** — Monte Carlo trials get their RNG stream from
  :mod:`repro.parallel.seeds`: trial ``i``'s stream depends only on the
  root seed and ``i``.  Together with ordered reduction this makes the
  engine's output **byte-identical for any worker count and any chunk
  size**, including the inline serial path (``workers=None``) — the
  differential test suite enforces exactly this equality.
* **Warm workers** — each worker process prebuilds the experiment's
  networks once from the pool initializer, so trials only pay for their
  own work.

Trial functions must be module-level (they are pickled by reference)
with the signature ``fn(index, seed, params)``; task functions for
:meth:`ExperimentRunner.map` take ``fn(item, params)``.  Both must be
pure up to their arguments for the determinism contract to hold.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs.metrics import MetricsRegistry, collecting
from repro.parallel.cache import shared_network
from repro.parallel.seeds import chunk_tasks, trial_seeds
from repro.topology.builders import TOPOLOGY_BUILDERS
from repro.topology.network import MultistageNetwork

__all__ = ["NetworkSpec", "ExperimentRunner", "run_trials", "run_tasks"]


@dataclass(frozen=True)
class NetworkSpec:
    """A picklable recipe for a registry topology.

    Workers receive specs, not built networks: a spec is a few bytes on
    the wire and resolves against the per-process registry, so each
    worker builds the network exactly once.
    """

    topology: str
    n_ports: int

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_BUILDERS:
            known = ", ".join(sorted(TOPOLOGY_BUILDERS))
            raise KeyError(f"unknown topology {self.topology!r}; known: {known}")

    @staticmethod
    def of(net: "MultistageNetwork | NetworkSpec") -> "NetworkSpec":
        """Spec for a built network (its name must be a registry name)."""
        if isinstance(net, NetworkSpec):
            return net
        return NetworkSpec(net.name, net.n_ports)

    def build(self) -> MultistageNetwork:
        """The per-process shared instance."""
        return shared_network(self.topology, self.n_ports)


def _warm_worker(specs: tuple[NetworkSpec, ...]) -> None:
    """Pool initializer: prebuild networks once."""
    for spec in specs:
        spec.build()


def _run_trial_chunk(
    fn: Callable, chunk: "list[tuple[int, Any]]", params: "dict | None"
) -> list:
    """Execute one batch of ``(index, seed)`` tasks in index order."""
    return [fn(index, seed, params) for index, seed in chunk]


def _run_task_chunk(fn: Callable, chunk: list, params: "dict | None") -> list:
    """Execute one batch of opaque work items in order."""
    return [fn(item, params) for item in chunk]


def _run_metered_chunk(
    chunk_fn: Callable, fn: Callable, chunk: list, params: "dict | None"
) -> tuple:
    """Run one chunk with metrics collection on; ship back the delta.

    Executes in the worker process (or inline): :func:`collecting`
    swaps in a fresh per-process default registry for the duration of
    the chunk, so the returned snapshot is exactly this chunk's
    recordings — the reducer merges the snapshots in chunk-submission
    order, which keeps the combined registry identical for every worker
    count and chunk size.
    """
    with collecting() as registry:
        batch = chunk_fn(fn, chunk, params)
    return batch, registry.snapshot()


class ExperimentRunner:
    """Deterministic sharded execution of experiment workloads.

    Parameters
    ----------
    workers:
        ``None`` runs inline in this process (the serial engine); any
        integer ``>= 1`` runs a process pool of that width.  Results are
        identical either way.
    chunk_size:
        Trials per submitted batch; default splits the workload into
        roughly four chunks per worker.  Also result-invariant.
    warm:
        Network specs every worker prebuilds from its initializer.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        every chunk runs with process-wide collection enabled (so
        ``timed()`` hooks and kernel instrumentation record) and its
        delta snapshot is merged back here in chunk-submission order —
        the merged registry is identical for any worker count.  Trial
        *results* are unaffected either way.
    """

    def __init__(
        self,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        warm: "Sequence[NetworkSpec] | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 (or None for inline), got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.warm = tuple(warm or ())
        self.metrics = metrics

    def _resolve_chunk_size(self, n_tasks: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        shards = 4 * (self.workers or 1)
        return max(1, -(-n_tasks // shards))

    def _execute(self, chunk_fn: Callable, fn: Callable, tasks: list, params: "dict | None") -> list:
        if not tasks:
            return []
        chunks = chunk_tasks(tasks, self._resolve_chunk_size(len(tasks)))
        metered = self.metrics is not None
        if self.workers is None:
            if metered:
                outputs = [_run_metered_chunk(chunk_fn, fn, chunk, params) for chunk in chunks]
            else:
                batches = [chunk_fn(fn, chunk, params) for chunk in chunks]
        else:
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_warm_worker if self.warm else None,
                initargs=(self.warm,) if self.warm else (),
            ) as pool:
                if metered:
                    futures = [
                        pool.submit(_run_metered_chunk, chunk_fn, fn, chunk, params)
                        for chunk in chunks
                    ]
                else:
                    futures = [pool.submit(chunk_fn, fn, chunk, params) for chunk in chunks]
                # Collect in submission order — the deterministic
                # reduction that makes worker scheduling invisible.
                outputs_or_batches = [f.result() for f in futures]
                if metered:
                    outputs = outputs_or_batches
                else:
                    batches = outputs_or_batches
        if metered:
            batches = []
            for batch, snapshot in outputs:
                batches.append(batch)
                self.metrics.merge(snapshot)
        return [result for batch in batches for result in batch]

    def run_trials(
        self,
        fn: Callable,
        n_trials: int,
        params: "dict | None" = None,
        seed: "int | None" = None,
        seeds: "Sequence[int | np.random.SeedSequence] | None" = None,
    ) -> list:
        """Run ``fn(i, seed_i, params)`` for ``i in range(n_trials)``.

        Per-trial seeds come from ``seeds`` verbatim or by splitting
        ``seed`` (see :func:`repro.parallel.seeds.trial_seeds`).
        Returns per-trial results in trial order.
        """
        values = trial_seeds(n_trials, seed=seed, seeds=seeds)
        return self._execute(_run_trial_chunk, fn, list(enumerate(values)), params)

    def map(self, fn: Callable, items: Sequence, params: "dict | None" = None) -> list:
        """Run ``fn(item, params)`` over ``items``, preserving order.

        For experiments whose natural unit is an *arm* (one topology ×
        dilation cell of a sweep) rather than a seeded trial; any
        randomness must already be encoded in the items.
        """
        return self._execute(_run_task_chunk, fn, list(items), params)


def run_trials(
    fn: Callable,
    n_trials: int,
    params: "dict | None" = None,
    seed: "int | None" = None,
    seeds: "Sequence[int | np.random.SeedSequence] | None" = None,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    warm: "Sequence[NetworkSpec] | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> list:
    """One-shot form of :meth:`ExperimentRunner.run_trials`."""
    runner = ExperimentRunner(
        workers=workers, chunk_size=chunk_size, warm=warm, metrics=metrics
    )
    return runner.run_trials(fn, n_trials, params=params, seed=seed, seeds=seeds)


def run_tasks(
    fn: Callable,
    items: Sequence,
    params: "dict | None" = None,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    warm: "Sequence[NetworkSpec] | None" = None,
    metrics: "MetricsRegistry | None" = None,
) -> list:
    """One-shot form of :meth:`ExperimentRunner.map`."""
    runner = ExperimentRunner(
        workers=workers, chunk_size=chunk_size, warm=warm, metrics=metrics
    )
    return runner.map(fn, items, params=params)
