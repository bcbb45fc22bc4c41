"""Deterministic seed streams for sharded Monte Carlo experiments.

The parallel engine's reproducibility contract rests on one rule: the
RNG stream of trial ``i`` is a pure function of ``(root seed, i)`` and
nothing else — not the worker that happens to execute the trial, not the
chunk it was batched into, not how many trials run before it.  NumPy's
:class:`~numpy.random.SeedSequence` gives exactly this: spawning ``n``
children off one root assigns child ``i`` the spawn key ``(i,)``, so the
children are stable under re-chunking and *prefix-stable* under growing
``n`` (trial 3 of a 10-trial run is trial 3 of a 1000-trial run).

Experiments may instead pass an explicit per-trial seed list (the legacy
benchmarks seed trial ``i`` with ``base + i``); the engine treats both
uniformly as "one seed value per trial".
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TypeVar

import numpy as np

__all__ = [
    "spawn_seed_sequences",
    "trial_seeds",
    "chunk_slices",
    "chunk_tasks",
]

T = TypeVar("T")


def spawn_seed_sequences(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` child seed sequences of ``SeedSequence(seed)``.

    Child ``i`` depends only on ``(seed, i)``: two calls with the same
    root agree element-wise on any common prefix, regardless of
    ``count`` (the property the hypothesis suite checks).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return []
    return np.random.SeedSequence(seed).spawn(count)


def trial_seeds(
    count: int,
    seed: "int | None" = None,
    seeds: "Sequence[int | np.random.SeedSequence] | None" = None,
) -> "list[int | np.random.SeedSequence]":
    """Resolve the per-trial seed values for a ``count``-trial run.

    Exactly one of ``seed`` (split via :func:`spawn_seed_sequences`) or
    ``seeds`` (explicit per-trial values, e.g. the legacy ``base + i``
    convention) selects the stream; ``seeds`` must then have length
    ``count``.
    """
    if seeds is not None:
        if seed is not None:
            raise ValueError("pass either seed or seeds, not both")
        seeds = list(seeds)
        if len(seeds) != count:
            raise ValueError(f"need {count} per-trial seeds, got {len(seeds)}")
        return seeds
    return list(spawn_seed_sequences(0 if seed is None else seed, count))


def chunk_slices(count: int, chunk_size: int) -> list[slice]:
    """Contiguous slices covering ``range(count)`` in chunks.

    The deterministic reduction concatenates chunk results in slice
    order, which by construction equals trial order — the chunking is
    therefore invisible in the output.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [slice(lo, min(lo + chunk_size, count)) for lo in range(0, count, chunk_size)]


def chunk_tasks(items: Sequence[T], chunk_size: int) -> list[list[T]]:
    """Split ``items`` into ordered chunks of at most ``chunk_size``."""
    return [list(items[s]) for s in chunk_slices(len(items), chunk_size)]
