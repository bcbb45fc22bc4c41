"""Property tests for the deterministic seed-stream splitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.seeds import (
    chunk_slices,
    chunk_tasks,
    spawn_seed_sequences,
    trial_seeds,
)

pytestmark = pytest.mark.tier1

seeds = st.integers(min_value=0, max_value=2**63 - 1)


def seed_fingerprint(seed):
    """A 128-bit digest of the stream a seed value denotes: equal
    fingerprints mean byte-identical PCG64 generators."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return tuple(int(w) for w in seed.generate_state(4, np.uint64))


@given(seed=seeds, count=st.integers(min_value=1, max_value=128))
@settings(max_examples=60, deadline=None)
def test_no_collisions_across_shards(seed, count):
    """Distinct trials never share a stream, whatever the root seed."""
    fingerprints = [seed_fingerprint(s) for s in spawn_seed_sequences(seed, count)]
    assert len(set(fingerprints)) == count
    # ...and no child collides with the root stream itself.
    assert seed_fingerprint(seed) not in fingerprints


@given(seed=seeds, count=st.integers(min_value=0, max_value=64), extra=st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_prefix_stability(seed, count, extra):
    """Trial ``i``'s stream does not depend on the total trial count."""
    short = [seed_fingerprint(s) for s in spawn_seed_sequences(seed, count)]
    long = [seed_fingerprint(s) for s in spawn_seed_sequences(seed, count + extra)]
    assert long[:count] == short


@given(
    seed=seeds,
    count=st.integers(min_value=1, max_value=96),
    chunk_a=st.integers(min_value=1, max_value=96),
    chunk_b=st.integers(min_value=1, max_value=96),
)
@settings(max_examples=60, deadline=None)
def test_stability_under_rechunking(seed, count, chunk_a, chunk_b):
    """Chunking assigns work but never changes which seed a trial gets."""
    tasks = list(enumerate(trial_seeds(count, seed=seed)))

    def flatten(chunk_size):
        return [
            (index, seed_fingerprint(value))
            for chunk in chunk_tasks(tasks, chunk_size)
            for index, value in chunk
        ]

    assert flatten(chunk_a) == flatten(chunk_b)


@given(count=st.integers(min_value=0, max_value=200), chunk=st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_chunk_slices_partition(count, chunk):
    """Chunks tile ``range(count)`` exactly, in order, within size."""
    covered = []
    for s in chunk_slices(count, chunk):
        rows = list(range(count))[s]
        assert 1 <= len(rows) <= chunk
        covered.extend(rows)
    assert covered == list(range(count))


@given(seed=seeds, count=st.integers(min_value=1, max_value=32))
@settings(max_examples=30, deadline=None)
def test_spawned_generators_are_usable_and_reproducible(seed, count):
    streams = spawn_seed_sequences(seed, count)
    draws = [np.random.default_rng(s).integers(0, 1 << 30) for s in streams]
    again = [np.random.default_rng(s).integers(0, 1 << 30) for s in spawn_seed_sequences(seed, count)]
    assert draws == again


def test_trial_seeds_validation():
    assert trial_seeds(3, seeds=[5, 6, 7]) == [5, 6, 7]
    with pytest.raises(ValueError):
        trial_seeds(3, seeds=[5, 6])
    with pytest.raises(ValueError):
        trial_seeds(2, seed=1, seeds=[1, 2])
    with pytest.raises(ValueError):
        spawn_seed_sequences(0, -1)
    assert spawn_seed_sequences(0, 0) == []
