"""Workload generation: conference sets, churn timelines, enumerations."""

from repro.workloads.churn import (
    ChurnEvent,
    flash_crowd,
    replay_churn,
    zipf_sizes,
)
from repro.workloads.generators import (
    aligned_sets,
    clustered,
    draw_sizes,
    interleaved,
    uniform_partition,
)
from repro.workloads.partitions import (
    conference_sets,
    count_partial_partitions,
    pair_families,
    partial_partitions,
)

__all__ = [
    "ChurnEvent",
    "aligned_sets",
    "clustered",
    "conference_sets",
    "count_partial_partitions",
    "draw_sizes",
    "flash_crowd",
    "interleaved",
    "pair_families",
    "partial_partitions",
    "replay_churn",
    "uniform_partition",
    "zipf_sizes",
]
