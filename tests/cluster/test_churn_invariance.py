"""Shard-count invariance of churn replay.

Satellite of the 1.6 redesign: replaying the same churn timeline
through a :class:`ClusterService` at 1, 2, 4, and 8 shards must produce
byte-identical shard-invariant records — the incremental membership
path may not let placement leak into routing outcomes.  The CI
``churn-determinism`` job runs the same comparison via the W1 bench.
"""

import json

import pytest

from repro.cluster.controller import ClusterService
from repro.core.network import ConferenceNetwork
from repro.workloads.churn import ChurnEvent, flash_crowd, replay_churn

pytestmark = pytest.mark.tier1

N_PORTS = 32
SHARD_COUNTS = (1, 2, 4, 8)


def waves(conferences=4, size=3, period=4, cycles=2):
    """Long-lived conferences under alternating join and leave waves:
    each join wave gives every conference one spare port, the next leave
    wave takes it back."""
    events = [
        ChurnEvent(0, "open", s, tuple(range(s * size, (s + 1) * size)))
        for s in range(conferences)
    ]
    spare = conferences * size
    tick = 2
    for _ in range(cycles):
        for s in range(conferences):
            events.append(ChurnEvent(tick + s % period, "join", s, (spare + s,)))
        tick += period
        for s in range(conferences):
            events.append(ChurnEvent(tick + s % period, "leave", s, (spare + s,)))
        tick += period
    return events


def lurkers(core_size=4, count=5, gap=2):
    """One conference gaining a single member every ``gap`` ticks."""
    events = [ChurnEvent(0, "open", 0, tuple(range(core_size)))]
    events += [
        ChurnEvent(2 + gap * i, "join", 0, (core_size + i,)) for i in range(count)
    ]
    return events


def _replay(events, shards):
    def factory(shard_id):
        return ConferenceNetwork.build(
            "indirect-binary-cube", N_PORTS, dilation=N_PORTS
        )

    cluster = ClusterService(factory, shards=shards, rng=0)
    records = replay_churn(cluster, events, settle_ticks=128)
    return json.dumps(records, sort_keys=True)


@pytest.mark.parametrize(
    "timeline",
    [
        flash_crowd(N_PORTS, crowd=6, seed=3),
        waves(),
        lurkers(),
    ],
    ids=["flash-crowd", "diurnal", "lurkers"],
)
def test_records_are_byte_identical_across_shard_counts(timeline):
    baseline = _replay(timeline, SHARD_COUNTS[0])
    for shards in SHARD_COUNTS[1:]:
        assert _replay(timeline, shards) == baseline, (
            f"churn replay diverged at {shards} shards"
        )


def test_records_strip_shard_specific_detail():
    records = json.loads(_replay(lurkers(count=3), 4))
    assert records, "empty replay"
    for record in records:
        assert "shard" not in record.get("detail", {})
