"""``repro_route_batch_seconds`` times every kernel entry, once per call.

The histogram wraps ``repro.core.batch._route_batch``, which
``route_batch``, backup-plan overlays, churn, group connections and the
cluster's cross-shard prime all go through, so each of them shows up
as exactly one observation per call.
"""

import pytest

from repro.cluster.controller import ClusterService
from repro.core.conference import Conference
from repro.core.network import ConferenceNetwork
from repro.core.routing import route_conference
from repro.obs.metrics import collecting
from repro.protect.plans import BackupPlanStore
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

NAME = "repro_route_batch_seconds"


def test_a_cluster_tick_with_two_busy_shards_is_one_observation():
    cluster = ClusterService(
        lambda _sid: ConferenceNetwork.build("extra-stage-cube", 16, dilation=16),
        shards=4, rng=0,
    )
    shards = set()
    for members in ((0, 1), (2, 3, 9), (4, 5), (6, 7, 12), (8, 10), (11, 13)):
        csid = cluster.submit_open(members)
        shards.add(cluster.directory.require(csid).shard_id)
    assert len(shards) >= 2
    with collecting() as registry:
        cluster.tick()
    assert registry.histogram(NAME).count() == 1
    assert sum(len(s.service.healing.live_conferences) for s in cluster.shards.values()) == 6


def test_an_overlay_plan_call_is_one_observation():
    net = build("extra-stage-cube", 16)
    store = BackupPlanStore(net, protection=3)
    routes = [
        route_conference(net, Conference.of(members, cid))
        for cid, members in enumerate(((0, 1, 2, 3), (4, 9), (5, 10, 15)))
    ]
    with collecting() as registry:
        planned = store.protect(routes, frozenset())
    assert planned == 9
    assert registry.histogram(NAME).count() == 1
