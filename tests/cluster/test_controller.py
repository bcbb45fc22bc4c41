"""Tests for ClusterService: routing, drain, failover, elastic scaling."""

import pytest

from repro.cluster.controller import ClusterService, ShardState
from repro.cluster.directory import EntryState
from repro.core.network import ConferenceNetwork
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.perfmodel.model import PerfModelConfig
from repro.serve.protocol import Priority


def _factory(shard_id):
    return ConferenceNetwork.build("indirect-binary-cube", 16, dilation=16)


def _cluster(**kw):
    kw.setdefault("shards", 2)
    kw.setdefault("rng", 0)
    return ClusterService(_factory, **kw)


def _settle(cluster, ticks=50):
    """Tick until the cluster is idle (bounded)."""
    for _ in range(ticks):
        cluster.tick()
        if not cluster.migrations.depth and not cluster.directory.counts()["pending"]:
            if cluster.check_consistency() == []:
                return
    raise AssertionError("cluster did not settle")


def _assert_tally_is_a_full_scan(cluster):
    """The directory's incremental tally equals a recount of its entries."""
    recount = {state.value: 0 for state in EntryState}
    for entry in cluster.directory:
        recount[entry.state.value] += 1
    assert cluster.directory.counts() == recount


def _open(cluster, members, **kw):
    """Open and settle one conference; returns (csid, terminal response)."""
    got = []
    csid = cluster.submit_open(members, on_complete=got.append, **kw)
    for _ in range(20):
        if got:
            break
        cluster.tick()
    assert got, "open verdict never arrived"
    return csid, got[0]


class TestConstruction:
    def test_shards_start_named_in_order_at_unit_weight(self):
        cluster = _cluster(shards=3)
        assert list(cluster.shards) == ["shard-0", "shard-1", "shard-2"]
        assert cluster.active_weights() == dict.fromkeys(cluster.shards, 1.0)

    def test_a_cluster_needs_a_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            _cluster(shards=0)

    def test_perf_config_requires_the_buffered_model(self):
        with pytest.raises(ValueError, match="buffered"):
            _cluster(perf=PerfModelConfig())
        cluster = _cluster(capacity_model="buffered", perf=PerfModelConfig())
        assert all(s.service.delivery is not None for s in cluster.shards.values())


class TestClientSurface:
    def test_open_reports_cluster_id_and_shard(self):
        cluster = _cluster()
        csid, resp = _open(cluster, (0, 1, 2))
        assert resp.ok and resp.status == "admitted"
        assert resp.session_id == csid  # cluster id, not the shard-local id
        assert resp.detail["shard"] in cluster.shards
        entry = cluster.directory.require(csid)
        assert entry.state is EntryState.ACTIVE
        assert entry.shard_id == resp.detail["shard"]
        assert cluster.check_consistency() == []

    def test_join_and_leave_update_directory_membership(self):
        cluster = _cluster()
        csid, _ = _open(cluster, (0, 1))
        got = []
        cluster.submit_join(csid, (2,), on_complete=got.append)
        cluster.tick()
        assert got and got[0].ok
        assert cluster.directory.require(csid).members == (0, 1, 2)
        cluster.submit_leave(csid, (0,), on_complete=got.append)
        cluster.tick()
        assert got[1].ok
        assert cluster.directory.require(csid).members == (1, 2)
        assert cluster.check_consistency() == []

    def test_close_and_double_close(self):
        cluster = _cluster()
        csid, _ = _open(cluster, (0, 1))
        got = []
        cluster.submit_close(csid, on_complete=got.append)
        cluster.tick()
        assert got[0].ok and got[0].status == "closed"
        assert cluster.directory.require(csid).state is EntryState.CLOSED
        cluster.submit_close(csid, on_complete=got.append)
        assert got[1].status == "error" and got[1].reason == "already-closed"

    def test_unknown_session_errors(self):
        cluster = _cluster()
        got = []
        cluster.submit_join(99, (1,), on_complete=got.append)
        assert got[0].status == "error" and got[0].reason == "unknown-session"

    def test_resize_on_pending_session_bounces(self):
        cluster = _cluster()
        got = []
        csid = cluster.submit_open((0, 1))  # not yet ticked: PENDING
        cluster.submit_join(csid, (2,), on_complete=got.append)
        assert got[0].status == "rejected" and got[0].reason == "session-pending"

    def test_open_after_shutdown_rejected(self):
        cluster = _cluster()
        cluster.shutdown()
        got = []
        cluster.submit_open((0, 1), on_complete=got.append)
        assert got[0].status == "rejected" and got[0].reason == "service-closed"

    def test_responses_share_one_cluster_op_id_space(self):
        cluster = _cluster()
        csid_a, resp_a = _open(cluster, (0, 1))
        csid_b, resp_b = _open(cluster, (2, 3))
        assert resp_a.request_id != resp_b.request_id


class TestDrain:
    def test_drain_shard_rehomes_and_retires(self):
        cluster = _cluster(shards=3)
        sessions = [
            _open(cluster, m)[0] for m in [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        ]
        victims = {cluster.directory.require(c).shard_id for c in sessions}
        victim = sorted(victims)[0]
        hosted = len(cluster.directory.on_shard(victim))
        moved = cluster.drain_shard(victim)
        assert moved == hosted
        assert cluster.shards[victim].state is ShardState.DRAINING
        _settle(cluster)
        for _ in range(10):  # let the empty shard retire
            cluster.tick()
        assert cluster.shards[victim].state is ShardState.REMOVED
        assert cluster.directory.on_shard(victim) == []
        for csid in sessions:
            entry = cluster.directory.require(csid)
            assert entry.state is EntryState.ACTIVE
        assert cluster.stats.lost_sessions == 0
        assert cluster.check_consistency() == []

    def test_drain_requires_active_shard(self):
        cluster = _cluster()
        cluster.drain_shard("shard-0")
        with pytest.raises(ValueError, match="drain"):
            cluster.drain_shard("shard-0")

    def test_cluster_drain_settles_everything(self):
        cluster = _cluster()
        for m in [(0, 1), (2, 3)]:
            cluster.submit_open(m)
        cluster.drain()
        counts = cluster.directory.counts()
        assert counts["pending"] == 0 and counts["migrating"] == 0


class TestFailover:
    def test_fail_shard_rehomes_active_sessions_zero_lost(self):
        cluster = _cluster(shards=3)
        sessions = [
            _open(cluster, m)[0] for m in [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        ]
        victim = cluster.directory.require(sessions[0]).shard_id
        hosted = len(cluster.directory.on_shard(victim))
        moved = cluster.fail_shard(victim)
        assert moved == hosted
        assert cluster.shards[victim].state is ShardState.FAILED
        _settle(cluster)
        for csid in sessions:
            entry = cluster.directory.require(csid)
            assert entry.state is EntryState.ACTIVE
            assert entry.shard_id != victim
        assert cluster.stats.failovers == hosted
        assert cluster.stats.lost_sessions == 0
        assert cluster.check_consistency() == []
        _assert_tally_is_a_full_scan(cluster)

    def test_pending_open_survives_failover_with_callback(self):
        cluster = _cluster(shards=2)
        got = []
        csid = cluster.submit_open((0, 1), on_complete=got.append)
        victim = cluster.directory.require(csid).shard_id
        cluster.fail_shard(victim)  # before the open ever completed
        _settle(cluster)
        assert got and got[0].ok, "client verdict must survive the failover"
        assert got[0].session_id == csid
        entry = cluster.directory.require(csid)
        assert entry.state is EntryState.ACTIVE and entry.shard_id != victim

    def test_inflight_op_on_dead_shard_errors(self):
        cluster = _cluster(shards=2)
        csid, _ = _open(cluster, (0, 1))
        home = cluster.directory.require(csid).shard_id
        got = []
        cluster.submit_join(csid, (2,), on_complete=got.append)  # queued, unticked
        cluster.fail_shard(home)
        assert got and got[0].status == "error" and got[0].reason == "shard-failed"

    def test_fail_last_shard_then_opens_rejected(self):
        cluster = _cluster(shards=1)
        cluster.fail_shard("shard-0")
        got = []
        cluster.submit_open((0, 1), on_complete=got.append)
        assert got[0].status == "rejected" and got[0].reason == "no-active-shards"

    def test_fail_is_idempotent(self):
        cluster = _cluster(shards=2)
        cluster.fail_shard("shard-0")
        assert cluster.fail_shard("shard-0") == 0


class TestElasticScaling:
    def test_scale_up_moves_only_the_placement_delta(self):
        cluster = _cluster(shards=2)
        sessions = [
            _open(cluster, (2 * i, 2 * i + 1))[0] for i in range(6)
        ]
        before = {c: cluster.directory.require(c).shard_id for c in sessions}
        new_shard, plan = cluster.scale_up()
        assert new_shard in cluster.shards
        for csid, source, target in plan.moves:
            assert target == new_shard  # delta lands only on the newcomer
        _settle(cluster)
        for csid in sessions:
            entry = cluster.directory.require(csid)
            moved = (csid, before[csid], new_shard) in plan.moves
            assert entry.shard_id == (new_shard if moved else before[csid])
        assert cluster.stats.migrations == len(plan.moves)
        assert cluster.stats.lost_sessions == 0
        assert cluster.check_consistency() == []
        _assert_tally_is_a_full_scan(cluster)

    def test_migration_budget_throttles_moves_per_tick(self):
        cluster = _cluster(shards=2, migration_budget=1)
        for i in range(4):
            _open(cluster, (2 * i, 2 * i + 1))
        cluster.drain_shard("shard-0")
        backlog = cluster.migrations.depth
        if backlog < 2:
            pytest.skip("placement left too few sessions on shard-0")
        cluster.tick()
        # one tick may start at most budget moves
        assert cluster.migrations.started == 1
        assert cluster.migrations.depth == backlog - 1

    def test_scale_down_is_graceful_drain(self):
        cluster = _cluster(shards=2)
        csid, _ = _open(cluster, (0, 1))
        cluster.scale_down("shard-0")
        _settle(cluster)
        assert cluster.directory.require(csid).state is EntryState.ACTIVE
        assert cluster.stats.lost_sessions == 0


class TestTelemetryAndShutdown:
    def test_failover_spans_and_shard_labelled_counters(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        cluster = _cluster(shards=2, tracer=tracer, metrics=registry)
        csid, resp = _open(cluster, (0, 1))
        home = resp.detail["shard"]
        cluster.fail_shard(home)
        _settle(cluster)
        names = {r["name"] for r in tracer.records()}
        assert "cluster.failover" in names
        assert (
            registry.counter("repro_cluster_shard_failures_total").value(shard=home)
            == 1
        )
        assert (
            registry.counter("repro_cluster_requests_total").value(
                shard=home, kind="open", status="admitted"
            )
            == 1
        )

    def test_migrate_spans_on_rebalance(self):
        tracer = Tracer()
        cluster = _cluster(shards=2, tracer=tracer)
        for i in range(6):
            _open(cluster, (2 * i, 2 * i + 1))
        _, plan = cluster.scale_up()
        _settle(cluster)
        spans = [r for r in tracer.records() if r["name"] == "cluster.migrate"]
        assert len([s for s in spans if s.get("type") == "span_open"]) >= len(
            plan.moves
        ) or len(spans) >= len(plan.moves)

    def test_shutdown_closes_everything_and_reports_counts(self):
        cluster = _cluster(shards=2)
        for i in range(3):
            _open(cluster, (2 * i, 2 * i + 1))
        counts = cluster.shutdown()
        assert cluster.state == "closed"
        assert counts["lost"] == 0
        assert counts["closed"] + counts["rejected"] == 3
        assert cluster.stats.lost_sessions == 0
        _assert_tally_is_a_full_scan(cluster)

    def test_same_seed_same_story(self):
        def run():
            cluster = _cluster(shards=3, rng=42)
            for i in range(5):
                _open(cluster, (2 * i, 2 * i + 1))
            cluster.fail_shard("shard-1")
            _settle(cluster)
            cluster.shutdown()
            return cluster.stats.as_dict()

        assert run() == run()
