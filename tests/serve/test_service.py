"""Tests for the FabricService: lifecycle, batching, faults, drain."""

import asyncio

import pytest

from repro.core.healing import RetryPolicy
from repro.core.network import ConferenceNetwork
from repro.obs.metrics import MetricsRegistry
from repro.serve.backpressure import ShedPolicy
from repro.serve.protocol import Priority
from repro.serve.service import FabricService
from repro.serve.session import SessionState
from repro.sim.faults import FaultTransition

pytestmark = pytest.mark.tier1

N_PORTS = 16


def service(**kwargs) -> FabricService:
    kwargs.setdefault("rng", 0)
    network = kwargs.pop(
        "network",
        ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS),
    )
    return FabricService(network, **kwargs)


def collect(responses):
    return responses.append


class TestConstruction:
    def test_configuration_is_keyword_only(self):
        network = ConferenceNetwork.build("extra-stage-cube", N_PORTS)
        with pytest.raises(TypeError):
            FabricService(network, RetryPolicy())

    def test_spelling_matches_the_library_convention(self):
        import inspect

        params = inspect.signature(FabricService.__init__).parameters
        for name in ("rng", "tracer", "metrics", "retry"):
            assert name in params
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    def test_tick_advances_virtual_time_by_one(self):
        svc = service()
        for expected in (1.0, 2.0, 3.0):
            svc.tick()
            assert svc.now == expected and isinstance(svc.now, float)

    def test_perf_config_requires_the_buffered_model(self):
        from repro.perfmodel.model import PerfModelConfig

        with pytest.raises(ValueError, match="buffered"):
            service(perf=PerfModelConfig())
        assert service(capacity_model="buffered", perf=PerfModelConfig()).delivery is not None


class TestLifecycle:
    def test_open_then_close(self):
        svc = service()
        got = []
        sid = svc.submit_open([0, 1, 2], on_complete=collect(got))
        assert svc.sessions.require(sid).state is SessionState.QUEUED
        svc.tick()
        assert got and got[0].ok and got[0].status == "admitted"
        assert got[0].latency == pytest.approx(1.0)
        assert svc.sessions.require(sid).state is SessionState.ACTIVE
        assert sid in svc.healing.live_conferences
        svc.submit_close(sid, on_complete=collect(got))
        svc.tick()
        assert got[-1].status == "closed"
        assert svc.sessions.require(sid).state is SessionState.CLOSED
        assert sid not in svc.healing.live_conferences

    def test_batched_admission_shares_one_pass(self):
        svc = service()
        got = []
        for base in range(0, 12, 3):
            svc.submit_open([base, base + 1, base + 2], on_complete=collect(got))
        report = svc.tick()
        assert report.size == 4 and report.admitted == 4
        assert {r.batch_seq for r in got} == {0}

    def test_join_and_leave_apply_membership(self):
        svc = service()
        got = []
        sid = svc.submit_open([0, 1], on_complete=collect(got))
        svc.tick()
        svc.submit_join(sid, [2, 3], on_complete=collect(got))
        svc.tick()
        assert got[-1].status == "applied"
        assert svc.sessions.require(sid).members == (0, 1, 2, 3)
        assert svc.healing.route_of(sid).conference.members == (0, 1, 2, 3)
        svc.submit_leave(sid, [1], on_complete=collect(got))
        svc.tick()
        assert got[-1].ok
        assert svc.sessions.require(sid).members == (0, 2, 3)

    def test_membership_validation(self):
        svc = service()
        got = []
        sid = svc.submit_open([0, 1], on_complete=collect(got))
        svc.tick()
        svc.submit_join(sid, [1], on_complete=collect(got))
        svc.submit_leave(sid, [9], on_complete=collect(got))
        svc.submit_leave(sid, [0], on_complete=collect(got))
        svc.tick()
        # Control ops (leave) drain before data ops (join), so the two
        # leave verdicts land first.
        reasons = [r.reason for r in got[1:]]
        assert reasons == ["not-a-member", "too-few-members", "already-a-member"]

    def test_unknown_session_errors(self):
        svc = service()
        got = []
        svc.submit_close(99, on_complete=collect(got))
        svc.tick()
        assert got[0].status == "error" and got[0].reason == "unknown-session"

    def test_close_of_queued_session_cancels_the_open(self):
        svc = service(max_batch=64)
        got = []
        sid = svc.submit_open([0, 1], on_complete=collect(got))
        svc.submit_close(sid)
        svc.tick()  # control drains first, so the open sees CLOSED
        assert got[0].status == "rejected" and got[0].reason == "cancelled"
        assert svc.sessions.require(sid).state is SessionState.CLOSED

    def test_port_clash_rejects_without_retry(self):
        svc = service()
        got = []
        svc.submit_open([0, 1], on_complete=collect(got))
        svc.tick()
        svc.submit_open([1, 2], on_complete=collect(got))
        svc.tick()
        assert got[-1].status == "rejected" and got[-1].reason == "ports"

    def test_denied_open_retries_and_succeeds_after_release(self):
        svc = service(retry=RetryPolicy(max_retries=8, base_delay=1.0, jitter=0.0))
        got = []
        first = svc.submit_open([0, 1], on_complete=collect(got))
        svc.tick()
        svc.submit_open([1, 2], on_complete=collect(got))
        svc.tick()  # denied (ports) -> backoff, not terminal
        assert got == [got[0]]
        svc.submit_close(first)
        for _ in range(6):
            svc.tick()
        assert got[-1].status == "admitted"


class TestChurnDetail:
    # Satellite of the 1.6 redesign: join/leave responses carry the
    # disruption diff, not a bare ok/reason.

    def test_join_response_carries_the_disruption_diff(self):
        svc = service()
        got = []
        sid = svc.submit_open([0, 3], on_complete=collect(got))
        svc.tick()
        svc.submit_join(sid, [1], on_complete=collect(got))
        svc.tick()
        detail = got[-1].detail
        for key in ("links_reconfigured", "hitless", "mode", "taps_moved", "drift_links"):
            assert key in detail, f"join detail lacks {key}"
        assert detail["mode"] == "incremental"
        assert detail["hitless"] is True  # in-block join on the cube
        assert detail["taps_moved"] == 0
        payload = got[-1].as_dict()
        assert payload["detail"]["links_reconfigured"] == detail["links_reconfigured"]

    def test_full_reroute_policy_is_reported_in_the_detail(self):
        from repro.core.churn import ChurnPolicy

        svc = service(churn=ChurnPolicy(incremental=False))
        got = []
        sid = svc.submit_open([0, 3], on_complete=collect(got))
        svc.tick()
        svc.submit_join(sid, [1], on_complete=collect(got))
        svc.tick()
        assert got[-1].status == "applied"
        assert got[-1].detail["mode"] == "full-reroute"

    def test_membership_changes_bump_generation_and_history(self):
        svc = service()
        got = []
        sid = svc.submit_open([0, 1], on_complete=collect(got))
        svc.tick()
        session = svc.sessions.require(sid)
        generation = session.generation
        svc.submit_join(sid, [2], on_complete=collect(got))
        svc.tick()
        svc.submit_leave(sid, [2], on_complete=collect(got))
        svc.tick()
        assert session.generation == generation + 2
        assert any(entry.endswith("+2") for entry in session.history)
        assert any(entry.endswith("-2") for entry in session.history)


class TestBackpressure:
    def test_overflow_rejects_with_backpressure(self):
        svc = service(queue_capacity=2, max_batch=64)
        got = []
        for base in range(0, 8, 2):
            svc.submit_open([base, base + 1], on_complete=collect(got))
        rejected = [r for r in got if r.status == "rejected"]
        assert len(rejected) == 2
        assert all(r.reason == "backpressure" for r in rejected)
        svc.tick()
        assert sum(r.status == "admitted" for r in got) == 2

    def test_shed_largest_answers_the_victim(self):
        svc = service(queue_capacity=1, shed_policy=ShedPolicy.SHED_LARGEST)
        got = []
        big = svc.submit_open([0, 1, 2, 3], on_complete=collect(got))
        svc.submit_open([8, 9], on_complete=collect(got))
        assert got and got[0].status == "shed"
        assert got[0].session_id == big
        assert svc.sessions.require(big).state is SessionState.REJECTED
        svc.tick()
        assert got[-1].status == "admitted"

    def test_shedding_an_open_closed_while_queued_keeps_it_closed(self):
        # The close (control lane) runs first; the open it cancelled is
        # still queued when a smaller arrival sheds it.
        svc = service(queue_capacity=1, shed_policy=ShedPolicy.SHED_LARGEST, max_batch=1)
        got = []
        big = svc.submit_open([0, 1, 2], on_complete=collect(got))
        svc.submit_close(big, on_complete=collect(got))
        svc.tick()
        svc.submit_open([8, 9], on_complete=collect(got))
        assert [r.status for r in got] == ["closed", "shed"]
        assert svc.sessions.require(big).state is SessionState.CLOSED

    def test_bouncing_a_retry_closed_in_backoff_keeps_it_closed(self):
        network = ConferenceNetwork.build("indirect-binary-cube", N_PORTS, dilation=1)
        retry = RetryPolicy(max_retries=3, base_delay=2.0, jitter=0.0)
        svc = service(network=network, queue_capacity=1, retry=retry)
        got = []
        svc.submit_open([0, 15], on_complete=collect(got))
        svc.tick()
        blocked = svc.submit_open([1, 14], on_complete=collect(got))
        svc.tick()  # denied on capacity: backs off
        svc.submit_close(blocked, on_complete=collect(got))
        svc.tick()  # the close runs while the open waits out its backoff
        svc.submit_open([4, 5], on_complete=collect(got))  # fills the queue
        svc.tick()  # the retry comes due and bounces off the full queue
        bounced = [r for r in got if r.session_id == blocked and r.kind == "open"]
        assert [(r.status, r.reason) for r in bounced] == [("rejected", "backpressure")]
        assert svc.sessions.require(blocked).state is SessionState.CLOSED

    def test_priority_lane_evicts_bulk_for_interactive(self):
        svc = service(queue_capacity=1, shed_policy=ShedPolicy.PRIORITY)
        got = []
        bulk = svc.submit_open([0, 1], priority=Priority.BULK, on_complete=collect(got))
        svc.submit_open(
            [2, 3], priority=Priority.INTERACTIVE, on_complete=collect(got)
        )
        assert got[0].status == "shed" and got[0].session_id == bulk


class TestFaults:
    # Killing input wire (0, 0) makes any conference containing port 0
    # unroutable: the healing ladder must drop it, and the service must
    # bring it back once the wire is repaired — one way or another.

    def test_drop_restore_round_trip_via_healing_retries(self):
        svc = service(retry=RetryPolicy(max_retries=10, base_delay=1.0, jitter=0.0))
        svc.attach_faults(
            [FaultTransition(2.5, (0, 0), True), FaultTransition(6.5, (0, 0), False)]
        )
        got = []
        sid = svc.submit_open([0, 1, 2], on_complete=collect(got))
        svc.tick()
        assert svc.sessions.require(sid).state is SessionState.ACTIVE
        for _ in range(2):
            svc.tick()
        assert svc.sessions.require(sid).state is SessionState.DOWN
        for _ in range(8):
            svc.tick()
        session = svc.sessions.require(sid)
        assert session.state is SessionState.ACTIVE
        assert session.generation >= 1
        assert svc.sessions.counts()["lost"] == 0

    def test_exhausted_healing_retries_requeue_instead_of_losing(self):
        # No healing retry budget at all: the drop is immediately "lost"
        # at the controller level, and the service's requeue path is the
        # only thing standing between the session and oblivion.
        svc = service(retry=None)
        svc.attach_faults(
            [FaultTransition(2.5, (0, 0), True), FaultTransition(5.5, (0, 0), False)]
        )
        sid = svc.submit_open([0, 1, 2])
        svc.tick()
        for _ in range(2):
            svc.tick()
        assert svc.sessions.require(sid).state is SessionState.DOWN
        for _ in range(6):
            svc.tick()
        session = svc.sessions.require(sid)
        assert session.state is SessionState.ACTIVE
        assert session.requeues >= 1
        assert svc.stats.requeues >= 1
        assert svc.sessions.counts()["lost"] == 0

    def test_requeue_path_traces_cleanly(self):
        # The tracer rejects attribute names that collide with its record
        # schema; the fault/requeue path must stay attachable.
        from repro.obs.trace import Tracer

        tracer = Tracer()
        svc = service(retry=None, tracer=tracer)
        svc.attach_faults(
            [FaultTransition(2.5, (0, 0), True), FaultTransition(5.5, (0, 0), False)]
        )
        sid = svc.submit_open([0, 1, 2])
        for _ in range(9):
            svc.tick()
        assert svc.sessions.require(sid).state is SessionState.ACTIVE
        assert any(r["name"] == "serve.requeue" for r in tracer.records())

    def test_close_while_down_releases_on_restore(self):
        svc = service(retry=RetryPolicy(max_retries=10, base_delay=1.0, jitter=0.0))
        svc.attach_faults(
            [FaultTransition(2.5, (0, 0), True), FaultTransition(5.5, (0, 0), False)]
        )
        got = []
        sid = svc.submit_open([0, 1])
        svc.tick()
        for _ in range(2):
            svc.tick()
        assert svc.sessions.require(sid).state is SessionState.DOWN
        svc.submit_close(sid, on_complete=collect(got))
        svc.tick()
        assert got[-1].status == "closed"
        for _ in range(8):
            svc.tick()
        assert svc.sessions.require(sid).state is SessionState.CLOSED
        assert sid not in svc.healing.live_conferences
        assert not svc.healing.down_conferences


class TestDrainAndShutdown:
    def test_drain_settles_the_backlog(self):
        svc = service(retry=RetryPolicy(max_retries=3, base_delay=1.0, jitter=0.0))
        got = []
        for base in range(0, 8, 2):
            svc.submit_open([base, base + 1], on_complete=collect(got))
        svc.drain()
        assert len(got) == 4 and all(r.ok for r in got)
        assert len(svc.queue) == 0
        assert svc.state == "draining"

    def test_drain_cannot_settle_a_restore_whose_port_is_taken(self):
        """A healthy fabric that never drains: session 0 goes down on a
        transient fault, session 1 takes its port 1 meanwhile, and the
        re-queued restore waits for that port until session 1 closes."""
        network = ConferenceNetwork.build("indirect-binary-cube", N_PORTS, dilation=1)
        svc = service(network=network, retry=RetryPolicy(max_retries=2, base_delay=1.0))
        first = svc.submit_open([0, 1])
        svc.tick()
        svc.attach_faults(
            [FaultTransition(2.0, (1, 0), True), FaultTransition(5.0, (1, 0), False)]
        )
        for _ in range(3):
            svc.tick()
        assert svc.sessions.require(first).state is SessionState.DOWN
        got = []
        second = svc.submit_open([1, 3], on_complete=collect(got))
        for _ in range(6):
            svc.tick()
        assert got[-1].status == "admitted"
        with pytest.raises(
            RuntimeError,
            match=r"drain did not settle within 200 ticks \(1 in flight, 0 queued, 0 down\)",
        ):
            svc.drain(max_ticks=200)
        assert svc.sessions.require(first).state is SessionState.DOWN
        assert svc.sessions.require(second).state is SessionState.ACTIVE
        assert not svc.healing.down_conferences

    def test_draining_rejects_new_opens_but_takes_closes(self):
        svc = service()
        got = []
        sid = svc.submit_open([0, 1], on_complete=collect(got))
        svc.tick()
        svc.drain()
        svc.submit_open([4, 5], on_complete=collect(got))
        assert got[-1].status == "rejected" and got[-1].reason == "draining"
        svc.submit_close(sid, on_complete=collect(got))
        svc.tick()
        assert got[-1].status == "closed"

    def test_shutdown_closes_everything(self):
        svc = service()
        sid = svc.submit_open([0, 1])
        svc.tick()
        counts = svc.shutdown()
        assert counts["active"] == 0 and counts["closed"] == 1
        assert svc.sessions.require(sid).state is SessionState.CLOSED
        assert svc.state == "closed"
        with pytest.raises(RuntimeError):
            svc.tick()

    def test_closed_service_rejects_submissions(self):
        svc = service()
        svc.shutdown()
        got = []
        svc.submit_open([0, 1], on_complete=collect(got))
        assert got[0].status == "rejected" and got[0].reason == "service-closed"


class TestAsyncFacade:
    def test_full_lifecycle(self):
        async def scenario():
            svc = service()
            runner = asyncio.create_task(svc.run())
            opened = await svc.open_conference([0, 1, 2])
            assert opened.ok and opened.status == "admitted"
            joined = await svc.join(opened.session_id, [5])
            assert joined.status == "applied"
            left = await svc.leave(opened.session_id, [5])
            assert left.status == "applied"
            closed = await svc.close(opened.session_id)
            assert closed.status == "closed"
            runner.cancel()
            try:
                await runner
            except asyncio.CancelledError:
                pass
            return svc

        svc = asyncio.run(scenario())
        assert svc.shutdown()["closed"] == 1

    def test_run_until_bounds_virtual_time(self):
        async def scenario():
            svc = service()
            await svc.run(until=5.0)
            return svc.now

        assert asyncio.run(scenario()) == pytest.approx(5.0)


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        def run():
            registry = MetricsRegistry()
            svc = service(
                rng=7,
                metrics=registry,
                retry=RetryPolicy(max_retries=5, base_delay=1.0),
            )
            svc.attach_faults(
                [FaultTransition(2.5, (0, 0), True), FaultTransition(6.5, (0, 0), False)]
            )
            for base in range(0, 12, 3):
                svc.submit_open([base, base + 1, base + 2])
            for _ in range(15):
                svc.tick()
            svc.shutdown()
            return registry.render_prometheus()

        assert run() == run()

    def test_metrics_track_queue_and_batches(self):
        registry = MetricsRegistry()
        svc = service(metrics=registry)
        svc.submit_open([0, 1])
        svc.tick()
        text = registry.render_prometheus()
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_batch_size" in text
        assert "repro_serve_requests_total" in text
        assert "repro_serve_admission_latency" in text
