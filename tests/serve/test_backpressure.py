"""Tests for the bounded admission queue and its shedding policies."""

import pytest

from repro.serve.backpressure import AdmissionQueue, ShedPolicy
from repro.serve.protocol import Priority, RequestKind, SessionRequest

pytestmark = pytest.mark.tier1


def open_req(rid, members=(0, 1), priority=Priority.NORMAL):
    return SessionRequest(
        kind=RequestKind.OPEN, request_id=rid, members=tuple(members), priority=priority
    )


def close_req(rid, sid=0):
    return SessionRequest(kind=RequestKind.CLOSE, request_id=rid, session_id=sid)


class TestBounds:
    def test_accepts_until_capacity(self):
        q = AdmissionQueue(capacity=3)
        for rid in range(3):
            accepted, shed = q.offer(open_req(rid))
            assert accepted and not shed
        assert q.depth == 3

    def test_reject_newest_bounces_the_arrival(self):
        q = AdmissionQueue(capacity=2, policy=ShedPolicy.REJECT_NEWEST)
        q.offer(open_req(0))
        q.offer(open_req(1))
        accepted, shed = q.offer(open_req(2))
        assert not accepted and not shed
        assert q.depth == 2
        assert q.stats.rejected == 1

    def test_control_lane_is_exempt_from_the_bound(self):
        q = AdmissionQueue(capacity=1)
        q.offer(open_req(0))
        for rid in range(1, 5):
            accepted, _ = q.offer(close_req(rid, sid=rid))
        assert accepted
        assert q.depth == 1 and q.control_depth == 4

    def test_peak_depth_tracked(self):
        q = AdmissionQueue(capacity=8)
        for rid in range(5):
            q.offer(open_req(rid))
        q.take(5)
        assert q.depth == 0
        assert q.stats.peak_depth == 5

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(capacity=0)


class TestShedLargest:
    def test_evicts_the_largest_queued_request(self):
        q = AdmissionQueue(capacity=2, policy=ShedPolicy.SHED_LARGEST)
        q.offer(open_req(0, members=(0, 1, 2, 3, 4)))
        q.offer(open_req(1, members=(5, 6)))
        accepted, shed = q.offer(open_req(2, members=(7, 8, 9)))
        assert accepted
        assert [r.request_id for r in shed] == [0]
        assert q.stats.shed == 1

    def test_bounces_arrival_when_it_is_the_largest(self):
        q = AdmissionQueue(capacity=2, policy=ShedPolicy.SHED_LARGEST)
        q.offer(open_req(0, members=(0, 1)))
        q.offer(open_req(1, members=(2, 3)))
        accepted, shed = q.offer(open_req(2, members=(4, 5, 6, 7)))
        assert not accepted and not shed


class TestPriorityPolicy:
    def test_evicts_newest_of_lowest_lane_below_arrival(self):
        q = AdmissionQueue(capacity=2, policy=ShedPolicy.PRIORITY)
        q.offer(open_req(0, priority=Priority.BULK))
        q.offer(open_req(1, priority=Priority.BULK))
        accepted, shed = q.offer(open_req(2, priority=Priority.INTERACTIVE))
        assert accepted
        assert [r.request_id for r in shed] == [1]  # newest bulk, not oldest

    def test_never_evicts_equal_or_higher_priority(self):
        q = AdmissionQueue(capacity=2, policy=ShedPolicy.PRIORITY)
        q.offer(open_req(0, priority=Priority.NORMAL))
        q.offer(open_req(1, priority=Priority.INTERACTIVE))
        accepted, shed = q.offer(open_req(2, priority=Priority.NORMAL))
        assert not accepted and not shed


class TestServiceOrder:
    def test_control_first_then_priority_then_fifo(self):
        q = AdmissionQueue(capacity=8, policy=ShedPolicy.PRIORITY)
        q.offer(open_req(0, priority=Priority.BULK))
        q.offer(open_req(1, priority=Priority.INTERACTIVE))
        q.offer(open_req(2, priority=Priority.INTERACTIVE))
        q.offer(close_req(3))
        q.offer(open_req(4, priority=Priority.NORMAL))
        assert [r.request_id for r in q.take(10)] == [3, 1, 2, 4, 0]

    def test_take_respects_limit(self):
        q = AdmissionQueue(capacity=8)
        for rid in range(6):
            q.offer(open_req(rid))
        assert len(q.take(4)) == 4
        assert q.depth == 2

    def test_drain_all_empties(self):
        q = AdmissionQueue(capacity=8)
        for rid in range(3):
            q.offer(open_req(rid))
        q.offer(close_req(9))
        assert len(q.take(len(q))) == 4
        assert len(q) == 0
