"""Tests for per-tick batch formation and execution."""

import pytest

from repro.serve.backpressure import AdmissionQueue
from repro.serve.batcher import Batcher
from repro.serve.protocol import RequestKind, ServiceResponse, SessionRequest

pytestmark = pytest.mark.tier1


def open_req(rid):
    return SessionRequest(kind=RequestKind.OPEN, request_id=rid, members=(0, 1))


def admit_all(request, seq):
    return ServiceResponse(
        ok=True, status="admitted", kind=request.kind,
        request_id=request.request_id, batch_seq=seq,
        submitted_at=request.submitted_at, completed_at=1.0,
    )


class TestBatcher:
    def test_batch_bounded_by_max_batch(self):
        q = AdmissionQueue(capacity=16)
        for rid in range(10):
            q.offer(open_req(rid))
        b = Batcher(max_batch=4)
        assert len(b.next_batch(q)) == 4
        assert q.depth == 6

    def test_execute_aggregates_outcomes_and_latencies(self):
        b = Batcher(max_batch=8)
        batch = [open_req(rid) for rid in range(3)]
        responses = []

        def handler(request, seq):
            responses.append(admit_all(request, seq))
            return responses[-1]

        report = b.execute(batch, handler, now=5.0)
        assert report.seq == 0 and report.size == 3
        assert report.outcomes["admitted"] == 3
        assert report.admitted == 3
        assert [r.request_id for r in responses] == [0, 1, 2]
        assert all(r.batch_seq == 0 for r in responses)
        assert report.as_dict()["mean_latency"] == 1.0

    def test_sequence_numbers_advance(self):
        b = Batcher(max_batch=8)
        b.execute([], admit_all, now=0.0)
        report = b.execute([open_req(0)], admit_all, now=1.0)
        assert report.seq == 1
        assert b.execute([], admit_all, now=2.0).seq == 2

    def test_max_batch_validated(self):
        with pytest.raises(ValueError, match="max_batch"):
            Batcher(max_batch=0)
