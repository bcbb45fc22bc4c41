"""Unit tests of the structured event tracer."""

import io
import json

import pytest

from repro.obs.trace import Tracer

pytestmark = pytest.mark.tier1


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestEvents:
    def test_event_record_schema(self):
        tr = Tracer(clock=_fake_clock([0.0, 1.5]))
        tr.event("fault.fail", t=12.5, level=2, row=7)
        (rec,) = tr.records()
        assert rec == {
            "type": "event",
            "seq": 0,
            "name": "fault.fail",
            "t": 12.5,
            "wall": 1.5,
            "level": 2,
            "row": 7,
        }

    def test_sequence_numbers_monotonic(self):
        tr = Tracer()
        for _ in range(5):
            tr.event("tick")
        assert [r["seq"] for r in tr.records()] == list(range(5))

    def test_reserved_attribute_names_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="collide"):
            tr.event("bad", seq=1)
        with pytest.raises(ValueError, match="collide"):
            tr.span_open("bad", status="x")

    def test_counts_by_name(self):
        tr = Tracer()
        tr.event("a")
        tr.event("a")
        tr.event("b")
        assert tr.counts() == {"a": 2, "b": 1}


class TestSpans:
    def test_span_recorded_once_at_close(self):
        tr = Tracer(clock=_fake_clock([0.0, 0.1, 0.4]))
        sid = tr.span_open("conference.submit", t=1.0, cid=3)
        assert len(tr) == 0  # nothing recorded until close
        tr.span_close(sid, t=2.0, status="admitted", links=4)
        (rec,) = tr.records()
        assert rec["type"] == "span"
        assert (rec["t0"], rec["t1"]) == (1.0, 2.0)
        assert (rec["wall0"], rec["wall1"]) == (0.1, 0.4)
        assert rec["status"] == "admitted"
        assert (rec["cid"], rec["links"]) == (3, 4)

    def test_close_unknown_sid_is_ignored(self):
        tr = Tracer()
        tr.span_close(999)
        assert len(tr) == 0

    def test_span_context_manager_marks_errors(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("work"):
                raise RuntimeError("boom")
        (rec,) = tr.records()
        assert rec["status"] == "error"

    def test_flush_open_spans(self):
        tr = Tracer()
        tr.span_open("a", t=1.0)
        tr.span_open("b", t=2.0)
        assert tr.flush_open_spans(t=9.0) == 2
        assert [r["status"] for r in tr.records()] == ["open", "open"]
        assert [r["t1"] for r in tr.records()] == [9.0, 9.0]


class TestRingBuffer:
    def test_capacity_drops_oldest(self):
        tr = Tracer(capacity=3)
        for i in range(5):
            tr.event("e", i=i)
        assert tr.emitted == 5
        assert len(tr) == 3
        assert tr.truncated
        assert [r["i"] for r in tr.records()] == [2, 3, 4]

    def test_untruncated_flag(self):
        tr = Tracer(capacity=10)
        tr.event("e")
        assert not tr.truncated

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestExport:
    def test_write_jsonl_roundtrip(self, tmp_path):
        tr = Tracer()
        tr.event("fault.fail", t=1.0, point=(2, 7), dead={1, 5})
        sid = tr.span_open("conference.drop", t=1.0, cid=9)
        path = tmp_path / "trace.jsonl"
        n = tr.write_jsonl(str(path))
        assert n == 2  # open span flushed into the export
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["point"] == [2, 7]  # tuples serialize as lists
        assert records[0]["dead"] == [1, 5]  # sets serialize sorted
        assert records[1]["sid"] == sid
        assert records[1]["status"] == "open"

    def test_write_jsonl_to_file_object(self):
        tr = Tracer()
        tr.event("e")
        buf = io.StringIO()
        assert tr.write_jsonl(buf) == 1
        assert json.loads(buf.getvalue())["name"] == "e"
