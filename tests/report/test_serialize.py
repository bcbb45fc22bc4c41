"""Tests for JSON serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import analyze_conflicts
from repro.core.routing import route_conference
from repro.report.serialize import (
    SCHEMA_VERSION,
    conference_set_from_dict,
    conference_set_to_dict,
    conflict_report_to_dict,
    load_conference_set,
    result_to_dict,
    route_to_dict,
    save_json,
)
from repro.topology.builders import build
from repro.workloads.generators import uniform_partition


class TestConferenceSetRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_round_trip_preserves_everything(self, seed):
        cs = uniform_partition(32, load=0.7, seed=seed)
        back = conference_set_from_dict(conference_set_to_dict(cs))
        assert back.n_ports == cs.n_ports
        assert [c.members for c in back] == [c.members for c in cs]
        assert [c.conference_id for c in back] == [c.conference_id for c in cs]

    def test_kind_and_schema_checked(self):
        with pytest.raises(ValueError, match="kind"):
            conference_set_from_dict({"kind": "route"})
        with pytest.raises(ValueError, match="schema"):
            conference_set_from_dict({"kind": "conference_set", "schema": 99})

    def test_disjointness_revalidated_on_load(self):
        data = {
            "kind": "conference_set",
            "schema": 1,
            "n_ports": 8,
            "conferences": [
                {"id": 0, "members": [0, 1]},
                {"id": 1, "members": [1, 2]},
            ],
        }
        with pytest.raises(ValueError, match="overlaps"):
            conference_set_from_dict(data)

    def test_file_round_trip(self, tmp_path):
        cs = uniform_partition(16, load=0.5, seed=3)
        path = save_json(tmp_path / "sets" / "cs.json", conference_set_to_dict(cs))
        back = load_conference_set(path)
        assert [c.members for c in back] == [c.members for c in cs]


class _FakeResult:
    """Minimal result-contract conformer for edge-case tests."""

    def __init__(self, payload, ok=True, reason=None):
        self._payload = payload
        self.ok = ok
        self.reason = reason

    def as_dict(self):
        return dict(self._payload)


class _Nested:
    """A payload object serializable only through its own as_dict."""

    def __init__(self, value):
        self.value = value

    def as_dict(self):
        return {"kind": "nested", "value": self.value}


class TestResultToDict:
    def test_unknown_result_types_rejected(self):
        with pytest.raises(TypeError, match="result contract"):
            result_to_dict(object())
        with pytest.raises(TypeError, match="as_dict"):
            # ok/reason alone do not make a result
            result_to_dict(type("Half", (), {"ok": True, "reason": None})())

    def test_envelope_defaults(self):
        data = result_to_dict(_FakeResult({"x": 1}, ok=False, reason="ports"))
        assert data["kind"] == "_FakeResult"
        assert data["ok"] is False
        assert data["reason"] == "ports"
        assert data["schema"] == SCHEMA_VERSION

    def test_explicit_kind_wins_over_type_name(self):
        data = result_to_dict(_FakeResult({"kind": "custom", "x": 1}))
        assert data["kind"] == "custom"

    def test_nested_as_dict_payloads_serialize_recursively(self):
        data = result_to_dict(
            _FakeResult({"inner": _Nested(3), "items": [_Nested(4), 5]})
        )
        json.dumps(data)  # fully JSON-ready, no custom encoder needed
        assert data["inner"] == {"kind": "nested", "value": 3}
        assert data["items"] == [{"kind": "nested", "value": 4}, 5]

    def test_containers_normalized(self):
        data = result_to_dict(
            _FakeResult({"t": (1, 2), "s": {2, 1}, "m": {3: "x"}})
        )
        json.dumps(data)
        assert data["t"] == [1, 2]
        assert data["s"] == [1, 2]
        assert data["m"] == {"3": "x"}  # JSON keys are strings

    def test_non_serializable_field_rejected_with_path(self):
        with pytest.raises(TypeError, match=r"_FakeResult\.deep\.hole"):
            result_to_dict(_FakeResult({"deep": {"hole": object()}}))
        with pytest.raises(TypeError, match=r"_FakeResult\.row\[1\]"):
            result_to_dict(_FakeResult({"row": [1, object()]}))

    def test_real_verdicts_pass_through(self):
        from repro.serve.protocol import ServiceResponse

        data = result_to_dict(
            ServiceResponse(ok=False, status="rejected", kind="open", request_id=3, reason="capacity")
        )
        json.dumps(data)
        assert data["ok"] is False and data["schema"] == SCHEMA_VERSION


class TestRouteAndReportDicts:
    def test_route_dict_is_json_safe_and_faithful(self):
        net = build("omega", 16)
        from repro.core.conference import Conference

        route = route_conference(net, Conference.of([0, 5, 9], conference_id=7))
        data = route_to_dict(route)
        json.dumps(data)  # must not raise
        assert data["conference"]["id"] == 7
        assert data["taps"] == {str(p): t for p, t in route.taps.items()}
        assert {tuple(link) for link in data["links"]} == set(route.links)

    def test_conflict_report_dict(self):
        net = build("indirect-binary-cube", 8)
        from repro.core.conference import Conference

        routes = [
            route_conference(net, Conference.of(m, i))
            for i, m in enumerate([(0, 3), (1, 2)])
        ]
        report = analyze_conflicts(routes)
        data = conflict_report_to_dict(report)
        json.dumps(data)
        assert data["max_multiplicity"] == 2
        assert data["conflict_free"] is False
        assert data["worst_link"] == list(report.worst_link)
