"""Tests for JSON serialization."""

import json

import pytest

from repro.report.serialize import SCHEMA_VERSION, result_to_dict, save_json
from repro.workloads.generators import uniform_partition


class TestConferenceSetRoundTrip:
    def test_file_round_trip(self, tmp_path):
        """``save_json`` writes a conference set's members that read back equal."""
        cs = uniform_partition(16, load=0.5, seed=3)
        payload = {"n_ports": cs.n_ports, "conferences": [list(c.members) for c in cs]}
        path = save_json(tmp_path / "sets" / "cs.json", payload)
        assert path.read_text().endswith("\n")
        back = json.loads(path.read_text())
        assert [tuple(m) for m in back["conferences"]] == [c.members for c in cs]


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
