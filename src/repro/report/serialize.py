"""JSON serialization of conference-network objects.

Experiments and operational tools need to persist and exchange
conference sets, routes and conflict reports.  The format is plain
JSON with a ``kind`` discriminator and a schema version, so files stay
readable by humans and future versions.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.core.conference import Conference, ConferenceSet
from repro.core.conflict import ConflictReport
from repro.core.routing import Route

__all__ = [
    "conference_set_to_dict",
    "conference_set_from_dict",
    "result_to_dict",
    "route_to_dict",
    "conflict_report_to_dict",
    "save_json",
    "load_conference_set",
]

SCHEMA_VERSION = 1


def _jsonify(value: Any, path: str) -> Any:
    """Coerce a result payload field to a JSON-ready value.

    Nested result objects serialize through their own ``as_dict`` and
    enums through their values; anything else non-JSON raises with the
    dotted path of the offending field, so a bad report fails loudly at
    serialization time instead of deep inside ``json.dumps``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return _jsonify(value.value, path)
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, (set, frozenset)):
        return [_jsonify(v, f"{path}[{i}]") for i, v in enumerate(sorted(value, key=repr))]
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return _jsonify(as_dict(), path)
    raise TypeError(
        f"result field {path} is not JSON-serializable "
        f"(got {type(value).__name__})"
    )


def result_to_dict(result: Any) -> dict[str, Any]:
    """Serialize any :data:`repro.api.Result` conformer, uniformly.

    The one place operation verdicts become JSON: realization results,
    service responses, and bench reports all
    pass through here (the CLI's ``--json`` paths use this), so every
    verdict carries the same envelope — ``kind`` discriminator, schema
    version, ``ok``, and ``reason``.  Nested payload objects with their
    own ``as_dict`` serialize recursively; a field that cannot become
    JSON raises :class:`TypeError` naming its dotted path.
    """
    for attr in ("ok", "reason", "as_dict"):
        if not hasattr(result, attr):
            raise TypeError(
                f"{type(result).__name__} does not satisfy the result contract "
                f"(missing {attr!r})"
            )
    payload = result.as_dict()
    payload.setdefault("kind", type(result).__name__)
    payload.setdefault("ok", bool(result.ok))
    payload.setdefault("reason", result.reason)
    payload["schema"] = SCHEMA_VERSION
    return _jsonify(payload, payload["kind"])


def conference_set_to_dict(cs: ConferenceSet) -> dict[str, Any]:
    """A JSON-ready description of a conference set."""
    return {
        "kind": "conference_set",
        "schema": SCHEMA_VERSION,
        "n_ports": cs.n_ports,
        "conferences": [
            {"id": c.conference_id, "members": list(c.members)} for c in cs
        ],
    }


def conference_set_from_dict(data: dict[str, Any]) -> ConferenceSet:
    """Rebuild a conference set; validates kind, schema and disjointness."""
    if data.get("kind") != "conference_set":
        raise ValueError(f"expected kind 'conference_set', got {data.get('kind')!r}")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data.get('schema')!r}")
    confs = tuple(
        Conference.of(entry["members"], conference_id=entry["id"])
        for entry in data["conferences"]
    )
    return ConferenceSet(n_ports=data["n_ports"], conferences=confs)


def route_to_dict(route: Route) -> dict[str, Any]:
    """A JSON-ready description of a computed route.

    Levels serialize as ``[[row, mask], ...]`` per level so the carried
    combinations stay inspectable.
    """
    return {
        "kind": "route",
        "schema": SCHEMA_VERSION,
        "conference": {
            "id": route.conference.conference_id,
            "members": list(route.conference.members),
        },
        "n_ports": route.n_ports,
        "n_stages": route.n_stages,
        "taps": {str(port): level for port, level in sorted(route.taps.items())},
        "levels": [
            sorted([row, mask] for row, mask in rows.items()) for rows in route.levels
        ],
        "links": sorted(list(link) for link in route.links),
    }


def conflict_report_to_dict(report: ConflictReport) -> dict[str, Any]:
    """A JSON-ready description of a conflict report."""
    return {
        "kind": "conflict_report",
        "schema": SCHEMA_VERSION,
        "n_conferences": report.n_conferences,
        "max_multiplicity": report.max_multiplicity,
        "worst_link": list(report.worst_link) if report.worst_link else None,
        "stage_profile": list(report.stage_profile),
        "load_histogram": [list(pair) for pair in report.load_histogram],
        "conflict_free": report.conflict_free,
    }


def save_json(path: "str | Path", payload: dict[str, Any]) -> Path:
    """Write a serialized object to disk (pretty-printed, stable keys)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_conference_set(path: "str | Path") -> ConferenceSet:
    """Read a conference set saved by :func:`save_json`."""
    data = json.loads(Path(path).read_text())
    return conference_set_from_dict(data)
