"""JSON serialization of operation verdicts.

The CLI's ``--json`` outputs persist every :data:`repro.api.Result`
through :func:`result_to_dict`.  The format is plain JSON with a
``kind`` discriminator and a schema version, so files stay readable by
humans and future versions.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

__all__ = ["result_to_dict", "save_json"]

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


def save_json(path: "str | Path", payload: dict[str, Any]) -> Path:
    """Write a serialized object to disk (pretty-printed, stable keys)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
