#!/usr/bin/env python
"""Fail when the public API surface drifts from its reviewed records.

Checks, in order:

1. ``repro.api.__all__`` matches ``tests/api/public_api_manifest.txt``
   exactly (sorted, no duplicates, every name importable).
2. Every surface name resolves identically through ``repro`` and
   ``repro.api`` (the facade really is the route).
3. ``docs/api.md`` mentions every surface name in backticks.
4. ``docs/api.md`` states the current version ("currently **X**") as
   ``api.API_VERSION``, and ``repro.__version__`` is a release of that
   API (it starts with ``API_VERSION + "."``).
5. ``pyproject.toml``'s ``[project] version`` equals
   ``repro.__version__`` (read with a regex: no TOML parser on 3.10).

Run from the repository root::

    PYTHONPATH=src python tools/check_public_api.py

CI's ``public-api`` job runs this plus ``tests/api``; together they make
surface changes fail loudly unless the manifest and docs move in the
same commit.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MANIFEST = REPO / "tests" / "api" / "public_api_manifest.txt"
DOCS = REPO / "docs" / "api.md"
PYPROJECT = REPO / "pyproject.toml"


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    import repro
    from repro import api

    failures: list[str] = []

    recorded = MANIFEST.read_text().split()
    current = sorted(api.__all__)
    if len(api.__all__) != len(set(api.__all__)):
        failures.append("repro.api.__all__ contains duplicates")
    if current != recorded:
        added = sorted(set(current) - set(recorded))
        removed = sorted(set(recorded) - set(current))
        failures.append(
            "repro.api.__all__ drifted from tests/api/public_api_manifest.txt"
            + (f" (added: {added})" if added else "")
            + (f" (removed: {removed})" if removed else "")
            + "; regenerate the manifest and update docs/api.md"
        )

    for name in current:
        try:
            via_api = getattr(api, name)
            via_pkg = getattr(repro, name)
        except AttributeError as exc:
            failures.append(f"surface name {name!r} does not resolve: {exc}")
            continue
        if via_api is not via_pkg:
            failures.append(
                f"'from repro import {name}' does not route through repro.api"
            )

    docs = DOCS.read_text() if DOCS.exists() else ""
    if not docs:
        failures.append("docs/api.md is missing")
    else:
        missing = [name for name in current if f"`{name}`" not in docs]
        if missing:
            failures.append(f"docs/api.md does not mention: {missing}")
        stated = re.search(r"currently \*\*([^*]+)\*\*", docs)
        if stated is None or stated[1] != api.API_VERSION:
            failures.append(
                f"docs/api.md states API {stated[1] if stated else 'no version'}, "
                f"not {api.API_VERSION}"
            )
    if not repro.__version__.startswith(api.API_VERSION + "."):
        failures.append(
            f"repro.__version__ {repro.__version__} is not a release of API {api.API_VERSION}"
        )
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", PYPROJECT.read_text(), re.M | re.S)
    declared = project and re.search(r'^version\s*=\s*"([^"]*)"', project[1], re.M)
    if not declared or declared[1] != repro.__version__:
        failures.append(
            f"pyproject.toml declares version {declared[1] if declared else 'none'}, "
            f"not repro.__version__ {repro.__version__}"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"public API surface OK ({len(current)} names, API {api.API_VERSION})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
