"""Golden snapshots of the command-line surface.

For every subcommand the parsed defaults (``vars(parse_args(...))`` with
only the required flags given) and the ``--help`` text at 100 columns
are pinned, so a refactor of how flags are registered shows up here as
a reviewable diff instead of a silently moved default or reworded help.
"""

import contextlib
import io

import pytest

from repro.cli import build_parser

pytestmark = pytest.mark.tier1

# Each subcommand with the flags it cannot parse without.
REQUIRED = {
    "show": [],
    "route": ["--conference", "0,1"],
    "worstcase": [],
    "cost": [],
    "blocking": [],
    "schedule": [],
    "faults": [],
    "availability": [],
    "sweep": [],
    "trace": [],
    "serve": [],
    "bench-serve": [],
    "cluster": [],
    "bench-cluster": [],
    "slo": [],
}


def _help(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--help"])
    return out.getvalue()


def test_every_subcommand_is_pinned():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(REQUIRED)


def test_top_level_help(golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    golden("cli_help", _help([]))


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_subcommand_surface(golden, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "100")
    argv = [command, *REQUIRED[command]]
    golden(f"cli_{command}", {
        "defaults": vars(build_parser().parse_args(argv)),
        "help": _help([command]),
    })
