"""One routing engine: no production path reaches the reference walk.

``repro.core.reference`` holds the sequential per-point walk as the
differential tests' oracle.  Two checks keep it out of the library:
no module under ``src/repro`` other than the reference module itself
imports it or defines its functions (a static AST scan), and with every
function of the module patched to raise, the serve bench, the cluster
bench, W1's churn workloads (pinned extends included), a
``prune=True`` batch, ``route_group`` and E3's group-traffic trial all
still run.  Group connections have no sweep of their own either:
``groupcast.py`` reads neither routing table.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.core import reference
from repro.core.batch import route_batch
from repro.core.conference import Conference
from repro.core.groupcast import GroupConnection, route_group
from repro.core.healing import RetryPolicy
from repro.core.routing import RoutingPolicy
from repro.cluster.bench import run_cluster_bench
from repro.parallel.experiments import group_traffic_trial
from repro.serve.bench import run_serve_bench
from repro.sim.faults import FaultProcessConfig
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
REFERENCE = PACKAGE / "core" / "reference.py"
WALK = {
    name
    for name, value in vars(reference).items()
    if inspect.isfunction(value) and value.__module__ == reference.__name__
}


def _imports_reference(tree: ast.AST) -> "list[int]":
    """Line numbers of every import that names ``repro.core.reference``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: only ``core`` siblings can reach it
                base = "repro.core." + base if base else "repro.core"
            names = [f"{base}.{alias.name}" for alias in node.names] + [base]
        else:
            continue
        if any(n == "repro.core.reference" or n.startswith("repro.core.reference.") for n in names):
            lines.append(node.lineno)
    return lines


def test_walk_functions_are_known():
    assert {"route_conference_sequential", "_forward_masks", "_select_taps",
            "_backward_mark"} <= WALK


def test_no_package_module_imports_or_defines_the_walk():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == REFERENCE:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(REPO)
        offenders += [f"{rel}:{line} imports the reference" for line in _imports_reference(tree)]
        offenders += [
            f"{rel}:{node.lineno} defines {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in WALK
        ]
    assert offenders == []


def test_groupcast_reads_no_routing_table():
    tree = ast.parse((PACKAGE / "core" / "groupcast.py").read_text())
    tables = {"successor_table", "predecessor_table"}
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in tables)
        or (isinstance(node, ast.Name) and node.id in tables)
    ]
    assert reads == []


def test_the_scan_sees_every_import_spelling():
    for source in (
        "import repro.core.reference",
        "from repro.core.reference import route_conference_sequential",
        "from repro.core import reference",
        "from . import reference",
        "from .reference import _forward_masks",
    ):
        assert _imports_reference(ast.parse(source)), source
    assert not _imports_reference(ast.parse("from repro.core import routing"))


@pytest.fixture
def walk_raises(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the reference walk ran on a production path")

    for name in WALK:
        monkeypatch.setattr(reference, name, forbidden)
    with pytest.raises(AssertionError):
        reference.route_conference_sequential(build("omega", 16), Conference.of([0, 1]))


FAULTS = FaultProcessConfig(mean_time_to_failure=300.0, mean_time_to_repair=4.0)


def test_serve_bench_runs_without_the_walk(walk_raises):
    report = run_serve_bench(
        16, conferences=60, seed=3, resize_prob=0.3, protection=2,
        retry=RetryPolicy(max_retries=4, base_delay=1.0), fault_process=FAULTS,
    )
    assert report.ok, report.reason
    assert report.fault_transitions > 0


def test_cluster_bench_runs_without_the_walk(walk_raises):
    report = run_cluster_bench(
        ports=16, shards=2, conferences=60, seed=9, resize_prob=0.3,
        protection=1, fault_process=FAULTS,
    )
    assert report.ok, report.reason


def test_w1_churn_workloads_run_without_the_walk(walk_raises, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "benchmarks"))
    w1 = importlib.import_module("bench_w1_churn")
    monkeypatch.setattr(w1, "CONFERENCES", 6)
    monkeypatch.setattr(w1, "CHURN_OPS", 3)
    assert w1.zipf_churn_ops()
    scenarios = w1.drift_scenarios(max_scenarios=3)
    # Pins bound on these healed routes: the pinned kernel call ran.
    assert any(row["unlimited_max_drift"] > 0 for row in scenarios)
    assert w1.flash_crowd_drill(n_ports=16)["lost_sessions"] == 0


def test_prune_batch_runs_without_the_walk(walk_raises):
    net = build("indirect-binary-cube", 16)
    batch = [Conference.of([0, 3, 5, 9], 0), Conference.of([1, 2, 12], 1)]
    outcomes = route_batch(net, batch, RoutingPolicy(prune=True))
    assert all(outcome.ok for outcome in outcomes)


def test_group_routing_runs_without_the_walk(walk_raises):
    net = build("omega", 16)
    route = route_group(net, GroupConnection((0, 5), (3, 5, 12)), earliest_taps=False)
    assert set(route.taps) == {3, 5, 12}
    record = group_traffic_trial(
        0, 7000, {"topology": "indirect-binary-cube", "n_ports": 16, "group_size": 4, "n_groups": 4}
    )
    assert record["multicast"]["mean_links"] < record["conference"]["mean_links"]
