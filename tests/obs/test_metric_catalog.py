"""The metric catalog in ``docs/observability.md`` names every family emitted.

Small runs of every emitting layer — a serve bench with faults, retry,
shedding, churn and protection; a buffered-capacity serve bench; a
cluster bench with a shard kill; and the experiment kernels and
``timed()`` functions under ``collecting()`` — record into registries.
The union of their families must equal the documented table: no
emitted name is missing from it and no documented name is stale.  Each
family's type and label names must match its row too.
"""

import re
from pathlib import Path

import pytest

from repro.analysis.worstcase import (
    exhaustive_max_multiplicity,
    matching_lower_bound,
    matching_stage_profile,
    randomized_search,
)
from repro.cluster.bench import run_cluster_bench
from repro.core.conference import Conference
from repro.core.healing import RetryPolicy
from repro.core.routing import route_conference
from repro.obs.metrics import MetricsRegistry, collecting
from repro.parallel.experiments import search_trials
from repro.serve.bench import run_serve_bench
from repro.sim.faults import FaultProcessConfig
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
ROW = re.compile(r"^\| `(repro_\w+)` \| (\w+) \| ([^|]*) \|", re.MULTILINE)


def _documented() -> dict[str, tuple[str, frozenset]]:
    catalog = {}
    for name, kind, labels in ROW.findall(DOC.read_text()):
        catalog[name] = (kind, frozenset(re.findall(r"`(\w+)`", labels)))
    return catalog


def _fold(registry, into) -> None:
    for metric in registry:
        kind, labels = into.setdefault(metric.name, (metric.kind, set()))
        for key in metric.labelsets():
            labels.update(label for label, _ in key)


@pytest.fixture(scope="module")
def emitted() -> dict[str, tuple[str, frozenset]]:
    families: dict = {}
    faults = FaultProcessConfig(mean_time_to_failure=100.0, mean_time_to_repair=5.0)
    registry = MetricsRegistry()
    run_serve_bench(
        16, dilation=2, conferences=40, seed=1, resize_prob=0.3, queue_capacity=4,
        max_batch=2, shed_policy="shed-largest", retry=RetryPolicy(max_retries=2),
        protection=1, fault_process=faults, metrics=registry,
    )
    _fold(registry, families)
    registry = MetricsRegistry()
    run_serve_bench(16, conferences=30, seed=1, capacity_model="buffered", metrics=registry)
    _fold(registry, families)
    registry = MetricsRegistry()
    run_cluster_bench(ports=16, shards=3, conferences=40, seed=1, kill_shard_at=8, metrics=registry)
    _fold(registry, families)
    with collecting() as registry:
        net = build("indirect-binary-cube", 16)
        search_trials("indirect-binary-cube", 16, trials=4, pool_size=6, seed=0)
        randomized_search(net, trials=2, pool_size=4, seed=0)
        exhaustive_max_multiplicity(build("indirect-binary-cube", 4))
        matching_lower_bound(build("indirect-binary-cube", 8))
        matching_stage_profile(build("indirect-binary-cube", 8))
        route_conference(net, Conference.of([0, 5]))
    _fold(registry, families)
    return {name: (kind, frozenset(labels)) for name, (kind, labels) in families.items()}


def test_catalog_lists_exactly_the_emitted_families(emitted):
    documented = _documented()
    missing = sorted(set(emitted) - set(documented))
    stale = sorted(set(documented) - set(emitted))
    assert not missing, f"emitted but not in the catalog: {missing}"
    assert not stale, f"in the catalog but never emitted: {stale}"


def test_catalog_types_and_labels_match(emitted):
    documented = _documented()
    for name, row in emitted.items():
        assert documented.get(name) == row, name
