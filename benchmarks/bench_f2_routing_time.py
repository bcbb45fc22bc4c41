"""Experiment F2 — routing setup time vs network size, per strategy.

The abstract's "simpler self-routing algorithm" claim, measured two
ways: the sequential per-object walk (``route_conference_sequential``
of ``repro.core.reference``, one conference at a time through
per-member dict sweeps) and the
bit-sliced kernel behind ``route_batch``, over the same seeded
conference batches.  Every timed cell first asserts byte-identity of
the two strategies' outputs (``repr`` for ``repr``) — the speedup is
only worth reporting because the results are indistinguishable.

Per-cell and aggregate routes/sec land in
``benchmarks/results/f2_routing_time.*`` and the repo-root
``BENCH_f2.json`` so the headline claim (the batch kernel routes the
whole F2 sweep >= 10x faster than the sequential loop) is auditable.
The in-test acceptance bound is deliberately looser (shared CI
machines jitter); the checked-in artifact records the measured ratio.

Run directly (``python benchmarks/bench_f2_routing_time.py``) or via
pytest.
"""

import json
import time
from pathlib import Path

import pytest
from _common import emit

from repro.core.batch import BatchRouteOutcome, route_batch
from repro.core.conference import Conference
from repro.core.reference import route_conference_sequential
from repro.topology.builders import PAPER_TOPOLOGIES, build
from repro.util.rng import ensure_rng

SIZES = (16, 64, 256, 1024)
BATCH = 256
SEED = 42
#: Headline target recorded in the artifact; the test asserts a looser
#: floor so machine jitter cannot fail CI.
SPEEDUP_TARGET = 10.0
SPEEDUP_FLOOR = 3.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_f2.json"


def sample_conferences(n_ports, count, seed=SEED):
    rng = ensure_rng(seed)
    confs = []
    for cid in range(count):
        size = 2 + int(rng.poisson(2.0))
        members = rng.choice(n_ports, size=min(size, n_ports), replace=False)
        confs.append(Conference.of((int(m) for m in members), cid))
    return confs


def route_sequential(net, confs):
    """The pre-batch baseline: one sequential walk per conference.

    Not ``route_conference``: that is the kernel as a batch of one, so
    holding the kernel against it would compare the kernel with itself.
    """
    outcomes = []
    for conf in confs:
        try:
            outcomes.append(
                BatchRouteOutcome(conf, route_conference_sequential(net, conf), None)
            )
        except ValueError as exc:
            outcomes.append(BatchRouteOutcome(conf, None, exc))
    return outcomes


def _cells():
    for name in sorted(PAPER_TOPOLOGIES):
        for n_ports in SIZES:
            yield name, n_ports


STRATEGIES = {
    "sequential": route_sequential,
    "bitset": route_batch,
}


def _time_strategy(net, confs, strategy, reps):
    best = float("inf")
    outcomes = None
    for _ in range(reps):
        t0 = time.perf_counter()
        outcomes = STRATEGIES[strategy](net, confs)
        best = min(best, time.perf_counter() - t0)
    return best, outcomes


def build_rows():
    rows = []
    total = {"sequential": 0.0, "bitset": 0.0}
    for name, n_ports in _cells():
        net = build(name, n_ports)
        confs = sample_conferences(n_ports, BATCH)
        net.successor_table  # warm the cached wiring tables
        net.predecessor_table
        reps = 3 if n_ports <= 256 else 2
        wall = {}
        results = {}
        for strategy in ("sequential", "bitset"):
            wall[strategy], results[strategy] = _time_strategy(
                net, confs, strategy, reps
            )
            total[strategy] += wall[strategy]
        # Identity first, speed second: a fast wrong kernel is worthless.
        assert len(results["bitset"]) == len(results["sequential"]) == BATCH
        for got, want in zip(results["bitset"], results["sequential"]):
            assert got.ok == want.ok
            if got.ok:
                assert repr(got.route) == repr(want.route)
            else:
                assert got.error.args == want.error.args
        rows.append(
            {
                "topology": name,
                "N": n_ports,
                "batch": BATCH,
                "sequential_us_per_conf": round(wall["sequential"] / BATCH * 1e6, 2),
                "bitset_us_per_conf": round(wall["bitset"] / BATCH * 1e6, 2),
                "bitset_routes_per_s": round(BATCH / wall["bitset"]),
                "speedup": round(wall["sequential"] / wall["bitset"], 2),
            }
        )
    return rows, total


def write_artifacts():
    rows, total = build_rows()
    aggregate = total["sequential"] / total["bitset"]
    emit(
        "f2_routing_time",
        rows,
        title=f"F2: routing time per conference, sequential loop vs bitset kernel "
        f"(batches of {BATCH}; aggregate speedup {aggregate:.1f}x)",
    )
    payload = {
        "experiment": "f2_routing_time",
        "workload": {
            "topologies": sorted(PAPER_TOPOLOGIES),
            "sizes": list(SIZES),
            "batch": BATCH,
            "seed": SEED,
        },
        "cells": rows,
        "wall_seconds": {
            "sequential": total["sequential"],
            "bitset": total["bitset"],
        },
        "aggregate_speedup": aggregate,
        "target_speedup": SPEEDUP_TARGET,
        "meets_target": aggregate >= SPEEDUP_TARGET,
        "byte_identical": True,
        "note": (
            "aggregate = total sequential wall over total bitset wall for "
            "the whole sweep; byte-identity of every cell's outcomes is "
            "asserted before timing counts"
        ),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert aggregate >= SPEEDUP_FLOOR, (
        f"bitset kernel only {aggregate:.1f}x over the sequential loop — "
        f"below the {SPEEDUP_FLOOR}x floor (target {SPEEDUP_TARGET}x)"
    )
    return payload


@pytest.mark.parametrize("n_ports", SIZES)
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_f2_routing_time(benchmark, strategy, n_ports):
    net = build("indirect-binary-cube", n_ports)
    confs = sample_conferences(n_ports, 32)
    net.successor_table
    net.predecessor_table
    benchmark(lambda: STRATEGIES[strategy](net, confs))


def test_f2_summary_table(benchmark):
    """Times the full sweep and writes the F2 artifacts."""
    benchmark(lambda: None)
    payload = write_artifacts()
    # Cost is driven by route volume, not port count: per-conference
    # time from N=16 to N=1024 grows far slower than the 64x port ratio.
    by = {
        (r["topology"], r["N"]): r["sequential_us_per_conf"]
        for r in payload["cells"]
    }
    for name in PAPER_TOPOLOGIES:
        assert by[(name, 1024)] / by[(name, 16)] < 64


if __name__ == "__main__":
    print(json.dumps(write_artifacts(), indent=2, sort_keys=True))
