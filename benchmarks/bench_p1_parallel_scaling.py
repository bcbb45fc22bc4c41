"""P1 — parallel engine scaling on the F1 random-load sweep.

Times one fixed F1 workload (random uniform-partition load on the
extra-stage cube) through the serial engine and through process pools
of width 2 and 4, asserting along the way that every configuration
produces byte-identical records — wall clock may move, results may not.

Speedup on a laptop is an artifact of core count, so the ``>= 2x at 4
workers`` acceptance target is asserted only when the host actually
exposes 4+ cores; either way the measured numbers, the core count and
the verdict are recorded in ``benchmarks/results/p1_parallel_scaling.*``
and the repo-root ``BENCH_p1.json`` so the claim is auditable.

Run directly (``python benchmarks/bench_p1_parallel_scaling.py``) or
via pytest.
"""

import json
import os
import time
from pathlib import Path

from _common import emit

from repro.parallel.cache import shared_network
from repro.parallel.experiments import random_load_arm

N_PORTS = 32
TRIALS = 120
SEED = 2026
TOPOLOGY = "extra-stage-cube"
SPEEDUP_TARGET = 2.0
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_p1.json"


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _run(workers):
    # Each configuration pays its own warmup: parent-side registries
    # would otherwise be inherited by forked workers and by the serial
    # run, whichever goes second.
    shared_network.cache_clear()
    start = time.perf_counter()
    arm = random_load_arm(TOPOLOGY, N_PORTS, trials=TRIALS, seed=SEED, workers=workers)
    return time.perf_counter() - start, arm


def build_rows():
    cpus = _cpu_count()
    timings = {}
    arms = {}
    for workers in (None, 2, 4):
        timings[workers], arms[workers] = _run(workers)

    # The determinism contract, asserted on the timed runs themselves.
    for workers in (2, 4):
        assert arms[workers] == arms[None], f"workers={workers} diverged from serial"

    rows = []
    for workers in (None, 2, 4):
        rows.append(
            {
                "engine": "serial" if workers is None else f"pool-{workers}",
                "wall_s": round(timings[workers], 3),
                "speedup": round(timings[None] / timings[workers], 2),
                "trials": TRIALS,
                "cpus": cpus,
            }
        )
    return rows, timings, arms[None]["summary"], cpus


def write_artifacts():
    rows, timings, summary, cpus = build_rows()
    emit(
        "p1_parallel_scaling",
        rows,
        title=f"P1: serial vs pooled F1 random-load sweep ({TOPOLOGY}, "
        f"N={N_PORTS}, {TRIALS} trials, {cpus} cpu(s))",
    )
    speedup4 = timings[None] / timings[4]
    can_judge = cpus >= 4
    payload = {
        "experiment": "p1_parallel_scaling",
        "workload": {
            "topology": TOPOLOGY,
            "n_ports": N_PORTS,
            "trials": TRIALS,
            "seed": SEED,
            "summary": summary,
        },
        "cpus": cpus,
        "wall_seconds": {
            "serial": timings[None],
            "pool_2": timings[2],
            "pool_4": timings[4],
        },
        "speedup": {
            "pool_2": timings[None] / timings[2],
            "pool_4": speedup4,
        },
        "target_speedup_at_4_workers": SPEEDUP_TARGET,
        "meets_target": speedup4 >= SPEEDUP_TARGET if can_judge else None,
        "deterministic": True,
        "note": (
            "target judged on this host"
            if can_judge
            else f"host exposes {cpus} cpu(s); the >=2x-at-4-workers target "
            "needs 4+ cores, so it is recorded but not judged here "
            "(determinism is asserted regardless)"
        ),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if can_judge:
        assert speedup4 >= SPEEDUP_TARGET, (
            f"pool-4 speedup {speedup4:.2f}x below the {SPEEDUP_TARGET}x target "
            f"on a {cpus}-cpu host"
        )
    return payload


def test_p1_parallel_scaling(benchmark):
    benchmark(lambda: random_load_arm(TOPOLOGY, 16, trials=20, seed=SEED))
    write_artifacts()


if __name__ == "__main__":
    payload = write_artifacts()
    print(json.dumps(payload, indent=2, sort_keys=True))
