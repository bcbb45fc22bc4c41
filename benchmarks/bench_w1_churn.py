"""Experiment W1 — incremental membership churn vs full reroute.

Three measurements back the churn-native membership API:

* **Zipf churn sweep** — conferences with heavy-tailed (Zipf) sizes
  absorb a stream of single-port joins and leaves.  Each operation is
  costed twice from the same before-route: the incremental engine
  touches only its ``links_added + links_removed`` diff, while a full
  reroute reinstalls the whole route (``|before ∪ after|`` links).  The
  headline acceptance: incremental reconfigures **strictly fewer links
  at p50**, with the hitless (no-tap-moved) rate reported alongside.
* **Drift accrual** — a route healed around a since-repaired fault
  carries tap pins; extending it incrementally preserves them, and the
  conflict-multiplicity drift (extra links vs a from-scratch route) is
  measured per accreted member, without a limit and with
  ``drift_limit=0`` (every drifting extend falls back to a full
  reroute, resetting the pins).
* **Flash-crowd drill** — the service-level sanity check the CI job
  replays: a flash crowd floods one venue conference while a fault
  timeline fires underneath; zero sessions may be lost.

Aggregates land in ``benchmarks/results/w1_churn.*`` and the repo-root
``BENCH_w1.json``.  Run directly (``python benchmarks/bench_w1_churn.py``)
or via pytest.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from _common import emit

from repro.core.churn import extend_route, prune_route
from repro.core.conference import Conference
from repro.core.healing import RetryPolicy
from repro.core.network import ConferenceNetwork
from repro.core.routing import UnroutableError, route_conference
from repro.serve.service import FabricService
from repro.sim.faults import FaultProcessConfig, generate_fault_timeline
from repro.topology.builders import build
from repro.util.rng import ensure_rng
from repro.workloads.churn import flash_crowd, replay_churn, zipf_sizes

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_w1.json"

TOPOLOGY = "indirect-binary-cube"
N_PORTS = 64
CONFERENCES = 48
CHURN_OPS = 8  # join/leave pairs per conference
SEED = 11


def zipf_churn_ops(seed=SEED):
    """Yield per-operation cost records for the Zipf churn sweep.

    Each conference routes once, then alternates single-port joins and
    leaves; every operation records the incremental diff cost and the
    wholesale-reinstall cost of the identical membership change.
    """
    net = build(TOPOLOGY, N_PORTS)
    rng = ensure_rng(seed)
    sizes = zipf_sizes(CONFERENCES, alpha=1.8, min_size=2, max_size=16, seed=rng.spawn(1)[0])
    ops = []
    for cid, size in enumerate(sizes):
        members = sorted(int(p) for p in rng.choice(N_PORTS, size=size, replace=False))
        route = route_conference(net, Conference.of(members, cid))
        for _ in range(CHURN_OPS):
            outside = sorted(set(range(N_PORTS)) - set(route.conference.members))
            if not outside:
                break
            port = outside[int(rng.integers(len(outside)))]
            for kind, fn, target in (
                ("join", extend_route, port),
                ("leave", prune_route, port),
            ):
                before = route
                churn = fn(net, before, target)
                route = churn.after
                ops.append(
                    {
                        "kind": kind,
                        "incremental": churn.links_touched,
                        "full": len(before.links | churn.after.links),
                        "hitless": churn.hitless,
                        "taps_moved": len(churn.taps_moved),
                        "drift": churn.drift_links,
                    }
                )
    return ops


def drift_scenarios(n_ports=16, max_scenarios=12, lurkers=4, seed=SEED):
    """Accrete lurkers onto fault-healed omega routes, with/without limit.

    A single link fault that survives rerouting leaves the healed route
    with non-natural taps; once the fault repairs, incremental extends
    pin those taps and drift (extra links vs from-scratch) can accrue.
    Returns per-scenario records for both arms.
    """
    net = build("omega", n_ports)
    rng = ensure_rng(seed)
    scenarios = []
    attempts = 0
    while len(scenarios) < max_scenarios and attempts < 400:
        attempts += 1
        members = sorted(int(p) for p in rng.choice(n_ports, size=3, replace=False))
        conf = Conference.of(members, attempts)
        healthy = route_conference(net, conf)
        healed = None
        for fault in sorted(healthy.links):
            try:
                candidate = route_conference(net, conf, faults=frozenset({fault}))
            except UnroutableError:
                continue
            if candidate.taps != healthy.taps:
                healed = candidate
                break
        if healed is None:
            continue
        outside = sorted(set(range(n_ports)) - set(members))
        joins = [outside[int(i)] for i in rng.choice(len(outside), size=lurkers, replace=False)]
        row = {"members": tuple(members), "fault_healed": True}
        for label, kwargs in (("unlimited", {}), ("limit0", {"drift_limit": 0})):
            route, drifts, fallbacks = healed, [], 0
            for port in joins:
                churn = extend_route(net, route, port, **kwargs)
                route = churn.after
                drifts.append(churn.drift_links)
                if churn.mode == "full-reroute":
                    fallbacks += 1
            row[f"{label}_max_drift"] = max(drifts)
            row[f"{label}_final_drift"] = drifts[-1]
            row[f"{label}_fallbacks"] = fallbacks
        scenarios.append(row)
    return scenarios


def flash_crowd_drill(n_ports=32, fault_seed=0):
    """Replay a flash crowd over a live fault timeline; nothing may be lost."""
    network = ConferenceNetwork.build(TOPOLOGY, n_ports, dilation=n_ports)
    service = FabricService(network, retry=RetryPolicy(max_retries=8, base_delay=1.0))
    timeline = generate_fault_timeline(
        network.topology,
        FaultProcessConfig(mean_time_to_failure=2000.0, mean_time_to_repair=2.0),
        40.0,
        seed=ensure_rng(fault_seed),
    )
    injector = service.attach_faults(timeline)
    events = flash_crowd(n_ports, crowd=n_ports // 4, burst_start=4, burst_ticks=3, seed=SEED)
    records = replay_churn(service, events, settle_ticks=256)
    counts = service.sessions.counts()
    changes = [r for r in records if r["kind"] in ("join", "leave") and r["ok"]]
    hitless = [r for r in changes if r.get("detail", {}).get("hitless")]
    return {
        "events": len(records),
        "fault_transitions": len(injector.history),
        "lost_sessions": counts["lost"],
        "applied_changes": len(changes),
        "hitless_rate": round(len(hitless) / len(changes), 3) if changes else None,
    }


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def write_artifacts():
    ops = zipf_churn_ops()
    inc = [op["incremental"] for op in ops]
    full = [op["full"] for op in ops]
    hitless_rate = sum(op["hitless"] for op in ops) / len(ops)
    sweep_rows = [
        {
            "arm": arm,
            "ops": len(vals),
            "p50_links_touched": round(_pct(vals, 50), 1),
            "p95_links_touched": round(_pct(vals, 95), 1),
            "mean_links_touched": round(float(np.mean(vals)), 2),
        }
        for arm, vals in (("incremental", inc), ("full-reroute", full))
    ]
    emit(
        "w1_churn",
        sweep_rows,
        title=(
            f"W1: links reconfigured per membership change, Zipf sizes "
            f"({TOPOLOGY} N={N_PORTS}, {len(ops)} ops, "
            f"hitless rate {hitless_rate:.2f})"
        ),
    )

    drift = drift_scenarios()
    drift_hits = [s for s in drift if s["unlimited_max_drift"] > 0]
    fallback_total = sum(s["limit0_fallbacks"] for s in drift)

    drill = flash_crowd_drill()

    payload = {
        "experiment": "w1_churn",
        "workload": {
            "topology": TOPOLOGY,
            "n_ports": N_PORTS,
            "conferences": CONFERENCES,
            "churn_ops_per_conference": CHURN_OPS,
            "size_distribution": "zipf(alpha=1.8, min=2, max=16)",
            "seed": SEED,
        },
        "incremental": {
            "p50_links_touched": _pct(inc, 50),
            "p95_links_touched": _pct(inc, 95),
            "hitless_rate": hitless_rate,
        },
        "full_reroute": {
            "p50_links_touched": _pct(full, 50),
            "p95_links_touched": _pct(full, 95),
        },
        "p50_strictly_fewer": _pct(inc, 50) < _pct(full, 50),
        "drift": {
            "topology": "omega",
            "scenarios": len(drift),
            "scenarios_with_drift": len(drift_hits),
            "max_drift_links": max((s["unlimited_max_drift"] for s in drift), default=0),
            "fallback_triggers_at_limit_0": fallback_total,
            "drift_after_fallback": max((s["limit0_final_drift"] for s in drift), default=0),
        },
        "flash_crowd_drill": drill,
        "note": (
            "links_touched: incremental = |added|+|removed| (delta "
            "reprogramming), full = |before ∪ after| (wholesale "
            "reinstall); drift = extra links a pinned route carries over "
            "a from-scratch route for the same members"
        ),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The acceptance criteria, asserted where the artifact is written.
    assert payload["p50_strictly_fewer"], (
        f"incremental p50 {payload['incremental']['p50_links_touched']} not "
        f"strictly below full-reroute p50 "
        f"{payload['full_reroute']['p50_links_touched']}"
    )
    assert drift, "no fault-healed drift scenarios found on omega"
    assert drift_hits, "drift never accrued — the drift knob is unmeasurable"
    assert fallback_total > 0, "drift_limit=0 never triggered the fallback"
    assert all(s["limit0_final_drift"] == 0 for s in drift), (
        "fallback reroute left residual drift"
    )
    assert drill["lost_sessions"] == 0, "flash-crowd drill lost sessions"
    assert drill["fault_transitions"] > 0, "drill fault timeline never fired"
    assert drill["applied_changes"] > 0, "drill applied no membership changes"
    return payload


def test_w1_zipf_churn(benchmark):
    ops = benchmark(zipf_churn_ops)
    assert _pct([o["incremental"] for o in ops], 50) < _pct([o["full"] for o in ops], 50)


def test_w1_artifacts(benchmark):
    benchmark(lambda: None)
    payload = write_artifacts()
    assert payload["flash_crowd_drill"]["lost_sessions"] == 0


if __name__ == "__main__":
    print(json.dumps(write_artifacts(), indent=2, sort_keys=True))
