#!/usr/bin/env python
"""Run one end-to-end invariant check of the stack.

Each check drives the CLI, a benchmark script or the end-to-end harness,
asserts the contract it names, and leaves everything it produced under
``artifacts/<name>/`` (command output, reports, metrics, bench JSON).
Run from the repository root::

    python tools/invariants.py --list        # the check names, one a line
    python tools/invariants.py cluster-invariance

The exit status is 0 when the contract holds.  Subprocesses get
``src/`` on ``PYTHONPATH``, so no install is needed.  The benchmark
checks rewrite their repo-root ``BENCH_*.json`` and
``benchmarks/results/`` files, exactly as running the script directly
does, and copy them into the artifact directory.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
)}
CHECKS = {}


def check(fn):
    """Register ``fn`` as the check named after it (underscores to dashes)."""
    CHECKS[fn.__name__.replace("_", "-")] = fn
    return fn


def run(out: Path, log: str, *argv: str, cwd: "Path | None" = None) -> None:
    """Run ``python argv`` in ``cwd`` (default ``out``), output to ``out/log``.

    A nonzero exit fails the check.
    """
    with open(out / log, "w") as fh:
        rc = subprocess.run(
            [sys.executable, *argv], cwd=cwd or out, env=ENV, stdout=fh, stderr=subprocess.STDOUT
        ).returncode
    print(f"$ {' '.join(argv)}  -> exit {rc} (output: {out / log})")
    if rc != 0:
        print((out / log).read_text()[-4000:])
        raise SystemExit(f"{log}: exit {rc}")


def cli(out: Path, log: str, *argv: str) -> None:
    run(out, log, "-m", "repro", *argv)


def bench(out: Path, script: str, *outputs: str, pytest: bool = False) -> None:
    """Run a benchmark script (its assertions gate), then copy its outputs."""
    path = str(REPO / "benchmarks" / script)
    argv = ("-m", "pytest", path, "--benchmark-disable", "-q") if pytest else (path,)
    run(out, f"{Path(script).stem}.txt", *argv, cwd=REPO)
    for pattern in outputs:
        for produced in sorted(REPO.glob(pattern)):
            shutil.copy2(produced, out / produced.name)


def same(a: Path, b: Path) -> None:
    assert filecmp.cmp(a, b, shallow=False), f"{a.name} and {b.name} differ"
    print(f"cmp {a.name} {b.name}: identical")


def load(path: Path):
    return json.loads(path.read_text())


@check
def availability_smoke(out: Path) -> None:
    """The availability table at small N with a trace and metrics attached."""
    cli(out, "availability.txt", "availability", "--topology", "extra-stage-cube",
        "--ports", "16", "--duration", "300", "--mttf", "300", "--mttr", "15",
        "--seed", "0", "--trace-out", "smoke-trace.jsonl",
        "--metrics-out", "smoke-metrics.prom")


@check
def e5(out: Path) -> None:
    """E5 availability benchmark assertions; its tables (plan hits, the
    plan-store footprint) hold no timings, so every regenerated
    ``benchmarks/results/e5_*`` table must equal the checked-in one
    byte for byte."""
    tables = sorted((REPO / "benchmarks" / "results").glob("e5_*"))
    for table in tables:
        shutil.copy2(table, out / f"{table.stem}.committed{table.suffix}")
    bench(out, "bench_e5_availability.py", "benchmarks/results/e5_*", pytest=True)
    for table in tables:
        same(out / f"{table.stem}.committed{table.suffix}", out / table.name)


@check
def e3(out: Path) -> None:
    """E3 group-traffic assertions; its tables hold no timings, so the
    regenerated ``benchmarks/results/e3_group_traffic.{csv,txt}`` must
    equal the checked-in ones byte for byte."""
    tables = [REPO / "benchmarks" / "results" / f"e3_group_traffic.{ext}" for ext in ("csv", "txt")]
    for table in tables:
        shutil.copy2(table, out / f"{table.stem}.committed{table.suffix}")
    bench(out, "bench_e3_group_traffic.py", "benchmarks/results/e3_*", pytest=True)
    for table in tables:
        same(out / f"{table.stem}.committed{table.suffix}", out / table.name)


@check
def e2e_digests(out: Path) -> None:
    """The end-to-end benchmark's seed-0 decision digests match the pins.

    ``run.py`` exits nonzero when a correctness check fails or a digest
    differs from ``benchmarks/e2e/baseline.json``.
    """
    run(out, "e2e.txt", str(REPO / "benchmarks/e2e/run.py"), "--seed", "0",
        "--seconds", "3", "--out", "e2e.json")


@check
def serve_metrics(out: Path) -> None:
    """Two seeded serve benches under faults write byte-identical metrics."""
    for tag in "ab":
        cli(out, f"serve-{tag}.txt", "bench-serve", "--ports", "32", "--conferences",
            "60", "--faults", "--seed", "0", "--metrics-out", f"serve-{tag}.prom")
    same(out / "serve-a.prom", out / "serve-b.prom")


@check
def cluster_invariance(out: Path) -> None:
    """Client metrics are byte-identical at 1 and 4 shards, and run to run."""
    workload = ("--ports", "16", "--conferences", "120", "--seed", "9", "--resize-prob", "0.3")
    for shards in ("1", "4"):
        cli(out, f"bench-{shards}shard.txt", "bench-cluster", "--shards", shards, *workload,
            "--invariant-json", f"inv-{shards}shard.json", "--json", f"bench-{shards}shard.json")
    same(out / "inv-1shard.json", out / "inv-4shard.json")
    cli(out, "bench-4shard-again.txt", "bench-cluster", "--shards", "4", *workload,
        "--invariant-json", "inv-4shard-again.json")
    same(out / "inv-4shard.json", out / "inv-4shard-again.json")


@check
def cluster_drill(out: Path) -> None:
    """Shard kill + scale-up under live faults loses no session (gates the exit)."""
    cli(out, "cluster-drill.txt", "cluster", "--ports", "16", "--shards", "4",
        "--conferences", "120", "--kill-at", "10", "--add-at", "30", "--faults")


CHURN_REPLAY = textwrap.dedent("""
    import json, sys
    from repro.cluster.controller import ClusterService
    from repro.core.network import ConferenceNetwork
    from repro.workloads.churn import flash_crowd, replay_churn

    shards = int(sys.argv[1])
    factory = lambda shard_id: ConferenceNetwork.build(
        "indirect-binary-cube", 32, dilation=32)
    cluster = ClusterService(factory, shards=shards, rng=0)
    records = replay_churn(cluster, flash_crowd(32, seed=3), settle_ticks=128)
    print(json.dumps(records, sort_keys=True))
""")


@check
def churn_replay(out: Path) -> None:
    """Churn replay records are byte-identical at 1 and 4 shards."""
    for shards in ("1", "4"):
        records = subprocess.run(
            [sys.executable, "-c", CHURN_REPLAY, shards],
            check=True, capture_output=True, text=True, env=ENV,
        ).stdout
        (out / f"churn-inv-{shards}shard.json").write_text(records)
    same(out / "churn-inv-1shard.json", out / "churn-inv-4shard.json")
    print(f"{len(load(out / 'churn-inv-1shard.json'))} records byte-identical at 1 vs 4 shards")


@check
def w1(out: Path) -> None:
    """W1: incremental p50 < full, the drift knob, the flash-crowd drill.

    ``BENCH_w1.json`` holds no timings, so the regenerated file must
    equal the checked-in one byte for byte.
    """
    shutil.copy2(REPO / "BENCH_w1.json", out / "BENCH_w1.committed.json")
    bench(out, "bench_w1_churn.py", "BENCH_w1.json", "benchmarks/results/w1_churn.*")
    same(out / "BENCH_w1.committed.json", out / "BENCH_w1.json")


@check
def failover(out: Path) -> None:
    """Protected (F=2) recovery never exceeds reactive (F=0), client view
    unchanged, on both planning paths: the indirect binary cube (unique
    paths, so negative plans are read from the wiring) and the extra-stage
    cube (redundant paths, so every plan is routed by the kernel)."""
    for topology in ("indirect-binary-cube", "extra-stage-cube"):
        failover_drill(out, topology)


def failover_drill(out: Path, topology: str) -> None:
    for f in ("0", "2"):
        cli(out, f"drill-{topology}-f{f}.txt", "cluster", "--topology", topology,
            "--ports", "16", "--shards", "4", "--conferences", "120", "--kill-at", "10",
            "--faults", "--protection", f, "--json", f"drill-{topology}-f{f}.json")
    f0, f2 = (load(out / f"drill-{topology}-f{f}.json") for f in ("0", "2"))
    r0, r2 = f0["recovery"], f2["recovery"]
    assert r2["recovery_ticks_mean"] <= r0["recovery_ticks_mean"], (r2, r0)
    assert r2["recovery_ticks_p95"] <= r0["recovery_ticks_p95"], (r2, r0)
    assert r2["recovery_ticks_max"] <= r0["recovery_ticks_max"], (r2, r0)
    assert r2["plan_hits"] > 0 and r0["plan_hits"] == 0, (r2, r0)
    assert r2["recovery_events"] == r0["recovery_events"], (r2, r0)
    # Bit-identity: everything the client can see is unchanged.
    for key in ("conferences", "ticks", "lost_sessions", "session_counts",
                "killed_shard", "kill_tick", "consistency"):
        assert f0[key] == f2[key], (key, f0[key], f2[key])
    print(f"protected {topology} drill: mean", r2["recovery_ticks_mean"],
          "vs reactive", r0["recovery_ticks_mean"], "with", r2["plan_hits"], "plan hits")


@check
def f2(out: Path) -> None:
    """F2: the batch kernel is byte-identical to the reference walk, then timed."""
    bench(out, "bench_f2_routing_time.py", "BENCH_f2.json")


def _fetch(url: str) -> "tuple[int, bytes]":
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


@check
def slo_drill(out: Path) -> None:
    """A seeded fault drill pages, dumps incident bundles, and serves live endpoints."""
    base = "http://127.0.0.1:9464"
    with open(out / "slo-drill.txt", "w") as log:
        drill = subprocess.Popen(
            [sys.executable, "-m", "repro", "slo", "--ports", "16", "--conferences", "60",
             "--faults", "--seed", "3", "--slo-out", "slo.json", "--flight-out", "incidents",
             "--listen", "127.0.0.1:9464", "--listen-linger", "45",
             "--json", "slo-report.json"],
            cwd=out, env=ENV, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            # The endpoint is live for the whole run plus the linger; poll
            # /slo until the drill's breach shows up (it pages by design).
            for _ in range(120):
                try:
                    status, body = _fetch(f"{base}/slo")
                except OSError:
                    status = 0
                if status == 200:
                    (out / "slo-live.json").write_bytes(body)
                    if b'"state": "page"' in body:
                        break
                time.sleep(0.5)
            (out / "metrics.prom").write_bytes(_fetch(f"{base}/metrics")[1])
            code, body = _fetch(f"{base}/healthz")
            (out / "healthz.json").write_bytes(body)
            (out / "healthz.code").write_text(f"{code}\n")
            print(f"healthz -> {code}")
        finally:
            rc = drill.wait(timeout=600)
    print(f"drill exit {rc} (page state gates the exit code)")
    print((out / "slo-drill.txt").read_text())

    final = load(out / "slo.json")
    assert final["state"] == "page", final["state"]
    availability = final["slos"]["availability"]
    assert any(w["firing"] and w["burn_rate"] >= w["factor"]
               for w in availability["windows"]), availability
    live = load(out / "slo-live.json")
    assert live["state"] == "page", live["state"]
    assert (out / "healthz.code").read_text().strip() == "503"
    assert "repro_" in (out / "metrics.prom").read_text()
    bundles = sorted((out / "incidents").glob("incident-*.jsonl"))
    assert bundles, "fault drill produced no incident bundles"
    first = [json.loads(line) for line in bundles[0].read_text().splitlines()]
    assert first[0]["type"] == "incident"
    report = load(out / "slo-report.json")
    assert report["kind"] == "slo_report" and not report["ok"]
    print(f"paged with {len(bundles)} incident bundle(s); endpoints served")


@check
def o1(out: Path) -> None:
    """O1: telemetry transparency and the overhead budget."""
    bench(out, "bench_o1_observability.py", "BENCH_o1.json")


@check
def m1(out: Path) -> None:
    """M1: the buffered model saturates at (not before) the multiplicity bound.

    ``BENCH_m1.json`` and the ``m1_*`` tables hold no timings, so every
    regenerated file must equal the checked-in one byte for byte.
    """
    committed = [REPO / "BENCH_m1.json", *sorted((REPO / "benchmarks" / "results").glob("m1_*"))]
    for path in committed:
        shutil.copy2(path, out / f"{path.stem}.committed{path.suffix}")
    bench(out, "bench_m1_perfmodel.py", "BENCH_m1.json", "benchmarks/results/m1_*")
    for path in committed:
        same(out / f"{path.stem}.committed{path.suffix}", out / path.name)


@check
def perfmodel_transparency(out: Path) -> None:
    """The perf model is pure observation: abstract mode is byte-identical.

    Abstract mode is byte-identical with the knob absent or explicit, and
    the buffered overlay changes the report in its ``delivery`` block alone.
    """
    workload = ("bench-serve", "--ports", "16", "--conferences", "60", "--seed", "0")
    cli(out, "serve-default.txt", *workload, "--json", "serve-default.json")
    cli(out, "serve-abstract.txt", *workload, "--capacity-model", "abstract",
        "--json", "serve-abstract.json")
    same(out / "serve-default.json", out / "serve-abstract.json")
    cli(out, "serve-buffered.txt", *workload, "--capacity-model", "buffered", "--lanes", "2",
        "--cycles-per-tick", "32", "--json", "serve-buffered.json")
    abstract, buffered = load(out / "serve-abstract.json"), load(out / "serve-buffered.json")
    delivery = buffered.pop("delivery")
    assert buffered == abstract, "buffered mode perturbed the report"
    assert delivery["capacity_model"] == "buffered"
    assert delivery["offered_packets"] > 0
    assert 0.0 <= delivery["delivery_ratio"] <= 1.0
    print("delivery block:", delivery["delivered_packets"], "/", delivery["offered_packets"],
          "packets, ratio", delivery["delivery_ratio"])


@check
def p1(out: Path) -> None:
    """P1: parallel scaling, with its determinism assertions."""
    bench(out, "bench_p1_parallel_scaling.py", "BENCH_p1.json")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", nargs="?", choices=sorted(CHECKS), metavar="NAME",
                        help="the check to run (see --list)")
    parser.add_argument("--list", action="store_true", help="print the check names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(CHECKS))
        return 0
    if args.name is None:
        parser.error("name a check, or pass --list")
    out = REPO / "artifacts" / args.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"== {args.name}: {CHECKS[args.name].__doc__.splitlines()[0]}")
    CHECKS[args.name](out)
    print(f"== {args.name}: ok (artifacts in {out.relative_to(REPO)}/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
