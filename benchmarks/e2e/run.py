"""End-to-end serving benchmark for the conference fabric.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                 # all workloads
    python3 benchmarks/e2e/run.py --workload open_close --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --trace-dir benchmarks/e2e/runs/trace

Without ``--workload`` every workload runs in its own fresh subprocess,
one at a time.  With ``--trace 0`` a workload reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it reports the per-layer
metrics, timed from outside by wrapping each layer's public methods
(``--trace-dir`` also writes the spans as ``<workload>.jsonl``).  Every
invocation checks that the outputs are correct and exits non-zero when
they are not.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` for one workload, the
full result document (header plus every workload) otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# client and layers import repro (from SRC) and numpy, so functions import
# them only after main() has found SRC and pinned the numeric threads.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"

E2E_UNITS = {
    "ok_ops_per_s": "1/s",
    "req_ms_p50": "ms",
    "req_ms_p95": "ms",
    "tick_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_PER_REPLAY = 3


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def pinned_digest(workload: str, seed: int) -> "str | None":
    """The decision digest pinned for (workload, seed), if any."""
    if not BASELINE.is_file():
        return None
    with open(BASELINE) as fh:
        pinned = json.load(fh).get("pinned", {})
    if pinned.get("seed") != seed:
        return None
    return pinned.get("digests", {}).get(workload)


# -- header ----------------------------------------------------------------


def git_state() -> "tuple[str | None, bool | None]":
    """(HEAD sha, dirty flag) of the checkout, or Nones outside git."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> "str | None":
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, env=env, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return (sha.strip() if sha else None), (bool(status.strip()) if status is not None else None)


def header(seed: int, load_before: float, wall_s: float, decisions: dict) -> dict:
    import numpy as np

    sha, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "wall_s": round(wall_s, 3),
        "decisions_match": decisions,
    }


# -- one workload in this process ------------------------------------------


def fastest_replay(episodes, attr: str) -> list[float]:
    """Per-position minimum over identical replays of one episode.

    Every replay makes the same decisions on the same inputs (the digest
    check enforces it), so position ``i`` is the same work in each; other
    tenants of the host only ever add time to it.
    """
    return [min(column) for column in zip(*(getattr(ep, attr) for ep in episodes))]


def measure(spec, inputs, seconds: float) -> dict:
    """Untraced replays for ``seconds``; the end-to-end metrics."""
    from client import run_episode, time_setup

    setup: list[float] = []

    def replay():
        # Set-up is timed a few times before every replay, not in one
        # burst, so one slow phase of the host cannot move the median;
        # the collection first clears the garbage of the previous replay.
        gc.collect()
        setup.extend(time_setup(spec, inputs, SETUP_PER_REPLAY))
        return [run_episode(spec, inputs)]

    episodes = _repeat(replay, seconds)
    first = episodes[0]
    window_s = sum(fastest_replay(episodes, "step_s"))
    tick_s = fastest_replay(episodes, "tick_s")
    latency_s = fastest_replay(episodes, "ok_latency_s")
    metrics = {
        "ok_ops_per_s": first.ok / window_s,
        "req_ms_p50": _percentile(latency_s, 50) * 1e3,
        "req_ms_p95": _percentile(latency_s, 95) * 1e3,
        "tick_ms_p50": _median(tick_s) * 1e3,
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "admitted_per_s": first.outcomes.get("admitted", 0) / window_s,
        "req_samples": len(latency_s),
        "setup_s_samples": setup,
        "replay_ok_ops_per_s": [ep.ok / ep.window_wall_s for ep in episodes],
    }
    if spec.fault_mttf is not None:
        fault_s = [tick_s[i] for i in first.fault_ticks]
        detail["fault_tick_ms_p50"] = _median(fault_s) * 1e3 if fault_s else None
        detail["fault_ticks"] = len(fault_s)
    return {"metrics": metrics, "episodes": episodes, "detail": detail}


def measure_traced(spec, inputs, seconds: float, trace_dir: "str | None") -> dict:
    """Untraced/traced episode pairs for ``seconds``; the per-layer metrics."""
    from client import run_episode
    from layers import SpanRecorder, SpanTable, layer_metrics, top_self, write_jsonl

    rows: list[dict] = []
    top: list = []

    def pair():
        bare = run_episode(spec, inputs)
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = run_episode(spec, inputs, recorder)
        finally:
            recorder.restore()
        spans = SpanTable(traced.spans)
        traced.spans = None  # spans are large; keep only the numbers
        row = layer_metrics(spans, traced)
        row["trace_overhead_frac"] = traced.window_wall_s / bare.window_wall_s - 1.0
        rows.append(row)
        if not top:
            top.extend(top_self(spans, traced))
            if trace_dir is not None:
                os.makedirs(trace_dir, exist_ok=True)
                write_jsonl(spans, os.path.join(trace_dir, f"{spec.name}.jsonl"))
        return [bare, traced]

    episodes = _repeat(pair, seconds)
    metrics = {name: _median(row[name] for row in rows) for name in rows[0]}
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    errors = []
    if abs(shares - 1.0) > 0.05:
        errors.append(f"layer shares sum to {shares:.3f}, not 1 +- 0.05")
    if metrics["untraced.self_share"] > 0.15:
        errors.append(f"untraced.self_share {metrics['untraced.self_share']:.3f} > 0.15")
    detail = {"top_self": top, "share_sum": shares, "pairs": len(rows)}
    return {"metrics": metrics, "episodes": episodes, "detail": detail, "errors": errors}


def _repeat(run, seconds: float) -> list:
    """Call ``run`` (returning episodes) until the next call would overrun."""
    start = time.perf_counter()
    episodes: list = []
    while True:
        t0 = time.perf_counter()
        episodes.extend(run())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return episodes


def run_one(args, bench: dict) -> int:
    from client import WORKLOADS, generate_inputs
    from layers import PER_LAYER_UNITS

    t_start = time.perf_counter()
    load_before = os.getloadavg()[0]
    spec = WORKLOADS[args.workload]
    inputs = generate_inputs(spec, args.seed)
    if args.trace:
        out = measure_traced(spec, inputs, args.seconds, args.trace_dir)
        units = PER_LAYER_UNITS
    else:
        out = measure(spec, inputs, args.seconds)
        units = E2E_UNITS
    episodes = out["episodes"]
    first = episodes[0]
    errors = list(out.get("errors", []))
    for ep in episodes:
        errors += [e for e in ep.errors if e not in errors]
    digests = sorted({ep.digest for ep in episodes})
    if len(digests) > 1:
        errors.append(f"decisions differ between episodes: {digests}")
    pinned = pinned_digest(spec.name, args.seed)
    if pinned is not None and first.digest != pinned:
        errors.append(f"decision digest {first.digest} != pinned {pinned}")
    match = len(digests) == 1 and (pinned is None or first.digest == pinned)
    catalog = bench["per_layer" if args.trace else "end_to_end"]
    if [m["name"] for m in catalog] != list(units) or any(
        m["unit"] != units[m["name"]] for m in catalog
    ):
        errors.append("metric catalog differs from BENCHMARK.json")
    metrics = out["metrics"]
    for name, unit in units.items():
        print(f"{spec.name:<13} {name:<36} {metrics[name]:>14.6g} {unit}")
    for error in errors:
        print(f"{spec.name}: CHECK FAILED: {error}", file=sys.stderr)
    record = {
        "workload": spec.name,
        "header": header(
            args.seed, load_before, time.perf_counter() - t_start, {spec.name: match}
        ),
        "trace": bool(args.trace),
        "correct": not errors,
        "errors": errors,
        "digest": first.digest,
        "pinned_digest": pinned,
        "input_digest": first.input_digest,
        "episodes": len(episodes),
        "offered": first.offered,
        "ok": first.ok,
        "failed": first.failed,
        "fail_frac": first.failed / first.offered,
        "outcomes": first.outcomes,
        "starved": first.starved,
        "fault_transitions": first.counters["fault_transitions"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **out["detail"],
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": first.offered,
                "failed": first.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if not errors else 1


# -- every workload, one subprocess each -----------------------------------


def run_child(cmd: "list[str]", timeout: float) -> dict:
    """One workload subprocess; its result record (a failing one if it broke)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"correct": False, "errors": [f"timed out after {timeout:.0f} s"], "exit_code": None}
    lines = proc.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-2]))
    try:
        record = json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "errors": [f"exit {proc.returncode}, no result"]}
    record["exit_code"] = proc.returncode
    return record


def run_all(args, bench: dict) -> int:
    t_start = time.perf_counter()
    load_before = os.getloadavg()[0]
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0",
        ]
        if args.trace_dir is not None:
            cmd += ["--trace-dir", args.trace_dir]
        record = results[workload] = run_child(cmd, timeout=args.seconds + 150)
        print(
            f"{workload:<13} correct {record['correct']}, episodes {record.get('episodes', 0)}, "
            f"fail_frac {record.get('fail_frac', float('nan')):.4f}"
        )
    decisions = {
        w: r.get("header", {}).get("decisions_match", {}).get(w, False)
        for w, r in results.items()
    }
    document = {
        "header": header(args.seed, load_before, time.perf_counter() - t_start, decisions),
        "trace": bool(args.trace),
        "correct": all(r["correct"] and r["exit_code"] == 0 for r in results.values()),
        "workloads": results,
    }
    if args.out is not None:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
    print(json.dumps(document))
    return 0 if document["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="write traced spans here (implies --trace 1)")
    parser.add_argument("--out", help="write the all-workload result document here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: program source not found under {SRC}", file=sys.stderr)
        return 2
    # Single-threaded numerics; must be set before numpy is first imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.trace_dir is not None:
        args.trace = 1
    if args.workload is not None:
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args, bench)
    return run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
