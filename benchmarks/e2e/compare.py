"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py SET_A SET_B

``SET_A`` is the reference (the parent commit), ``SET_B`` the candidate.
Each set is a directory of result documents written by
``run.py --out`` (or a single such file); run ``i`` of A is paired with
run ``i`` of B in file-name order, so write them alternately.

For every workload × end-to-end metric of BENCHMARK.json the verdict is:

* ``better`` — at least 10 pairs, B wins at least 9/10 of them (ties
  count for neither) and its median moves beyond A's interquartile
  range;
* ``unresolved`` — either side's IQR exceeds the metric's bound
  (relative to its median), unless every B run beats every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``same`` — otherwise.

Exits 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10  # fewer pairs than this can never establish a gain


def load_set(path: str) -> list[dict]:
    """The result documents of one set, in file-name order."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise SystemExit(f"compare.py: no result files in {path}")
    docs = []
    for f in files:
        with open(f) as fh:
            docs.append(json.load(fh))
    return docs


def values(docs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        doc["workloads"][workload]["metrics"][metric]["value"]
        for doc in docs
        if metric in doc["workloads"].get(workload, {}).get("metrics", {})
    ]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Apply the comparison rule to one workload × metric."""
    sign = 1.0 if better == "higher" else -1.0
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    change = (b_med - a_med) / a_med if a_med else 0.0
    spread = max((a3 - a1) / a_med if a_med else 0.0, (b3 - b1) / b_med if b_med else 0.0)
    dominates = all(sign * (y - x) > 0 for x in a for y in b)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (b_med - a_med) > a3 - a1:
        outcome = "better"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif -sign * change > bound:
        outcome = "worse"
    else:
        outcome = "same"
    return {
        "a": (a1, a_med, a3),
        "b": (b1, b_med, b3),
        "change": change,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of e2e runs")
    parser.add_argument("set_a", help="reference runs (directory or file)")
    parser.add_argument("set_b", help="candidate runs (directory or file)")
    parser.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"), help="metric catalog"
    )
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    a_docs, b_docs = load_set(args.set_a), load_set(args.set_b)
    print(f"A: {len(a_docs)} run(s) from {args.set_a}; B: {len(b_docs)} run(s) from {args.set_b}")
    print(
        f"{'workload':<13} {'metric':<13} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'spread':>7} {'bound':>6} {'wins':>6}  verdict"
    )
    tally: dict[str, int] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            a = values(a_docs, workload, metric["name"])
            b = values(b_docs, workload, metric["name"])
            if not a or not b:
                row = {"verdict": "unresolved"}
                print(f"{workload:<13} {metric['name']:<13} {'(missing)':>30} {'':>30}  unresolved")
            else:
                row = verdict(a, b, metric["better"], metric["bound"])
                fa = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["a"])
                fb = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["b"])
                print(
                    f"{workload:<13} {metric['name']:<13} {fa:>30} {fb:>30} "
                    f"{row['change']:>+8.2%} {row['spread']:>7.2%} {metric['bound']:>6.0%} "
                    f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
                )
            tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
