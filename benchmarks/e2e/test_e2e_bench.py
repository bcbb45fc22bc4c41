"""Self-test of the end-to-end benchmark, on a few dozen ticks per workload.

Run explicitly: ``python -m pytest benchmarks/e2e -q`` (it sits outside
the tier-1 ``testpaths``).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import client
import compare
import layers
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def short(name: str, **changes) -> client.Workload:
    return replace(client.WORKLOADS[name], warmup_ticks=5, window_ticks=30, **changes)


def test_catalog_matches_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert list(e2e.items()) == list(run.E2E_UNITS.items())
    assert list(per_layer.items()) == list(layers.PER_LAYER_UNITS.items())
    assert [w["name"] for w in BENCH["workloads"]] == list(client.WORKLOADS)
    for name in [*e2e, *per_layer, *client.WORKLOADS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", list(client.WORKLOADS))
def test_seed_fixes_inputs_and_decisions(name):
    # Frequent faults, so restores draw retry jitter from the service RNG.
    spec = short(name, fault_mttf=2_000.0) if name == "churn_faults" else short(name)
    inputs = client.generate_inputs(spec, 3)
    client.time_setup(spec, inputs, repeats=2)  # set-up builds must not shift any stream
    a = client.run_episode(spec, inputs)
    b = client.run_episode(spec, inputs)
    fresh = client.run_episode(spec, client.generate_inputs(spec, 3))
    c = client.run_episode(spec, client.generate_inputs(spec, 4))
    assert a.errors == b.errors == fresh.errors == c.errors == []
    assert (a.input_digest, a.digest) == (b.input_digest, b.digest)
    assert (a.input_digest, a.digest) == (fresh.input_digest, fresh.digest)
    assert a.input_digest != c.input_digest
    assert a.digest != c.digest


@pytest.mark.parametrize("name", list(client.WORKLOADS))
def test_tracing_is_transparent_and_restored(name):
    # Frequent faults so the healing wrappers see transitions too.
    spec = short(name, fault_mttf=2_000.0) if name == "churn_faults" else short(name)
    inputs = client.generate_inputs(spec, 1)
    originals = {(cls, method): cls.__dict__[method] for _l, cls, method, _a, _b in layers.TIMED}
    bare = client.run_episode(spec, inputs)
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        traced = client.run_episode(spec, inputs, recorder)
    finally:
        recorder.restore()
    assert all(cls.__dict__[m] is fn for (cls, m), fn in originals.items())
    assert traced.digest == bare.digest
    assert traced.spans
    metrics = layers.layer_metrics(layers.SpanTable(traced.spans), traced)
    assert [*metrics, "trace_overhead_frac"] == list(layers.PER_LAYER_UNITS)
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_failure_accounting_is_not_vacuous():
    spec = short("open_close", dilation=1)
    episode = client.run_episode(spec, client.generate_inputs(spec, 0))
    assert episode.errors == []
    assert 0 < episode.failed < episode.offered
    assert episode.outcomes.get("rejected", 0) == episode.failed


def test_compare_rule():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert compare.verdict(base, base[::-1], "higher", 0.1)["verdict"] == "same"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1)["verdict"] == "worse"
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1)["verdict"] == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] == "worse"
    # Five pairs can never establish a gain.
    assert compare.verdict(base[:5], [v * 1.2 for v in base[:5]], "higher", 0.1)[
        "verdict"
    ] == "same"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert compare.verdict(base[:5], noisy, "higher", 0.1)["verdict"] == "unresolved"


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(
        "__pycache__", "runs"
    ))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "open_close",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
