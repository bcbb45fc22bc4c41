"""Golden snapshots of the serving benches and the serial worst-case search.

The serve and cluster bench reports fold every request verdict, the
healing ladder's recovery accounting and the queue tallies into one
dict, so a snapshot of ``as_dict()`` pins the whole request-bookkeeping
path: retries, restores, shedding, resize churn, shard failover and
scale-up.  The serial :func:`~repro.analysis.worstcase.randomized_search`
result pins the single-stream hill climb (the sharded search is pinned
in ``test_golden.py``).
"""

import pytest

from repro.analysis.worstcase import randomized_search
from repro.cluster.bench import run_cluster_bench
from repro.core.healing import RetryPolicy
from repro.perfmodel.model import PerfModelConfig
from repro.serve.bench import run_serve_bench
from repro.sim.faults import FaultProcessConfig
from repro.topology.builders import build

pytestmark = pytest.mark.tier1


class TestServeBenchGolden:
    def test_faults_protection_retry_resize(self, golden):
        report = run_serve_bench(
            32,
            dilation=2,
            conferences=120,
            seed=4,
            arrival_rate=6.0,
            mean_hold_ticks=8.0,
            resize_prob=0.4,
            queue_capacity=6,
            shed_policy="shed-largest",
            max_batch=4,
            retry=RetryPolicy(max_retries=3, base_delay=1.0),
            protection=1,
            fault_process=FaultProcessConfig(
                mean_time_to_failure=150.0, mean_time_to_repair=6.0
            ),
        )
        golden("serve_bench_faults_protect_retry32", report.as_dict())

    def test_buffered(self, golden):
        report = run_serve_bench(
            16,
            dilation=2,
            conferences=50,
            seed=2,
            mean_hold_ticks=6.0,
            resize_prob=0.3,
            capacity_model="buffered",
            perf=PerfModelConfig(lanes=2, cycles_per_tick=32),
        )
        golden("serve_bench_buffered16", report.as_dict())


class TestClusterBenchGolden:
    def test_kill_scale_faults_protection(self, golden):
        report = run_cluster_bench(
            ports=16,
            shards=3,
            dilation=2,
            conferences=90,
            seed=6,
            mean_hold_ticks=8.0,
            resize_prob=0.3,
            retry=RetryPolicy(max_retries=2),
            kill_shard_at=8,
            add_shard_at=14,
            protection=2,
            fault_process=FaultProcessConfig(
                mean_time_to_failure=120.0, mean_time_to_repair=8.0
            ),
        )
        golden("cluster_bench_kill_scale_faults16", report.as_dict())


class TestSerialSearchGolden:
    def test_randomized_search(self, golden):
        best = randomized_search(
            build("indirect-binary-cube", 32), trials=25, pool_size=12, seed=5
        )
        golden(
            "serial_search_result_cube32",
            {
                "multiplicity": best.multiplicity,
                "link": best.link,
                "explored": best.explored,
                "exact": best.exact,
                "witness": [list(c.members) for c in best.witness.conferences],
            },
        )
