"""Tests for the command-line interface."""

import json
import shlex
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import _service_knobs, build_parser, main
from repro.core.churn import ChurnPolicy
from repro.core.healing import RetryPolicy
from repro.core.network import ConferenceNetwork
from repro.perfmodel import PerfModelConfig
from repro.report.serialize import result_to_dict
from repro.sim.faults import FaultProcessConfig
from repro.workloads.generators import uniform_partition


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["show", "--topology", "torus"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("conference-net ")
        assert any(ch.isdigit() for ch in out)


class TestCommands:
    def test_show(self, capsys):
        assert main(["show", "--topology", "omega", "--ports", "8"]) == 0
        out = capsys.readouterr().out
        assert "omega" in out

    def test_route_reports_conflicts(self, capsys):
        code = main([
            "route", "--topology", "indirect-binary-cube", "--ports", "8",
            "--conference", "0,3", "--conference", "1,2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "max multiplicity 2" in out
        assert "delivery: correct" in out

    def test_route_without_relay(self, capsys):
        code = main([
            "route", "--ports", "8", "--no-relay",
            "--conference", "0,1",
        ])
        assert code == 0
        assert "delivery: correct" in capsys.readouterr().out

    def test_worstcase(self, capsys):
        assert main(["worstcase", "--ports", "16"]) == 0
        out = capsys.readouterr().out
        assert "omega (measured)" in out
        assert "adversarial witness" in out

    def test_cost(self, capsys):
        assert main(["cost", "--ports", "16,64"]) == 0
        out = capsys.readouterr().out
        assert "crossbar" in out
        assert "yang2001" in out

    def test_blocking(self, capsys):
        code = main([
            "blocking", "--topology", "omega", "--ports", "16",
            "--dilations", "1,2", "--duration", "50", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dilation" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--ports", "16", "--load", "0.9", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "TDM schedule" in out
        assert "required dilation" in out

    def test_faults(self, capsys):
        code = main([
            "faults", "--topology", "benes-cube", "--ports", "16",
            "--count", "3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "survivability" in out
        assert "dead links" in out
        # Default: both relay variants are reported.
        assert "\non " in out and "\noff" in out

    def test_faults_relay_flag_selects_one_row(self, capsys):
        assert main(["faults", "--ports", "16", "--count", "2", "--no-relay"]) == 0
        out = capsys.readouterr().out
        assert "\noff" in out and "\non " not in out
        assert main(["faults", "--ports", "16", "--count", "2", "--relay"]) == 0
        out = capsys.readouterr().out
        assert "\non " in out and "\noff" not in out

    def test_faults_include_injections(self, capsys):
        # With every level-0 wire dead, nothing can survive.
        n_links = 16 * 4  # inter-stage links of a 16-port cube
        code = main([
            "faults", "--ports", "16", "--count", str(n_links + 16),
            "--include-injections", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "(0," in out  # an injection point among the dead links

    def test_availability(self, capsys):
        code = main([
            "availability", "--topology", "extra-stage-cube", "--ports", "16",
            "--duration", "200", "--mttf", "200", "--mttr", "10", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability over time" in out
        assert "\non " in out and "\noff" in out

    def test_availability_with_traffic(self, capsys):
        code = main([
            "availability", "--ports", "16", "--duration", "150",
            "--mttf", "150", "--mttr", "10", "--traffic",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bounded backoff" in out
        assert "backoff" in out and "no-retry" in out


class TestTelemetry:
    """The observability surface: --trace-out / --metrics-out and `trace`."""

    def test_availability_telemetry_flags(self, capsys, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.prom"
        code = main([
            "availability", "--topology", "extra-stage-cube", "--ports", "16",
            "--duration", "200", "--mttf", "200", "--mttr", "10", "--seed", "1",
            "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability over time" in out  # normal report still printed
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records, "trace file is empty"
        names = {record["name"] for record in records}
        assert "conference.submit" in names
        metrics = metrics_path.read_text()
        assert "repro_link_occupancy_bucket{" in metrics
        assert "repro_conflict_multiplicity{" in metrics

    def test_availability_output_unchanged_by_telemetry(self, capsys, tmp_path):
        args = [
            "availability", "--ports", "16", "--duration", "150",
            "--mttf", "150", "--mttr", "10", "--seed", "3",
        ]
        assert main(args) == 0
        bare = capsys.readouterr().out
        assert main(args + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
        instrumented = capsys.readouterr().out
        # The report proper is byte-identical; telemetry only appends a
        # "wrote ..." footer after it.
        assert instrumented.startswith(bare)

    def test_trace_subcommand(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "trace", "--ports", "16", "--duration", "150",
            "--mttf", "100", "--mttr", "10", "--seed", "2",
            "--out", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace of one availability run" in out
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert records
        assert {"event", "span"} >= {record["type"] for record in records}
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_admissions_total"]["kind"] == "counter"


class TestInputValidation:
    """Outside input is checked at the parser: a usage error, exit 2."""

    @pytest.mark.parametrize("spec", ["abc", "[::1]:0", ":70000", "host:-1", "h:1:2", ":8x"])
    def test_listen_rejects_malformed_address(self, capsys, spec):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench-serve", "--listen", spec])
        assert excinfo.value.code == 2
        assert "--listen" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, address", [
        (":0", ("127.0.0.1", 0)),
        ("127.0.0.1:9464", ("127.0.0.1", 9464)),
        ("localhost:65535", ("localhost", 65535)),
    ])
    def test_listen_parses_once(self, spec, address):
        assert build_parser().parse_args(["slo", "--listen", spec]).listen == address

    @pytest.mark.parametrize("command", ["serve", "schedule", "faults", "availability"])
    @pytest.mark.parametrize("load", ["3", "-0.1", "nan", "half"])
    def test_load_outside_unit_interval_is_a_usage_error(self, capsys, command, load):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--load", load])
        assert excinfo.value.code == 2
        assert "--load" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "schedule", "faults", "availability"])
    def test_load_fraction_accepted(self, command):
        for load in ("0", "0.6", "1"):
            assert build_parser().parse_args([command, "--load", load]).load == float(load)

    @pytest.mark.parametrize("argv", [
        ["bench-serve", "--drift-limit", "-1"],
        ["bench-serve", "--protection", "-1"],
        ["bench-serve", "--max-batch", "0"],
        ["bench-serve", "--queue-capacity", "0"],
        ["bench-serve", "--conferences", "0"],
        ["bench-serve", "--capacity-model", "buffered", "--lanes", "0"],
        ["bench-serve", "--buffer-depth", "0"],
        ["bench-serve", "--flits", "0"],
        ["bench-serve", "--cycles-per-tick", "0"],
        ["bench-serve", "--max-batch", "many"],
        ["bench-serve", "--dilation", "0"],
        ["bench-cluster", "--shards", "0"],
        ["bench-cluster", "--dilation", "0"],
        ["bench-cluster", "--migration-budget", "-1"],
        ["cluster", "--migration-budget", "0"],
        ["slo", "--queue-capacity", "0"],
        ["sweep", "--trials", "0"],
        ["faults", "--count", "-1"],
        ["show", "--ports", "12"],
        ["show", "--ports", "0"],
        ["worstcase", "--ports", "3"],
        ["cost", "--ports", "16,12"],
        ["bench-cluster", "--ports", "6"],
        ["serve", "--ports", "sixteen"],
        ["sweep", "--chunk-size", "0"],
        ["sweep", "--workers", "0"],
        ["sweep", "--experiment", "worstcase", "--pool-size", "0"],
        ["blocking", "--dilations", "0"],
        ["blocking", "--dilations", "1,2,0"],
        ["trace", "--capacity", "0"],
    ], ids=" ".join)
    def test_out_of_range_integer_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["blocking", "--duration", "0"],
        ["availability", "--duration", "0"],
        ["trace", "--duration", "-5"],
        ["availability", "--mttf", "0"],
        ["availability", "--mttr", "inf"],
        ["trace", "--mttf", "nan"],
        ["bench-serve", "--arrival-rate", "0"],
        ["bench-serve", "--mean-hold", "0"],
        ["bench-serve", "--faults", "--mttr", "0"],
        ["bench-cluster", "--faults", "--mttf", "-1"],
        ["bench-serve", "--resize-prob", "2"],
        ["bench-cluster", "--resize-prob", "-0.1"],
        ["sweep", "--loads", "1.5"],
        ["sweep", "--loads", "0.25,x"],
        ["bench-serve", "--mean-size", "1.99"],
        ["bench-cluster", "--mean-size", "-3"],
        ["bench-serve", "--mean-size", "inf"],
    ], ids=" ".join)
    def test_out_of_range_number_is_a_usage_error(self, capsys, argv):
        flag = next(word for word in reversed(argv) if word.startswith("--"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_number_bounds(self):
        args = build_parser().parse_args([
            "bench-serve", "--arrival-rate", "0.5", "--mean-hold", "1e-3",
            "--resize-prob", "0", "--mttf", "7", "--mttr", "0.25",
        ])
        assert (args.arrival_rate, args.mean_hold, args.resize_prob) == (0.5, 1e-3, 0.0)
        assert (args.mttf, args.mttr) == (7.0, 0.25)
        assert build_parser().parse_args(["bench-serve", "--resize-prob", "1"]).resize_prob == 1.0
        assert build_parser().parse_args(["bench-cluster", "--mean-size", "2"]).mean_size == 2.0
        assert build_parser().parse_args(["sweep", "--loads", "0,1"]).loads == [0.0, 1.0]
        assert build_parser().parse_args(["blocking", "--dilations", "1,8"]).dilations == [1, 8]

    def test_worstcase_on_a_one_stage_cube(self, capsys):
        assert main(["worstcase", "--ports", "2"]) == 0
        assert "cube adversarial witness (level 1): [[0, 1]]" in capsys.readouterr().out

    def test_integer_bounds_are_inclusive(self):
        args = build_parser().parse_args([
            "bench-cluster", "--protection", "0", "--drift-limit", "0", "--shards", "1",
            "--max-batch", "1", "--queue-capacity", "1", "--migration-budget", "1",
        ])
        assert (args.protection, args.drift_limit, args.shards) == (0, 0, 1)
        assert (args.max_batch, args.queue_capacity, args.migration_budget) == (1, 1, 1)
        assert build_parser().parse_args(["faults", "--count", "0"]).count == 0
        assert build_parser().parse_args(["sweep", "--trials", "1"]).trials == 1

    def test_network_sizes_are_powers_of_two(self):
        assert build_parser().parse_args(["show", "--ports", "2"]).ports == 2
        assert build_parser().parse_args(["cost", "--ports", "2,1024"]).ports == [2, 1024]


def _documented_commands():
    """Every ``conference-net ...`` line in the docs' fenced code blocks."""
    root = Path(__file__).resolve().parents[1]
    found = []
    for doc in [root / "README.md", root / "EXPERIMENTS.md", *sorted((root / "docs").glob("*.md"))]:
        fenced = False
        logical = ""
        for line in doc.read_text().splitlines():
            if line.lstrip().startswith("```"):
                fenced, logical = not fenced, ""
                continue
            if not fenced:
                continue
            logical += line
            if logical.rstrip().endswith("\\"):
                logical = logical.rstrip()[:-1] + " "
                continue
            words = shlex.split(logical, comments=True)
            logical = ""
            if words[:1] == ["$"]:
                words = words[1:]
            if words[:1] == ["conference-net"]:
                found.append(pytest.param(words[1:], id=f"{doc.name}:{' '.join(words[1:3])}"))
    return found


class TestDocumentedCommands:
    def test_docs_have_commands(self):
        assert len(_documented_commands()) >= 15

    @pytest.mark.parametrize("argv", _documented_commands())
    def test_documented_command_parses(self, argv):
        build_parser().parse_args(argv)


def _json(path):
    return json.loads(Path(path).read_text())


def _as_saved(payload):
    """``payload`` as ``save_json`` would write and ``json`` read it back."""
    return json.loads(json.dumps(payload, sort_keys=True))


class TestServiceCommandsMatchTheLibrary:
    """Each service command's ``--json`` equals the library call with the same knobs.

    The knobs are deliberately off their defaults, so a flag the CLI maps
    to the wrong keyword (or drops) changes the report.
    """

    def test_serve(self, capsys, tmp_path):
        import asyncio

        from repro.serve.service import FabricService

        path = tmp_path / "serve.json"
        assert main([
            "serve", "--ports", "16", "--load", "0.6", "--seed", "3", "--retries", "2",
            "--protection", "1", "--queue-capacity", "8", "--shed-policy", "priority",
            "--max-batch", "3", "--churn", "full", "--json", str(path),
        ]) == 0
        capsys.readouterr()
        service = FabricService(
            ConferenceNetwork.build("indirect-binary-cube", 16, dilation=4),
            retry=RetryPolicy(max_retries=2),
            rng=3,
            protection=1,
            queue_capacity=8,
            shed_policy="priority",
            max_batch=3,
            churn=ChurnPolicy(incremental=False),
            capacity_model="abstract",
        )
        workload = uniform_partition(16, load=0.6, seed=3)

        async def demo():
            runner = asyncio.create_task(service.run())
            opened = await asyncio.gather(*(service.open_conference(c.members) for c in workload))
            closed = await asyncio.gather(*(service.close(r.session_id) for r in opened if r.ok))
            runner.cancel()
            try:
                await runner
            except asyncio.CancelledError:
                pass
            return [*opened, *closed]

        responses = asyncio.run(demo())
        stats = service.healing.stats
        assert _json(path) == _as_saved({
            "protection": 1,
            "recovery": {
                **stats.summarize_recovery(stats.recovery_samples),
                "plan_hits": stats.plan_hits,
                "plan_misses": stats.plan_misses,
                "plan_stale": stats.plan_stale,
            },
            "responses": [result_to_dict(r) for r in responses],
        })

    def test_bench_serve(self, capsys, tmp_path):
        from repro.serve.bench import run_serve_bench

        path = tmp_path / "bench.json"
        assert main([
            "bench-serve", "--ports", "16", "--dilation", "2", "--conferences", "40",
            "--seed", "2", "--arrival-rate", "3", "--mean-size", "3", "--mean-hold", "9",
            "--resize-prob", "0.4", "--queue-capacity", "16", "--shed-policy", "shed-largest",
            "--max-batch", "5", "--retries", "3", "--protection", "1", "--faults",
            "--mttf", "150", "--mttr", "4", "--drift-limit", "2",
            "--capacity-model", "buffered", "--lanes", "2", "--cycles-per-tick", "16",
            "--json", str(path),
        ]) == 0
        capsys.readouterr()
        report = run_serve_bench(
            ConferenceNetwork.build("indirect-binary-cube", 16, dilation=2),
            conferences=40,
            seed=2,
            arrival_rate=3.0,
            mean_size=3.0,
            mean_hold_ticks=9.0,
            resize_prob=0.4,
            queue_capacity=16,
            shed_policy="shed-largest",
            max_batch=5,
            churn=ChurnPolicy(drift_limit=2),
            retry=RetryPolicy(max_retries=3),
            fault_process=FaultProcessConfig(mean_time_to_failure=150, mean_time_to_repair=4),
            protection=1,
            capacity_model="buffered",
            perf=PerfModelConfig(lanes=2, cycles_per_tick=16),
        )
        assert _json(path) == _as_saved(result_to_dict(report))

    def test_bench_cluster(self, capsys, tmp_path):
        from repro.cluster.bench import run_cluster_bench

        path = tmp_path / "bench.json"
        assert main([
            "bench-cluster", "--ports", "16", "--shards", "3", "--dilation", "8",
            "--conferences", "40", "--seed", "4", "--arrival-rate", "6", "--mean-size", "3",
            "--mean-hold", "12", "--resize-prob", "0.3", "--queue-capacity", "32",
            "--max-batch", "4", "--retries", "2", "--protection", "1",
            "--migration-budget", "2", "--json", str(path),
        ]) == 0
        capsys.readouterr()
        report = run_cluster_bench(
            topology="indirect-binary-cube",
            ports=16,
            shards=3,
            dilation=8,
            conferences=40,
            seed=4,
            arrival_rate=6.0,
            mean_size=3.0,
            mean_hold_ticks=12.0,
            resize_prob=0.3,
            queue_capacity=32,
            shed_policy="reject-newest",
            max_batch=4,
            churn=ChurnPolicy(),
            retry=RetryPolicy(max_retries=2),
            migration_budget=2,
            protection=1,
        )
        assert _json(path) == _as_saved(result_to_dict(report))

    def test_cluster(self, capsys, tmp_path):
        from repro.cluster.bench import run_cluster_bench

        path = tmp_path / "drill.json"
        main([
            "cluster", "--ports", "16", "--shards", "3", "--conferences", "40",
            "--seed", "5", "--kill-at", "6", "--add-at", "15", "--faults",
            "--protection", "1", "--json", str(path),
        ])
        capsys.readouterr()
        report = run_cluster_bench(
            topology="indirect-binary-cube",
            ports=16,
            shards=3,
            conferences=40,
            seed=5,
            resize_prob=0.2,
            churn=ChurnPolicy(),
            retry=RetryPolicy(max_retries=5),
            fault_process=FaultProcessConfig(mean_time_to_failure=400, mean_time_to_repair=5),
            kill_shard_at=6,
            add_shard_at=15,
            protection=1,
        )
        assert _json(path) == _as_saved(result_to_dict(report))

    def test_slo(self, capsys, tmp_path):
        from repro.obs import SLOEvaluator
        from repro.report.slo_report import build_slo_report
        from repro.serve.bench import run_serve_bench

        path = tmp_path / "slo.json"
        main([
            "slo", "--ports", "16", "--conferences", "40", "--faults", "--seed", "3",
            "--queue-capacity", "12", "--retries", "1", "--protection", "1",
            "--json", str(path),
        ])
        capsys.readouterr()
        slo = SLOEvaluator()
        report = run_serve_bench(
            ConferenceNetwork.build("indirect-binary-cube", 16, dilation=4),
            conferences=40,
            seed=3,
            resize_prob=0.2,
            queue_capacity=12,
            retry=RetryPolicy(max_retries=1),
            fault_process=FaultProcessConfig(mean_time_to_failure=400, mean_time_to_repair=5),
            protection=1,
            slo=slo,
        )
        assert _json(path) == _as_saved(build_slo_report(slo, context={
            "topology": "indirect-binary-cube",
            "ports": 16,
            "seed": 3,
            "conferences": report.conferences,
            "ticks": report.ticks,
            "throughput": report.throughput,
            "fault_transitions": report.fault_transitions,
        }))


class TestServiceKnobs:
    """A flag group a subcommand does not register leaves the library default."""

    def knobs(self, *argv):
        return _service_knobs(build_parser().parse_args(list(argv)))

    def test_cluster_has_no_queue_knobs(self):
        knobs = self.knobs("cluster")
        assert not {"queue_capacity", "shed_policy", "max_batch", "mean_size"} & set(knobs)

    def test_slo_has_no_churn_or_perf_knobs(self):
        knobs = self.knobs("slo")
        assert not {"churn", "capacity_model", "perf", "shed_policy", "max_batch"} & set(knobs)
        assert knobs["queue_capacity"] == 256

    def test_serve_has_no_workload_or_fault_knobs(self):
        knobs = self.knobs("serve")
        assert not {"seed", "conferences", "fault_process"} & set(knobs)

    def test_retries_zero_disables_retry(self):
        assert self.knobs("bench-cluster")["retry"] is None


class TestTelemetryLifecycle:
    def test_endpoint_stops_when_the_command_raises(self, capsys, monkeypatch):
        import repro.serve.bench

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.serve.bench, "run_serve_bench", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["bench-serve", "--ports", "16", "--listen", ":0"])
        url = capsys.readouterr().out.split("exposition: ")[1].split()[0]
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(f"{url}/healthz", timeout=2)

    def test_endpoint_serves_during_the_run(self, capsys, monkeypatch):
        import repro.serve.bench

        seen = {}
        real = repro.serve.bench.run_serve_bench

        def probe(*args, **kwargs):
            url = capsys.readouterr().out.split("exposition: ")[1].split()[0]
            with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
                seen["status"] = response.status
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.serve.bench, "run_serve_bench", probe)
        assert main(["bench-serve", "--ports", "16", "--conferences", "10", "--listen", ":0"]) == 0
        assert seen == {"status": 200}
