"""Command-line interface: ``conference-net`` / ``python -m repro``.

Subcommands regenerate the experiments from DESIGN.md's index and offer
quick interactive inspection of networks and conference routings::

    conference-net show --topology omega --ports 16
    conference-net route --topology indirect-binary-cube --ports 16 \
        --conference 0,5,9 --conference 12,13
    conference-net worstcase --ports 16
    conference-net cost --ports 16,64,256
    conference-net blocking --topology omega --ports 64 --dilations 1,2,4,8
    conference-net schedule --ports 32 --load 0.8
    conference-net faults --ports 32 --count 4 --no-relay
    conference-net availability --topology extra-stage-cube --ports 32
    conference-net sweep --ports 64 --trials 200 --workers 4
    conference-net trace --ports 16 --out trace.jsonl
    conference-net serve --ports 32 --load 0.5
    conference-net bench-serve --ports 64 --conferences 500 --faults
    conference-net cluster --ports 16 --shards 4 --kill-at 10 --add-at 30
    conference-net bench-cluster --ports 16 --shards 4 --invariant-json inv.json
    conference-net slo --ports 32 --faults --json slo.json

Observability: ``availability``, ``faults``, and ``sweep`` accept
``--trace-out``/``--metrics-out`` to export a JSONL event trace and a
Prometheus (or JSON) metrics dump alongside their normal output; the
``trace`` subcommand runs a live fault-injection scenario purely to
produce those artifacts.  The long-running commands (``serve``,
``bench-serve``, ``cluster``, ``bench-cluster``, ``slo``) additionally
take ``--slo-out`` (per-tick SLO evaluation with burn-rate alerts),
``--flight-out`` (flight-recorder incident bundles), and ``--listen``
(a live ``/metrics`` / ``/healthz`` / ``/slo`` HTTP endpoint).
Telemetry is pure observation — results are byte-identical with and
without the flags.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager, nullcontext

from repro.analysis.cost import cost_table
from repro.analysis.resilience import (
    availability_over_time,
    random_link_faults,
    retry_ablation,
    survivability,
)
from repro.core.churn import ChurnPolicy
from repro.core.healing import RetryPolicy
from repro.analysis.scheduling import schedule_slots
from repro.analysis.theory import stage_profile_law
from repro.analysis.worstcase import (
    cube_adversarial_set,
    matching_stage_profile,
)
from repro.core.network import ConferenceNetwork
from repro.obs import (
    ExpositionServer,
    FlightRecorder,
    MetricsRegistry,
    SLOEvaluator,
    Tracer,
    collecting,
)
from repro.perfmodel import PerfModelConfig
from repro.report.ascii import render_network, render_routes, render_stage_profile
from repro.report.serialize import result_to_dict, save_json
from repro.report.tables import render_table
from repro.core.routing import route_conference
from repro.serve.backpressure import ShedPolicy
from repro.sim.faults import FaultProcessConfig
from repro.sim.scenarios import blocking_vs_dilation
from repro.topology.builders import PAPER_TOPOLOGIES, TOPOLOGY_BUILDERS, build
from repro.util.validation import check_network_size
from repro.workloads.generators import uniform_partition

__all__ = ["main", "build_parser"]


def _ports_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _network_size(text: str) -> int:
    """``--ports``: a power of two >= 2, the rule of every (binary) topology builder."""
    try:
        check_network_size(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a power of two >= 2, got {text!r}") from None
    return int(text)


def _list_of(parse):
    """An argparse type for a comma-separated list, each entry checked by ``parse``."""

    def parse_list(text: str) -> list:
        return [parse(x) for x in text.split(",") if x]

    return parse_list


_network_sizes = _list_of(_network_size)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _fraction(text: str) -> float:
    """A fraction in [0, 1] (``--load``, ``--resize-prob``); anything else is a usage error."""
    value = _float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in [0, 1], got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """A finite number > 0 (durations, rates, means); anything else is a usage error."""
    value = _float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _float_at_least(low: float):
    """An argparse type for a finite number >= ``low``; anything else is a usage error."""

    def parse(text: str) -> float:
        value = _float(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite number >= {low:g}, got {text!r}")
        return value

    return parse


def _int_at_least(low: int):
    """An argparse type for an integer >= ``low``; anything else is a usage error."""

    def parse(text: str) -> int:
        if not re.fullmatch(r"-?[0-9]+", text) or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)

    return parse


#: Service-command integer flags: counts, sizes and budgets are >= 1,
#: except ``--protection`` and ``--drift-limit``, which may be 0.
_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _listen_address(text: str) -> tuple[str, int]:
    """``--listen [HOST]:PORT`` as ``(host, port)``; HOST defaults to 127.0.0.1.

    PORT must be in 0-65535 (an empty PORT means 0, a free port); HOST is
    a name or an IPv4 address, since the endpoint listens on IPv4.
    """
    match = re.fullmatch(r"([^\[\]:]*):([0-9]{0,5})", text)
    if match is None or int(match[2] or 0) > 65535:
        raise argparse.ArgumentTypeError(
            f"expected [HOST]:PORT with PORT in 0-65535, got {text!r}"
        )
    return match[1] or "127.0.0.1", int(match[2] or 0)


def _version() -> str:
    """Package version: installed metadata first, source tree fallback."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return getattr(repro, "__version__", "unknown")


def _add_telemetry_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event/span trace of the run (pure observation)",
    )
    cmd.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write collected metrics (Prometheus text; JSON when PATH ends in .json)",
    )


def _add_churn_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--churn",
        default="incremental",
        choices=("incremental", "full"),
        help="membership-change engine: grow/shrink routes in place "
        "(incremental) or recompute from scratch on every change (full)",
    )
    cmd.add_argument(
        "--drift-limit",
        type=_nonnegative_int,
        default=None,
        metavar="LINKS",
        help="conflict-multiplicity drift (extra links vs a from-scratch "
        "route) above which an incremental change falls back to a full "
        "reroute (default: never)",
    )


def _add_workload_flags(
    cmd: argparse.ArgumentParser, *, conferences: int, mean_size: bool = True
) -> None:
    """The seeded churn workload of the bench-style commands."""
    cmd.add_argument("--conferences", type=_positive_int, default=conferences)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument(
        "--arrival-rate", type=_positive_float, default=4.0, help="mean conference opens per tick"
    )
    if mean_size:
        cmd.add_argument(
            "--mean-size", type=_float_at_least(2), default=4.0,
            help="mean conference size (ports)",
        )
    cmd.add_argument(
        "--mean-hold", type=_positive_float, default=20.0, help="mean session lifetime (ticks)"
    )
    cmd.add_argument(
        "--resize-prob", type=_fraction, default=0.2, help="per-tick chance of one join/leave"
    )


def _add_queue_flags(cmd: argparse.ArgumentParser, *, max_batch: int = 64) -> None:
    """Admission-queue bound, shedding policy and per-tick batch size."""
    cmd.add_argument("--queue-capacity", type=_positive_int, default=256)
    cmd.add_argument(
        "--shed-policy",
        default="reject-newest",
        choices=sorted(p.value for p in ShedPolicy),
    )
    cmd.add_argument("--max-batch", type=_positive_int, default=max_batch)


def _add_healing_flags(
    cmd: argparse.ArgumentParser, *, retries: int = 5, per_shard: bool = False
) -> None:
    """The retry budget and the backup-plan budget F."""
    cmd.add_argument("--retries", type=int, default=retries, help="retry budget (0 disables retries)")
    cmd.add_argument(
        "--protection", type=_nonnegative_int, default=0, metavar="F",
        help="backup plans per conference on every shard (0 = reactive)"
        if per_shard
        else "backup plans per conference (0 = reactive reroute only)",
    )


def _add_fault_flags(
    cmd: argparse.ArgumentParser,
    *,
    faults_help: str = "fire a seeded fault timeline underneath the workload",
) -> None:
    """Opt-in seeded link faults with their per-link MTTF/MTTR."""
    cmd.add_argument("--faults", action="store_true", help=faults_help)
    _add_mttf_mttr(cmd, mttf=400.0, mttr=5.0)


def _add_mttf_mttr(cmd: argparse.ArgumentParser, *, mttf: float, mttr: float) -> None:
    """The per-link mean time to failure and to repair."""
    cmd.add_argument(
        "--mttf", type=_positive_float, default=mttf, help="mean time to failure per link"
    )
    cmd.add_argument(
        "--mttr", type=_positive_float, default=mttr, help="mean time to repair per link"
    )


def _retry_policy(args: argparse.Namespace, **overrides) -> "RetryPolicy | None":
    """The ``--retries`` budget as a policy; ``None`` when 0 disables retries."""
    if args.retries <= 0:
        return None
    return RetryPolicy(max_retries=args.retries, **overrides)


def _fault_process(args: argparse.Namespace) -> "FaultProcessConfig | None":
    """The ``--mttf``/``--mttr`` link-fault process.

    ``None`` when the command has a ``--faults`` switch and it is off;
    commands without one always inject faults.
    """
    if not getattr(args, "faults", True):
        return None
    return FaultProcessConfig(
        mean_time_to_failure=args.mttf, mean_time_to_repair=args.mttr
    )


def _recovery_rows(report, *, plan_counts: bool) -> list[dict]:
    """Bench-table rows for the protection budget and recovery ticks."""
    recovery = report.recovery
    rows = [{"metric": "protection (plans/conference)", "value": report.protection}]
    if plan_counts:
        rows.append({"metric": "plan hits / misses / stale", "value": (
            f"{recovery.get('plan_hits', 0)} / "
            f"{recovery.get('plan_misses', 0)} / "
            f"{recovery.get('plan_stale', 0)}"
        )})
    rows.append({"metric": "recovery ticks p50 / p95 / max", "value": (
        f"{recovery.get('recovery_ticks_p50', 0.0)} / "
        f"{recovery.get('recovery_ticks_p95', 0.0)} / "
        f"{recovery.get('recovery_ticks_max', 0.0)}"
    )})
    return rows


def _report_footer(args: argparse.Namespace, report) -> None:
    """A bench report's ``result:`` line, then its ``--json`` file."""
    print(f"\nresult: {'ok' if report.ok else 'FAILED: ' + str(report.reason)}")
    if args.json:
        save_json(args.json, result_to_dict(report))
        print(f"report written to {args.json}")


def _delivery_rows(delivery: "dict | None") -> list[dict]:
    """Bench-table rows for a buffered-delivery block (none in abstract mode)."""
    if delivery is None:
        return []
    config, lat = delivery["config"], delivery["latency"]

    def cell(v):
        return round(v, 1) if v is not None else "-"

    return [
        {"metric": "delivery model", "value": (
            f"buffered L={config['lanes']} D={config['buffer_depth']} "
            f"F={config['flits_per_packet']}"
            + (" tdm" if config["tdm"] else "")
        )},
        {"metric": "delivered / offered packets", "value": (
            f"{delivery['delivered_packets']} / {delivery['offered_packets']} "
            f"({round(delivery['delivery_ratio'], 4)})"
        )},
        {"metric": "delivery latency p50 / p95 / p99 (cycles)", "value": (
            f"{cell(lat['p50'])} / {cell(lat['p95'])} / {cell(lat['p99'])}"
        )},
    ]


def _add_perf_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--capacity-model",
        default="abstract",
        choices=("abstract", "buffered"),
        help="link-capacity model: the admission ledger's dilation bound "
        "(abstract) or a per-tick cycle-level wormhole simulation of the "
        "live routes (buffered; pure observation, decisions unchanged)",
    )
    cmd.add_argument(
        "--lanes",
        type=_positive_int,
        default=1,
        metavar="L",
        help="buffered model: lanes per inter-stage link (default 1)",
    )
    cmd.add_argument(
        "--buffer-depth",
        type=_positive_int,
        default=4,
        metavar="FLITS",
        help="buffered model: per-lane FIFO depth in flits (default 4)",
    )
    cmd.add_argument(
        "--flits",
        type=_positive_int,
        default=4,
        metavar="F",
        help="buffered model: flits per packet (default 4)",
    )
    cmd.add_argument(
        "--tdm",
        action="store_true",
        help="buffered model: drive lane/slot assignment from the "
        "conflict colouring's TDM frame instead of space-division lanes",
    )
    cmd.add_argument(
        "--cycles-per-tick",
        type=_positive_int,
        default=64,
        metavar="N",
        help="buffered model: fabric cycles simulated per service tick "
        "(default 64)",
    )


def _service_knobs(args: argparse.Namespace) -> dict:
    """The library keywords of the service flag groups ``args`` carries.

    healing -> ``retry``/``protection``; queue -> ``queue_capacity``/
    ``shed_policy``/``max_batch``; churn -> ``churn``; perf ->
    ``capacity_model``/``perf``; faults -> ``fault_process``; workload ->
    the seeded churn workload.  A group (or flag) the subcommand did not
    register contributes nothing, so the library default applies:
    ``cluster`` keeps ``run_cluster_bench``'s ``max_batch=256``, and
    ``slo`` (only ``--queue-capacity`` of the queue group) the serve
    defaults for the rest.
    """
    given = vars(args)
    knobs = {k: given[k] for k in ("queue_capacity", "shed_policy", "max_batch") if k in given}
    if "retries" in given:
        knobs.update(retry=_retry_policy(args), protection=args.protection)
    if "churn" in given:
        knobs["churn"] = ChurnPolicy(
            incremental=args.churn == "incremental", drift_limit=args.drift_limit
        )
    if "capacity_model" in given:
        knobs["capacity_model"] = args.capacity_model
        knobs["perf"] = None if args.capacity_model != "buffered" else PerfModelConfig(
            lanes=args.lanes,
            buffer_depth=args.buffer_depth,
            flits_per_packet=args.flits,
            tdm=args.tdm,
            cycles_per_tick=args.cycles_per_tick,
        )
    if "faults" in given:
        knobs["fault_process"] = _fault_process(args)
    if "conferences" in given:
        knobs.update(
            conferences=args.conferences,
            seed=args.seed,
            arrival_rate=args.arrival_rate,
            mean_hold_ticks=args.mean_hold,
            resize_prob=args.resize_prob,
        )
        if "mean_size" in given:
            knobs["mean_size"] = args.mean_size
    return knobs


@contextmanager
def _telemetry(args: argparse.Namespace, *, slo: bool = False) -> Iterator[dict]:
    """One command's telemetry, from set-up to the final writes.

    Yields the ``tracer``/``metrics``/``slo``/``flight`` keywords the flags
    ask for (with ``slo=True`` the evaluator always exists).  Observation
    only: each stays ``None`` unless requested, and the layers gate every
    touch point on that, so results are byte-identical with and without
    the flags.  After the command body the trace, metrics and SLO status
    are written and the ``--listen`` endpoint lingers; the endpoint is
    stopped even when the body raises.
    """

    def flag(name):
        return getattr(args, name, None)

    # The flight recorder rides the tracer's tap, and the exposition
    # endpoint needs a registry to scrape — both imply the collector
    # even when no --trace-out/--metrics-out file was asked for.
    tracer = Tracer() if flag("trace_out") or flag("flight_out") else None
    registry = MetricsRegistry() if flag("metrics_out") or flag("listen") else None
    evaluator = flight = server = None
    if slo or flag("slo_out") or flag("listen") or flag("flight_out"):
        evaluator = SLOEvaluator()
    if flag("flight_out"):
        flight = FlightRecorder(out_dir=args.flight_out)
        if tracer is not None:
            flight.watch(tracer)
        flight.attach_slo(evaluator)
    if flag("listen"):
        host, port = args.listen
        server = ExpositionServer(metrics=registry, slo=evaluator, host=host, port=port).start()
        print(f"exposition: {server.url} (/metrics /healthz /slo)")
    try:
        yield {"tracer": tracer, "metrics": registry, "slo": evaluator, "flight": flight}
        if flag("trace_out"):
            n = tracer.write_jsonl(args.trace_out)
            suffix = " (ring buffer truncated)" if tracer.truncated else ""
            print(f"trace: {n} records -> {args.trace_out}{suffix}")
        if flag("metrics_out"):
            registry.write(args.metrics_out)
            print(f"metrics: {len(registry)} families -> {args.metrics_out}")
        if flag("slo_out"):
            evaluator.write(args.slo_out)
            print(f"slo: state {evaluator.state} -> {args.slo_out}")
        if flight is not None:
            print(
                f"flight: {flight.dumped} incident bundle(s) -> {args.flight_out} "
                f"({flight.seen} records seen, {flight.suppressed} dumps debounced)"
            )
        if server is not None and args.listen_linger > 0:
            print(f"exposition: lingering {args.listen_linger:g}s at {server.url}")
            time.sleep(args.listen_linger)
    finally:
        if server is not None:
            server.stop()


def _add_live_obs_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--slo-out",
        metavar="PATH",
        help="evaluate the default SLO set every tick and write the final "
        "/slo status document (JSON) here",
    )
    cmd.add_argument(
        "--flight-out",
        metavar="DIR",
        help="arm the flight recorder: recent spans/events/metric deltas "
        "ring in memory and dump as a JSONL incident bundle into DIR on an "
        "SLO page or a link fault",
    )
    cmd.add_argument(
        "--listen",
        type=_listen_address,
        metavar="[HOST]:PORT",
        help="serve /metrics, /healthz and /slo over HTTP for the duration "
        "of the run (':0' picks a free port)",
    )
    cmd.add_argument(
        "--listen-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the exposition endpoint up this long after the run "
        "settles (for scrapes of the final state)",
    )


def _add_fabric_flags(
    cmd: argparse.ArgumentParser,
    *,
    topology: str = "indirect-binary-cube",
    ports: int = 16,
    dilation: "int | None" = None,
    shards: "int | None" = None,
) -> None:
    """``--topology``/``--ports``, plus ``--shards``/``--dilation`` when given defaults."""
    cmd.add_argument("--topology", default=topology, choices=sorted(TOPOLOGY_BUILDERS))
    if shards is None:
        cmd.add_argument("--ports", type=_network_size, default=ports)
    else:
        cmd.add_argument("--ports", type=_network_size, default=ports, help="ports per shard fabric")
        cmd.add_argument("--shards", type=_positive_int, default=shards)
    if dilation is not None:
        cmd.add_argument("--dilation", type=_positive_int, default=dilation)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="conference-net",
        description="Multistage conference switching networks (ICPP 2002 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render a topology's wiring")
    _add_fabric_flags(show)

    route = sub.add_parser("route", help="route conferences and show link occupancy")
    _add_fabric_flags(route)
    route.add_argument(
        "--conference",
        action="append",
        required=True,
        metavar="P0,P1,...",
        help="comma-separated member ports; repeat per conference",
    )
    route.add_argument("--no-relay", action="store_true", help="disable the output-mux relay")

    worst = sub.add_parser("worstcase", help="per-stage worst-case multiplicity per topology")
    worst.add_argument("--ports", type=_network_size, default=16)

    cost = sub.add_parser("cost", help="hardware cost comparison table")
    cost.add_argument("--ports", type=_network_sizes, default=[16, 64, 256], metavar="N1,N2,...")

    blocking = sub.add_parser("blocking", help="blocking probability vs link dilation")
    _add_fabric_flags(blocking, topology="omega", ports=64)
    blocking.add_argument(
        "--dilations", type=_list_of(_positive_int), default=[1, 2, 4, 8], metavar="D1,D2,..."
    )
    blocking.add_argument("--duration", type=_positive_float, default=1000.0)
    blocking.add_argument("--seed", type=int, default=0)

    schedule = sub.add_parser(
        "schedule", help="TDM slot assignment for a random conference set"
    )
    _add_fabric_flags(schedule, ports=32)
    schedule.add_argument("--load", type=_fraction, default=0.8)
    schedule.add_argument("--seed", type=int, default=0)

    faults = sub.add_parser(
        "faults", help="conference survivability under random link faults"
    )
    _add_fabric_flags(faults, ports=32)
    faults.add_argument("--count", type=_nonnegative_int, default=4, help="number of dead links")
    faults.add_argument("--load", type=_fraction, default=0.6)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--relay",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="evaluate only with (--relay) or without (--no-relay) the mux relay; default: both",
    )
    faults.add_argument(
        "--include-injections",
        action="store_true",
        help="let level-0 input wires fail too (members cut off entirely)",
    )
    _add_telemetry_flags(faults)

    avail = sub.add_parser(
        "availability",
        help="live fault injection: availability over time with self-healing",
    )
    _add_fabric_flags(avail, topology="extra-stage-cube", ports=32)
    avail.add_argument("--duration", type=_positive_float, default=1500.0)
    _add_mttf_mttr(avail, mttf=1500.0, mttr=30.0)
    avail.add_argument("--load", type=_fraction, default=0.6, help="steady population port load")
    _add_healing_flags(avail, retries=10)
    avail.add_argument("--seed", type=int, default=0)
    avail.add_argument(
        "--traffic",
        action="store_true",
        help="also run the stochastic-traffic retry ablation (slower)",
    )
    _add_telemetry_flags(avail)

    sweep = sub.add_parser(
        "sweep",
        help="sharded Monte Carlo sweep on the parallel experiment engine",
    )
    sweep.add_argument(
        "--experiment",
        default="random-load",
        choices=("random-load", "worstcase"),
        help="random-load: F1-style dilation sweep; worstcase: randomized search",
    )
    _add_fabric_flags(sweep, ports=64)
    sweep.add_argument("--trials", type=_positive_int, default=100)
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="process-pool width; omit for the in-process serial engine "
        "(results are identical either way)",
    )
    sweep.add_argument(
        "--chunk-size",
        type=_positive_int,
        default=None,
        help="trials per submitted batch (result-invariant; default ~4 chunks/worker)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--loads",
        type=_list_of(_fraction),
        default=[0.25, 0.5, 0.75, 1.0],
        metavar="L1,L2,...",
        help="offered loads for the random-load sweep",
    )
    sweep.add_argument(
        "--workload",
        default="uniform",
        choices=("uniform", "clustered", "interleaved"),
    )
    sweep.add_argument(
        "--pool-size", type=_positive_int, default=64, help="worstcase: pairs seeded per trial"
    )
    sweep.add_argument("--json", metavar="PATH", help="also write the full records as JSON")
    _add_telemetry_flags(sweep)

    trace = sub.add_parser(
        "trace",
        help="run a live fault-injection scenario and export its trace/metrics",
    )
    _add_fabric_flags(trace, topology="extra-stage-cube", dilation=4)
    trace.add_argument("--duration", type=_positive_float, default=300.0)
    _add_mttf_mttr(trace, mttf=200.0, mttr=10.0)
    trace.add_argument("--retries", type=int, default=5, help="retry budget (0 disables retries)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--capacity", type=_positive_int, default=65536, help="trace ring-buffer capacity (records)"
    )
    trace.add_argument("--out", metavar="PATH", help="write the trace as JSON Lines")
    trace.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write collected metrics (Prometheus text; JSON when PATH ends in .json)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the online conference service (asyncio facade) over a demo workload",
    )
    _add_fabric_flags(serve, ports=32, dilation=4)
    serve.add_argument("--load", type=_fraction, default=0.5, help="port load of the demo workload")
    serve.add_argument("--seed", type=int, default=0)
    _add_healing_flags(serve)
    _add_queue_flags(serve)
    serve.add_argument("--json", metavar="PATH", help="write every response as JSON (shared result schema)")
    _add_churn_flags(serve)
    _add_perf_flags(serve)
    _add_telemetry_flags(serve)
    _add_live_obs_flags(serve)

    bench_serve = sub.add_parser(
        "bench-serve",
        help="seeded churn benchmark of the conference service",
    )
    _add_fabric_flags(bench_serve, ports=64, dilation=4)
    _add_workload_flags(bench_serve, conferences=500)
    _add_queue_flags(bench_serve)
    _add_healing_flags(bench_serve)
    _add_fault_flags(bench_serve)
    bench_serve.add_argument("--json", metavar="PATH", help="write the report as JSON (shared result schema)")
    _add_churn_flags(bench_serve)
    _add_perf_flags(bench_serve)
    _add_telemetry_flags(bench_serve)
    _add_live_obs_flags(bench_serve)

    cluster = sub.add_parser(
        "cluster",
        help="sharded multi-fabric drill: failover and elastic scale-up",
    )
    _add_fabric_flags(cluster, shards=4)
    _add_workload_flags(cluster, conferences=120, mean_size=False)
    cluster.add_argument(
        "--kill-at", type=int, default=10, metavar="TICK",
        help="fail the busiest shard at this tick (negative disables)",
    )
    cluster.add_argument(
        "--add-at", type=int, default=30, metavar="TICK",
        help="scale a fresh shard in at this tick (negative disables)",
    )
    _add_fault_flags(
        cluster, faults_help="also fire seeded per-shard link-fault timelines underneath"
    )
    _add_healing_flags(cluster, per_shard=True)
    cluster.add_argument("--migration-budget", type=_positive_int, default=8, help="moves started per tick")
    cluster.add_argument("--json", metavar="PATH", help="write the report as JSON (shared result schema)")
    _add_churn_flags(cluster)
    _add_perf_flags(cluster)
    _add_telemetry_flags(cluster)
    _add_live_obs_flags(cluster)

    bench_cluster = sub.add_parser(
        "bench-cluster",
        help="seeded churn benchmark of the cluster (shard-count-invariant metrics)",
    )
    _add_fabric_flags(bench_cluster, shards=2)
    bench_cluster.add_argument(
        "--dilation", type=_positive_int, default=None,
        help="links per stage hop (default: one per port, so capacity never denies)",
    )
    _add_workload_flags(bench_cluster, conferences=200)
    _add_queue_flags(bench_cluster, max_batch=256)
    _add_healing_flags(bench_cluster, retries=0, per_shard=True)
    bench_cluster.add_argument("--migration-budget", type=_positive_int, default=8, help="moves started per tick")
    bench_cluster.add_argument("--json", metavar="PATH", help="write the full report as JSON (shared result schema)")
    bench_cluster.add_argument(
        "--invariant-json",
        metavar="PATH",
        help="write the shard-count-invariant metrics as JSON (byte-identical "
        "for a fixed seed across shard counts; the determinism CI job cmp's these)",
    )
    _add_churn_flags(bench_cluster)
    _add_perf_flags(bench_cluster)
    _add_telemetry_flags(bench_cluster)
    _add_live_obs_flags(bench_cluster)

    slo_cmd = sub.add_parser(
        "slo",
        help="run a seeded churn drill and report live SLO health "
        "(burn rates, percentiles, incident bundles)",
    )
    _add_fabric_flags(slo_cmd, ports=32, dilation=4)
    _add_workload_flags(slo_cmd, conferences=200)
    slo_cmd.add_argument("--queue-capacity", type=_positive_int, default=256)
    _add_healing_flags(slo_cmd)
    _add_fault_flags(slo_cmd)
    slo_cmd.add_argument("--json", metavar="PATH", help="write the SLO report as JSON (shared result schema)")
    _add_telemetry_flags(slo_cmd)
    _add_live_obs_flags(slo_cmd)
    return parser


def _cmd_show(args: argparse.Namespace) -> int:
    print(render_network(build(args.topology, args.ports)))
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    groups = [_ports_list(spec) for spec in args.conference]
    network = ConferenceNetwork.build(
        args.topology,
        args.ports,
        dilation=args.ports,  # generous so inspection never trips capacity
        relay_enabled=not args.no_relay,
    )
    result = network.realize(groups)
    print(render_routes(network.topology, result.routes))
    print()
    print(result.conflicts.describe())
    print("delivery:", "correct" if result.ok else f"BROKEN: {result.delivery.errors}")
    return 0 if result.ok else 1


def _cmd_worstcase(args: argparse.Namespace) -> int:
    n = args.ports.bit_length() - 1
    profiles: dict[str, Sequence[int]] = {}
    for name in PAPER_TOPOLOGIES:
        profiles[f"{name} (measured)"] = matching_stage_profile(build(name, args.ports))
    profiles["cube/baseline law"] = stage_profile_law(n)
    profiles["omega upper bound"] = stage_profile_law(n, topology="omega")
    print(render_stage_profile(profiles, title=f"worst-case multiplicity per link level, N={args.ports}"))
    level = max(1, n // 2)
    adv = cube_adversarial_set(args.ports, level)
    print(f"\ncube adversarial witness (level {level}): "
          f"{[list(c.members) for c in adv]}")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    rows = [c.row() for c in cost_table(args.ports)]
    print(render_table(rows, title="hardware cost comparison (gate-equivalents)"))
    return 0


def _cmd_blocking(args: argparse.Namespace) -> int:
    rows = blocking_vs_dilation(
        args.topology, args.ports, args.dilations, duration=args.duration, seed=args.seed
    )
    print(render_table(rows, title=f"blocking vs dilation ({args.topology}, N={args.ports})"))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    net = build(args.topology, args.ports)
    workload = uniform_partition(args.ports, load=args.load, seed=args.seed)
    routes = [route_conference(net, conf) for conf in workload]
    result = schedule_slots(routes)
    rows = [
        {
            "slot": slot,
            "conferences": " ".join(
                str(list(conf.members))
                for conf in workload
                if result.slots[conf.conference_id] == slot
            ),
        }
        for slot in range(result.n_slots)
    ]
    print(render_table(rows, title=f"TDM schedule ({args.topology}, N={args.ports})"))
    print(
        f"\n{len(workload)} conferences -> {result.n_slots} slots "
        f"(required dilation {result.clique_bound}; "
        f"{'optimal' if result.optimal else 'gap ' + str(result.n_slots - result.clique_bound)})"
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    net = build(args.topology, args.ports)
    workload = uniform_partition(args.ports, load=args.load, seed=args.seed)
    dead = random_link_faults(
        net, args.count, seed=args.seed, include_injections=args.include_injections
    )
    variants = (True, False) if args.relay is None else (args.relay,)
    with _telemetry(args) as obs:
        tracer, registry = obs["tracer"], obs["metrics"]
        rows = []
        # Collection on means the timed() hook on route_conference records
        # per-route latency histograms while the survivability scan runs.
        with collecting(registry) if registry is not None else nullcontext():
            for relay in variants:
                rep = survivability(net, list(workload), dead, relay_enabled=relay)
                if tracer is not None:
                    tracer.event(
                        "experiment.survivability",
                        topology=args.topology,
                        relay="on" if relay else "off",
                        conferences=rep.n_conferences,
                        survived=rep.routed,
                        dead_links=len(dead),
                    )
                rows.append(
                    {
                        "relay": "on" if relay else "off",
                        "conferences": rep.n_conferences,
                        "survive": rep.routed,
                        "survival_rate": rep.survival_rate,
                    }
                )
        print(f"dead links: {sorted(dead)}")
        print(render_table(rows, title=f"survivability ({args.topology}, N={args.ports})"))
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    process = _fault_process(args)
    retry = _retry_policy(args, base_delay=1.0, max_delay=2 * args.mttr)
    with _telemetry(args) as obs:
        tracer, registry = obs["tracer"], obs["metrics"]
        rows = availability_over_time(
            args.topology,
            args.ports,
            process=process,
            duration=args.duration,
            retry=retry,
            seed=args.seed,
            load=args.load,
            protection=args.protection,
            tracer=tracer,
            metrics=registry,
        )
        columns = [
            "relay", "protection", "conferences", "availability", "degraded_fraction",
            "dropped", "restored", "lost_calls", "tap_move_events", "reroutes",
            "link_failures", "link_mttr", "conference_mttr",
            "plan_hits", "recovery_ticks_p50", "recovery_ticks_p95",
        ]
        print(render_table(
            rows,
            columns=columns,
            title=f"availability over time ({args.topology}, N={args.ports}, "
                  f"MTTF={args.mttf}, MTTR={args.mttr})",
        ))
        if args.traffic:
            rows = retry_ablation(
                args.topology,
                args.ports,
                process=process,
                retry=retry,
                duration=args.duration,
                seed=args.seed,
            )
            columns = [
                "retry", "offered", "admitted", "availability", "lost_calls",
                "blocked_capacity", "blocked_fault", "blocked_ports",
                "blocked_retry-exhausted", "retries_succeeded",
            ]
            for row in rows:
                # A reason one arm never hit still deserves a 0, not a blank.
                for col in columns[1:]:
                    row.setdefault(col, 0)
            print()
            print(render_table(
                rows,
                columns=columns,
                title="stochastic traffic: bounded backoff vs immediate loss",
            ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as _json

    from repro.parallel.experiments import random_load_arm, search_trials, reduce_search_records

    engine = f"workers={args.workers}" if args.workers else "serial engine"
    with _telemetry(args) as obs:
        tracer, registry = obs["tracer"], obs["metrics"]
        payload: dict = {
            "experiment": args.experiment,
            "topology": args.topology,
            "n_ports": args.ports,
            "trials": args.trials,
            "seed": args.seed,
            "workers": args.workers,
            "chunk_size": args.chunk_size,
        }
        if args.experiment == "random-load":
            rows = []
            arms = {}
            loads = args.loads if args.workload != "interleaved" else [None]
            for load in loads:
                kwargs = {} if load is None else {"load": load}
                arm = random_load_arm(
                    args.topology,
                    args.ports,
                    workload=args.workload,
                    trials=args.trials,
                    seed=args.seed,
                    workers=args.workers,
                    chunk_size=args.chunk_size,
                    metrics=registry,
                    **kwargs,
                )
                arms[str(load)] = arm
                if tracer is not None:
                    tracer.event(
                        "sweep.arm",
                        experiment="random-load",
                        workload=args.workload,
                        load=load,
                        trials=args.trials,
                        **arm["summary"],
                    )
                rows.append({"workload": args.workload, "load": load, **arm["summary"]})
            print(render_table(
                rows,
                title=f"sweep: required dilation ({args.topology}, N={args.ports}, "
                f"{args.trials} trials/arm, {engine})",
            ))
            payload["arms"] = arms
        else:
            records = search_trials(
                args.topology,
                args.ports,
                trials=args.trials,
                pool_size=args.pool_size,
                seed=args.seed,
                workers=args.workers,
                chunk_size=args.chunk_size,
                metrics=registry,
            )
            result = reduce_search_records(records, args.ports)
            if tracer is not None:
                tracer.event(
                    "sweep.arm",
                    experiment="worstcase",
                    trials=args.trials,
                    multiplicity=result.multiplicity,
                    link=result.link,
                )
            witness = [list(c.members) for c in result.witness] if result.witness else []
            print(
                f"worst multiplicity found: {result.multiplicity} on link {result.link} "
                f"({args.trials} trials, {engine})"
            )
            print(f"witness: {witness}")
            payload["records"] = records
            payload["best"] = {
                "multiplicity": result.multiplicity,
                "link": list(result.link) if result.link else None,
                "witness": witness,
            }
        if args.json:
            with open(args.json, "w") as fh:
                _json.dump(payload, fh, indent=2, sort_keys=True)
            print(f"records written to {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.scenarios import run_availability

    tracer = Tracer(capacity=args.capacity)
    with _telemetry(args) as obs:
        run = run_availability(
            args.topology,
            args.ports,
            dilation=args.dilation,
            process=_fault_process(args),
            retry=_retry_policy(args),
            duration=args.duration,
            seed=args.seed,
            tracer=tracer,
            metrics=obs["metrics"],
        )
        tracer.flush_open_spans(t=args.duration)
        counts = tracer.counts()
        rows = [{"record": name, "count": counts[name]} for name in sorted(counts)]
        print(render_table(
            rows,
            title=f"trace of one availability run ({args.topology}, N={args.ports}, "
            f"T={args.duration})",
        ))
        summary = run.summary()
        print(
            f"\n{tracer.emitted} records emitted"
            + (f" ({len(tracer)} retained, ring truncated)" if tracer.truncated else "")
            + f"; availability={summary.get('availability', 1.0):.4f}"
        )
        if args.out:
            n = tracer.write_jsonl(args.out)
            print(f"trace: {n} records -> {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.bench import _recovery
    from repro.serve.service import FabricService

    net = ConferenceNetwork.build(args.topology, args.ports, dilation=args.dilation)
    with _telemetry(args) as obs:
        service = FabricService(net, rng=args.seed, **obs, **_service_knobs(args))
        workload = uniform_partition(args.ports, load=args.load, seed=args.seed)

        async def demo() -> list:
            runner = asyncio.create_task(service.run())
            opened = await asyncio.gather(
                *(service.open_conference(c.members) for c in workload)
            )
            closed = await asyncio.gather(
                *(service.close(r.session_id) for r in opened if r.ok)
            )
            runner.cancel()
            try:
                await runner
            except asyncio.CancelledError:
                pass
            return [*opened, *closed]

        responses = asyncio.run(demo())
        counts = service.shutdown()
        rows = [
            {
                "op": r.kind,
                "session": r.session_id,
                "status": r.status,
                "latency": r.latency,
                "reason": r.reason or "",
            }
            for r in responses
        ]
        print(render_table(
            rows,
            columns=["op", "session", "status", "latency", "reason"],
            title=f"conference service demo ({args.topology}, N={args.ports}, "
            f"{len(workload)} conferences)",
        ))
        settled = service.stats.as_dict()
        print(
            f"\n{settled['admitted']} admitted, {settled['closed']} closed, "
            f"{settled['rejected']} rejected over {settled['ticks']} ticks; "
            f"final sessions: {counts}"
        )
        if args.json:
            save_json(args.json, {
                "protection": service.protection,
                "recovery": _recovery([service.healing.stats]),
                "responses": [result_to_dict(r) for r in responses],
            })
            print(f"responses written to {args.json}")
    return 0 if all(counts[s] == 0 for s in ("queued", "active", "degraded", "down")) else 1


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serve.bench import run_serve_bench

    net = ConferenceNetwork.build(args.topology, args.ports, dilation=args.dilation)
    with _telemetry(args) as obs:
        report = run_serve_bench(net, **obs, **_service_knobs(args))
        svc = report.service
        rows = [
            {"metric": "conferences offered", "value": report.conferences},
            {"metric": "ticks (incl. drain)", "value": report.ticks},
            {"metric": "throughput (admits/tick)", "value": round(report.throughput, 3)},
            {"metric": "admitted", "value": svc["admitted"]},
            {"metric": "membership changes applied", "value": svc["applied"]},
            {"metric": "rejected", "value": svc["rejected"]},
            {"metric": "shed", "value": svc["shed"]},
            {"metric": "fault requeues survived", "value": svc["requeues"]},
            {"metric": "sessions lost", "value": report.lost_sessions},
            {"metric": "peak queue depth", "value": report.peak_queue_depth},
            {"metric": "mean admission latency (ticks)", "value": round(svc["mean_admission_latency"], 3)},
            {"metric": "fault transitions", "value": report.fault_transitions},
            *_recovery_rows(report, plan_counts=True),
            *_delivery_rows(report.delivery),
        ]
        print(render_table(
            rows,
            title=f"serve bench ({args.topology}, N={args.ports}, seed={args.seed}, "
            f"policy={report.shed_policy})",
        ))
        _report_footer(args, report)
    return 0 if report.ok else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.bench import run_cluster_bench

    with _telemetry(args) as obs:
        report = run_cluster_bench(
            topology=args.topology,
            ports=args.ports,
            shards=args.shards,
            migration_budget=args.migration_budget,
            kill_shard_at=args.kill_at if args.kill_at >= 0 else None,
            add_shard_at=args.add_at if args.add_at >= 0 else None,
            **obs,
            **_service_knobs(args),
        )
        shard_rows = [
            {
                "shard": sid,
                "state": info["state"],
                "admitted": info["service"]["admitted"],
                "closed": info["service"]["closed"],
                "requeues": info["service"]["requeues"],
            }
            for sid, info in sorted(report.per_shard.items())
        ]
        print(render_table(
            shard_rows,
            columns=["shard", "state", "admitted", "closed", "requeues"],
            title=f"cluster drill ({args.topology}, N={args.ports} per shard, "
            f"{args.shards} shards, seed={args.seed})",
        ))
        cl = report.cluster
        drill = []
        if report.killed_shard is not None:
            drill.append(f"killed {report.killed_shard} at tick {report.kill_tick}")
        if report.added_shard is not None:
            drill.append(
                f"added {report.added_shard} "
                f"(rebalanced {report.rebalance_fraction:.0%} of live sessions)"
            )
        print(
            f"\n{cl['admitted']} admitted, {cl['closed']} closed over {report.ticks} ticks; "
            f"{cl['failovers']} failover moves, {cl['migrations']} rebalance moves, "
            f"{report.lost_sessions} sessions lost"
            + (f"; drill: {', '.join(drill)}" if drill else "")
        )
        print(
            f"protection F={report.protection}: "
            f"{report.recovery.get('plan_hits', 0)} plan hits, "
            f"{report.recovery.get('plan_misses', 0)} misses, "
            f"{report.recovery.get('plan_stale', 0)} stale; recovery ticks "
            f"p50={report.recovery.get('recovery_ticks_p50', 0.0)} "
            f"p95={report.recovery.get('recovery_ticks_p95', 0.0)} "
            f"max={report.recovery.get('recovery_ticks_max', 0.0)}"
        )
        for problem in report.consistency:
            print(f"INCONSISTENT: {problem}")
        _report_footer(args, report)
    return 0 if report.ok else 1


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.bench import run_cluster_bench

    with _telemetry(args) as obs:
        report = run_cluster_bench(
            topology=args.topology,
            ports=args.ports,
            shards=args.shards,
            dilation=args.dilation,
            migration_budget=args.migration_budget,
            **obs,
            **_service_knobs(args),
        )
        cl = report.cluster
        rows = [
            {"metric": "conferences offered", "value": report.conferences},
            {"metric": "shards", "value": report.shards},
            {"metric": "ticks (incl. drain)", "value": report.ticks},
            {"metric": "throughput (admits/tick)", "value": round(report.throughput, 3)},
            {"metric": "admitted", "value": cl["admitted"]},
            {"metric": "membership changes applied", "value": cl["applied"]},
            {"metric": "closed", "value": cl["closed"]},
            {"metric": "rejected", "value": cl["rejected"]},
            {"metric": "sessions lost", "value": report.lost_sessions},
            {"metric": "peak queue depth", "value": report.peak_queue_depth},
            {"metric": "mean admission latency (ticks)", "value": round(cl["mean_admission_latency"], 3)},
            *_recovery_rows(report, plan_counts=False),
            *_delivery_rows(report.delivery),
        ]
        print(render_table(
            rows,
            title=f"cluster bench ({args.topology}, N={args.ports} per shard, "
            f"{args.shards} shards, seed={args.seed})",
        ))
        _report_footer(args, report)
        if args.invariant_json:
            save_json(args.invariant_json, report.invariant())
            print(f"invariant metrics written to {args.invariant_json}")
    return 0 if report.ok else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.report.slo_report import build_slo_report, slo_rows
    from repro.serve.bench import run_serve_bench

    net = ConferenceNetwork.build(args.topology, args.ports, dilation=args.dilation)
    # This command *is* the SLO engine, so the evaluator always exists;
    # the shared flags can still add a flight recorder and an endpoint.
    with _telemetry(args, slo=True) as obs:
        report = run_serve_bench(net, **obs, **_service_knobs(args))
        slo = obs["slo"]
        print(render_table(
            slo_rows(slo),
            columns=["slo", "state", "objective", "burn", "breaches", "p50", "p95", "p99"],
            title=f"SLO health ({args.topology}, N={args.ports}, seed={args.seed}, "
            f"{report.ticks} ticks)",
        ))
        print(
            f"\noverall state: {slo.state}; throughput "
            f"{report.throughput:.3f} admits/tick, "
            f"{report.fault_transitions} fault transitions, "
            f"{report.lost_sessions} sessions lost"
        )
        if args.json:
            save_json(args.json, build_slo_report(slo, context={
                "topology": args.topology,
                "ports": args.ports,
                "seed": args.seed,
                "conferences": report.conferences,
                "ticks": report.ticks,
                "throughput": report.throughput,
                "fault_transitions": report.fault_transitions,
            }))
            print(f"slo report written to {args.json}")
    return 0 if slo.state != "page" else 1


_COMMANDS = {
    "show": _cmd_show,
    "route": _cmd_route,
    "worstcase": _cmd_worstcase,
    "cost": _cmd_cost,
    "blocking": _cmd_blocking,
    "schedule": _cmd_schedule,
    "faults": _cmd_faults,
    "availability": _cmd_availability,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "cluster": _cmd_cluster,
    "bench-cluster": _cmd_bench_cluster,
    "slo": _cmd_slo,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
