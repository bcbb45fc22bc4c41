"""Seeded churn benchmark for the sharded cluster.

``run_cluster_bench`` drives one :class:`~repro.cluster.controller.ClusterService`
with the same synthetic workload shape as the per-fabric serve bench —
Poisson conference arrivals over a shared logical port pool, geometric
holding times, optional membership churn — plus the cluster-only drills:
a shard kill at a chosen tick (with optional per-shard fault timelines
firing underneath) and an elastic scale-up mid-run.

**Shard-count invariance.** In plain mode (no faults, no kill, no
scale event) the client-visible metrics are *byte-identical* for a
fixed seed regardless of how many shards the cluster runs:

* the workload derives entirely from the seed (the RNG stream layout
  mirrors the serve bench), never from cluster state;
* members come from one global port pool, so concurrent conferences
  are port-disjoint and no shard ever denies on port conflicts;
* shard fabrics are built with generous dilation (default: one slot
  per port), so capacity never denies either;
* shards tick in lockstep, so admission latency is a pure function of
  the tick schedule, not of the placement mapping.

:meth:`ClusterBenchReport.invariant` returns exactly the fields this
argument covers; the acceptance test diffs its JSON bytes across shard
counts 1/2/4/8, and the CI determinism job ``cmp``'s the files the CLI
writes.  Drill modes (kill/faults/scale) are exempt from invariance but
must still finish with **zero lost sessions** and a consistent
directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster.controller import ClusterService, ShardState
from repro.cluster.directory import EntryState
from repro.core.network import ConferenceNetwork
from repro.serve.bench import _recovery, _Workload
from repro.serve.protocol import ServiceResponse
from repro.sim.faults import generate_fault_timeline

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.faults import FaultProcessConfig

__all__ = ["ClusterBenchReport", "run_cluster_bench"]


@dataclass
class ClusterBenchReport:
    """Outcome of one cluster churn run (shared result contract)."""

    topology: str
    n_ports: int
    shards: int  # shard count at launch
    seed: int
    conferences: int  # opens actually offered
    ticks: int
    drain_ticks: int
    starved_arrivals: int  # arrivals skipped for want of free ports
    resizes: int
    fault_transitions: int
    killed_shard: "str | None"
    kill_tick: "int | None"
    added_shard: "str | None"
    rebalance_fraction: "float | None"  # of the scale-up plan, if any
    queue_capacity: int
    shed_policy: str
    peak_queue_depth: int  # max over shards (NOT shard-count invariant)
    lost_sessions: int
    # Protection is deliberately NOT part of ``invariant()``: the fast
    # path changes recovery *accounting*, never client-visible decisions.
    protection: int = 0
    recovery: dict[str, Any] = field(default_factory=dict)
    consistency: list[str] = field(default_factory=list)
    session_counts: dict[str, int] = field(default_factory=dict)
    cluster: dict[str, Any] = field(default_factory=dict)
    per_shard: dict[str, Any] = field(default_factory=dict)
    #: Cluster-wide buffered-delivery block; ``None`` in abstract mode
    #: and then absent from ``as_dict`` (abstract output stays byte-
    #: identical to pre-perfmodel runs).
    delivery: "dict[str, Any] | None" = None

    @property
    def ok(self) -> bool:
        """Did the cluster sustain: nothing lost, directory consistent."""
        return self.lost_sessions == 0 and not self.consistency

    @property
    def reason(self) -> "str | None":
        """Why the run failed the sustain criteria (``None`` when ok)."""
        if self.lost_sessions:
            return f"{self.lost_sessions} session(s) lost"
        if self.consistency:
            return f"directory inconsistent: {self.consistency[0]}"
        return None

    @property
    def throughput(self) -> float:
        """Admitted conferences per tick."""
        admitted = self.cluster.get("admitted", 0)
        return admitted / self.ticks if self.ticks else 0.0

    def invariant(self) -> dict[str, Any]:
        """The client-visible metrics that are shard-count invariant.

        For a fixed seed in plain mode, this dict is byte-identical
        (through sorted-key JSON) across shard counts — the determinism
        CI job and ``tests/cluster/test_bench.py`` compare exactly this.
        """
        return {
            "kind": "cluster_bench_invariant",
            "topology": self.topology,
            "n_ports": self.n_ports,
            "seed": self.seed,
            "conferences": self.conferences,
            "ticks": self.ticks,
            "drain_ticks": self.drain_ticks,
            "starved_arrivals": self.starved_arrivals,
            "resizes": self.resizes,
            "offered": self.cluster.get("offered", 0),
            "admitted": self.cluster.get("admitted", 0),
            "applied": self.cluster.get("applied", 0),
            "closed": self.cluster.get("closed", 0),
            "rejected": self.cluster.get("rejected", 0),
            "errors": self.cluster.get("errors", 0),
            "mean_admission_latency": self.cluster.get("mean_admission_latency", 0.0),
            "max_admission_latency": self.cluster.get("max_admission_latency", 0.0),
            "outcomes": dict(self.cluster.get("outcomes", {})),
            "lost_sessions": self.lost_sessions,
            "session_counts": dict(self.session_counts),
        }

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the shared result-serializer contract)."""
        return {
            "kind": "cluster_bench",
            "ok": self.ok,
            "reason": self.reason,
            "topology": self.topology,
            "n_ports": self.n_ports,
            "shards": self.shards,
            "seed": self.seed,
            "conferences": self.conferences,
            "ticks": self.ticks,
            "drain_ticks": self.drain_ticks,
            "throughput": self.throughput,
            "starved_arrivals": self.starved_arrivals,
            "resizes": self.resizes,
            "fault_transitions": self.fault_transitions,
            "killed_shard": self.killed_shard,
            "kill_tick": self.kill_tick,
            "added_shard": self.added_shard,
            "rebalance_fraction": self.rebalance_fraction,
            "queue_capacity": self.queue_capacity,
            "shed_policy": self.shed_policy,
            "peak_queue_depth": self.peak_queue_depth,
            "lost_sessions": self.lost_sessions,
            "protection": self.protection,
            "recovery": dict(self.recovery),
            "consistency": list(self.consistency),
            "session_counts": dict(self.session_counts),
            "cluster": dict(self.cluster),
            "per_shard": dict(self.per_shard),
            **({"delivery": dict(self.delivery)} if self.delivery is not None else {}),
        }


def run_cluster_bench(
    *,
    topology: str = "indirect-binary-cube",
    ports: int = 16,
    shards: int = 2,
    dilation: "int | None" = None,
    conferences: int = 200,
    seed: int = 0,
    arrival_rate: float = 4.0,
    mean_size: float = 4.0,
    max_size: "int | None" = None,
    mean_hold_ticks: float = 20.0,
    resize_prob: float = 0.0,
    fault_process: "FaultProcessConfig | None" = None,
    kill_shard_at: "int | None" = None,
    add_shard_at: "int | None" = None,
    queue_capacity: int = 256,
    max_batch: int = 256,
    **knobs: Any,
) -> ClusterBenchReport:
    """Run a seeded churn workload against a fresh cluster.

    ``shards`` fabrics of ``ports`` ports each (``dilation`` defaults to
    ``ports`` — generous enough that capacity never denies, see module
    docstring) serve ``conferences`` opens at ``arrival_rate`` per tick.
    ``kill_shard_at`` fails the busiest shard at that tick (the failover
    drill); ``add_shard_at`` scales a fresh shard in and rebalances;
    ``fault_process`` attaches an independent per-shard fault timeline.
    Every other keyword goes to :class:`~repro.cluster.controller.ClusterService`
    and through it to each shard fabric (the bench defaults to
    ``queue_capacity=256`` and ``max_batch=256``).  With ``protection=F``
    the report's ``recovery`` block folds all shards' recovery-tick
    samples and plan counters into one distribution; protection never
    enters the invariant fields.
    """
    work = _Workload(
        seed, ports, conferences=conferences, arrival_rate=arrival_rate, mean_size=mean_size,
        max_size=max_size, mean_hold_ticks=mean_hold_ticks, resize_prob=resize_prob,
    )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    dil = ports if dilation is None else dilation

    def factory(shard_id: str) -> ConferenceNetwork:
        return ConferenceNetwork.build(topology, ports, dilation=dil)

    cluster = ClusterService(
        factory, shards=shards, rng=work.service_rng, queue_capacity=queue_capacity,
        max_batch=max_batch, **knobs,
    )
    injectors = []
    if fault_process is not None:
        for shard_id in sorted(cluster.shards):
            shard = cluster.shards[shard_id]
            (shard_fault_rng,) = work.fault_rng.spawn(1)
            timeline = generate_fault_timeline(
                shard.service.network.topology,
                fault_process,
                work.fault_horizon,
                seed=shard_fault_rng,
            )
            injectors.append(cluster.attach_faults(shard_id, timeline))

    directory = cluster.directory
    work.drive(
        cluster,
        active_ids=lambda: sorted(
            e.cluster_session_id for e in directory if e.state is EntryState.ACTIVE
        ),
        members_of=lambda csid: directory.require(csid).members,
    )

    def on_open():
        # The hold is drawn at *submit* time: shard fan-out reorders
        # completion callbacks by shard, so drawing at the verdict would
        # map the hold stream onto different sessions per shard count.
        hold = work.draw_hold()
        return work.on_opened(lambda: hold)

    def on_closed(response: ServiceResponse) -> None:
        entry = directory.require(response.session_id)
        if response.ok:
            work.release(entry.members)
        elif entry.live:
            # A close bounced off a failing/migrating shard; the session
            # still owns its ports, so try again shortly.
            work.closes_due.setdefault(work.tick + 1, []).append(entry.cluster_session_id)

    def kill_busiest_shard() -> "str | None":
        actives = sorted(
            sid for sid, s in cluster.shards.items() if s.state is ShardState.ACTIVE
        )
        if len(actives) < 2:
            return None  # refuse to orphan the whole population
        victim = max(actives, key=lambda sid: (len(directory.on_shard(sid)), -actives.index(sid)))
        cluster.fail_shard(victim)
        return victim

    killed_shard: "str | None" = None
    added_shard: "str | None" = None
    rebalance_fraction: "float | None" = None
    while work.busy() or any(e.live for e in directory):
        if work.tick >= work.budget:
            raise RuntimeError(
                f"cluster bench did not settle within {work.budget} ticks "
                f"({work.opened}/{conferences} opened, {work.outstanding} outstanding)"
            )
        if kill_shard_at is not None and work.tick == kill_shard_at:
            killed_shard = kill_busiest_shard()
        if add_shard_at is not None and work.tick == add_shard_at:
            added_shard, plan = cluster.scale_up()
            rebalance_fraction = plan.fraction
        work.arrive(on_open)
        for csid in sorted(work.closes_due.pop(work.tick, [])):
            if directory.require(csid).live:
                cluster.submit_close(csid, on_complete=work.track(on_closed))
        work.maybe_resize()
        cluster.tick()
        work.tick += 1

    consistency = cluster.check_consistency()
    before = cluster.stats.ticks
    counts = cluster.shutdown()
    queues = [s.service.queue for s in cluster.shards.values()]
    return ClusterBenchReport(
        topology=topology,
        n_ports=ports,
        shards=shards,
        seed=seed,
        conferences=work.opened,
        ticks=cluster.stats.ticks,
        drain_ticks=cluster.stats.ticks - before,
        starved_arrivals=work.starved,
        resizes=work.resizes,
        fault_transitions=sum(len(inj.history) for inj in injectors),
        killed_shard=killed_shard,
        kill_tick=kill_shard_at if killed_shard is not None else None,
        added_shard=added_shard,
        rebalance_fraction=rebalance_fraction,
        queue_capacity=queue_capacity,
        shed_policy=queues[0].policy.value,
        peak_queue_depth=max(q.stats.peak_depth for q in queues),
        lost_sessions=cluster.stats.lost_sessions,
        protection=cluster.protection,
        recovery=_recovery([
            cluster.shards[shard_id].service.healing.stats
            for shard_id in sorted(cluster.shards)
        ]),
        consistency=consistency,
        session_counts=counts,
        cluster=cluster.stats.as_dict(),
        per_shard={
            shard_id: cluster.shards[shard_id].as_dict()
            for shard_id in sorted(cluster.shards)
        },
        delivery=cluster.delivery_summary(),
    )
