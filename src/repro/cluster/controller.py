"""The cluster facade: one service surface over a pool of fabric shards.

:class:`ClusterService` runs many independent
:class:`~repro.serve.service.FabricService` fabrics ("shards") behind
the same ``submit_open`` / ``submit_join`` / ``submit_leave`` /
``submit_close`` surface a single fabric offers.  On top of the shards
it owns exactly the cross-fabric concerns:

* **Placement** — every open is routed to the shard that
  :func:`~repro.cluster.placement.place_shard` names for its cluster
  session id, weighted by shard capacity.  Clients hold *cluster*
  session ids; the :class:`~repro.cluster.directory.SessionDirectory`
  maps them to whichever shard-local session currently realizes them.
* **Lockstep time** — :meth:`tick` starts this tick's migration
  allowance, routes every live shard's queued opens and first resizes
  together (one kernel call per group of equally wired shards, parked
  in each shard's primed store), then ticks every live shard in sorted
  id order, so all shard clocks advance together and a seeded workload
  makes identical admission decisions regardless of how sessions map
  onto shards.
* **Elastic rebalancing** — :meth:`scale_up` / :meth:`scale_down` /
  :meth:`rebalance` move only the placement-delta sessions (the HRW
  minimal-disruption bound), make-before-break, throttled by the
  :class:`~repro.cluster.rebalance.MigrationQueue` budget per tick.
* **Shard failover** — :meth:`fail_shard` declares a fabric dead:
  in-flight operations against it fail fast with ``shard-failed``,
  and every session it hosted is re-homed onto the surviving shards
  through the same migration machinery (priority opens that retry until
  they land — a live session is never abandoned, mirroring the
  per-fabric healing guarantee of PR 1's restore path).

Observability (PR 3) threads through: ``cluster.migrate`` /
``cluster.failover`` spans per move, shard-labelled request counters,
and cluster-level gauges.  Shards receive the tracer but **not** the
metrics registry — per-shard gauges would clobber one another under a
shared registry, so the cluster emits its own shard-labelled series
instead.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from repro.cluster.directory import DirectoryEntry, EntryState, SessionDirectory
from repro.cluster.placement import place_shard, rank_shards
from repro.cluster.rebalance import MigrationQueue, Move, RebalancePlan, plan_rebalance
from repro.core.batch import _route_batch
from repro.perfmodel.capacity import DeliveryModel
from repro.serve.protocol import Priority, RequestKind, ServiceResponse
from repro.serve.service import TICK, FabricService, _SLOFeed
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import numpy as np

    from repro.core.batch import BatchRouteOutcome
    from repro.core.churn import ChurnPolicy
    from repro.core.conference import Conference
    from repro.core.healing import RetryPolicy, SelfHealingController
    from repro.core.network import ConferenceNetwork
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOEvaluator
    from repro.obs.trace import Tracer
    from repro.serve.batcher import BatchReport
    from repro.sim.faults import FaultInjector, FaultTransition

__all__ = ["ShardState", "ShardInfo", "ClusterStats", "ClusterService"]

CompletionCallback = Callable[[ServiceResponse], None]


class ShardState(Enum):
    """Where a shard sits in its cluster-membership lifecycle."""

    ACTIVE = "active"  # placeable; hosts sessions
    DRAINING = "draining"  # no new placements; sessions moving off
    FAILED = "failed"  # fabric declared dead; sessions re-homed
    REMOVED = "removed"  # drained to empty and shut down


#: Shard states whose fabric still executes ticks.
LIVE_SHARD_STATES = frozenset({ShardState.ACTIVE, ShardState.DRAINING})


@dataclass
class ShardInfo:
    """One member fabric of the cluster."""

    shard_id: str
    weight: float
    service: FabricService
    state: ShardState = ShardState.ACTIVE

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view for reports and the CLI."""
        return {
            "shard": self.shard_id,
            "weight": self.weight,
            "state": self.state.value,
            "sessions": self.service.sessions.counts(),
            "service": self.service.stats.as_dict(),
        }


@dataclass
class ClusterStats:
    """Lifetime accounting of one :class:`ClusterService`.

    Request tallies count **client-visible** verdicts only; internal
    traffic (migration opens, make-before-break closes) shows up in
    ``migrations`` / ``failovers`` instead, so the client-facing numbers
    are invariant under how sessions happen to map onto shards.
    """

    ticks: int = 0
    offered: int = 0
    admitted: int = 0
    applied: int = 0
    closed: int = 0
    rejected: int = 0
    errors: int = 0
    migrations: int = 0  # completed rebalance/drain moves
    failovers: int = 0  # completed failure re-homes
    shard_failures: int = 0
    lost_sessions: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    outcomes: dict[str, int] = field(default_factory=dict)

    def record(self, response: ServiceResponse) -> None:
        """Fold one client-visible terminal response into the tallies."""
        self.outcomes[response.status] = self.outcomes.get(response.status, 0) + 1
        if response.status == "admitted":
            self.admitted += 1
            self.latency_sum += response.latency
            self.latency_max = max(self.latency_max, response.latency)
        elif response.status == "applied":
            self.applied += 1
        elif response.status == "closed":
            self.closed += 1
        elif response.status == "error":
            self.errors += 1
        elif response.status in ("rejected", "shed"):
            self.rejected += 1

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view for reports and the CLI."""
        return {
            "ticks": self.ticks,
            "offered": self.offered,
            "admitted": self.admitted,
            "applied": self.applied,
            "closed": self.closed,
            "rejected": self.rejected,
            "errors": self.errors,
            "migrations": self.migrations,
            "failovers": self.failovers,
            "shard_failures": self.shard_failures,
            "lost_sessions": self.lost_sessions,
            "mean_admission_latency": (
                self.latency_sum / self.admitted if self.admitted else 0.0
            ),
            "max_admission_latency": self.latency_max,
            "outcomes": dict(sorted(self.outcomes.items())),
        }


#: Shard label used on synthesized responses that never reached a fabric.
_NO_SHARD = "-"


class ClusterService:
    """A sharded conference service over a pool of fabrics.

    ``network_factory`` builds one fresh
    :class:`~repro.core.network.ConferenceNetwork` per shard (called
    with the shard id); the cluster starts with ``shards`` fabrics named
    ``shard-0`` … ``shard-{k-1}``, each of weight 1.0.  ``migration_budget``
    caps the cross-shard moves *started* per tick.  Every other keyword
    is a :class:`~repro.serve.service.FabricService` keyword, applied
    uniformly to every shard fabric (``retry`` and ``tracer`` included;
    the metrics registry, SLO evaluator and flight recorder stay at the
    cluster level).
    """

    def __init__(
        self,
        network_factory: "Callable[[str], ConferenceNetwork]",
        *,
        shards: int = 2,
        retry: "RetryPolicy | None" = None,
        rng: "int | np.random.Generator | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        slo: "SLOEvaluator | None" = None,
        flight: "FlightRecorder | None" = None,
        migration_budget: int = 8,
        **fabric: Any,
    ):
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self._factory = network_factory
        # Every shard fabric is built from these (FabricService validates
        # them); the cluster keeps the metrics registry to itself.
        self._fabric_knobs = dict(fabric, retry=retry, tracer=tracer)
        self._rng = ensure_rng(rng)
        self.tracer = tracer
        self._metrics = metrics
        # Cluster-level live health (see repro.obs.slo / repro.obs.flight).
        # Shards run without their own evaluator — client-visible signals
        # are recorded here, at the layer clients actually experience.
        self._slo = slo
        self._flight = flight
        self._slo_feed = _SLOFeed(slo, flight, metrics) if slo is not None else None
        self.stats = ClusterStats()
        self._shards: dict[str, ShardInfo] = {}
        self._directory = SessionDirectory()
        self._queue = MigrationQueue(migration_budget)
        self._state = "running"  # running -> draining -> closed
        self._shard_seq = 0
        self._next_op_id = 0
        # Cluster sessions whose open verdict is still owed to the client.
        self._pending_opens: dict[int, "CompletionCallback | None"] = {}
        # Client-submitted join/leave/close in flight on a shard:
        # op id -> (shard_id, cluster_session_id, kind, notify, internal).
        self._inflight_ops: dict[int, tuple] = {}
        # Moves whose target open is in flight: csid -> (move, target).
        self._moving: dict[int, tuple[Move, str]] = {}
        # Open ``cluster.open`` trace spans awaiting their verdict.
        self._open_trace: dict[int, int] = {}
        # Shard id -> routing identity, computed on the shard's first
        # cross-shard prime (never at construction: see ``_wiring``).
        self._wirings: dict[str, tuple] = {}
        for _ in range(shards):
            self.add_shard()

    # -- introspection -----------------------------------------------------

    @property
    def shards(self) -> dict[str, ShardInfo]:
        """The shard table, keyed by shard id (read-only use, please)."""
        return self._shards

    @property
    def directory(self) -> SessionDirectory:
        """The cluster-wide session directory."""
        return self._directory

    @property
    def migrations(self) -> MigrationQueue:
        """The budgeted queue of pending cross-shard moves."""
        return self._queue

    @property
    def now(self) -> float:
        """Current cluster (virtual) time — shards tick in lockstep."""
        return self.stats.ticks * TICK

    @property
    def state(self) -> str:
        """``running``, ``draining``, or ``closed``."""
        return self._state

    @property
    def _fabric(self) -> FabricService:
        """Any shard's fabric: every shard is built from the same keywords,
        and the shard table is never emptied."""
        return next(iter(self._shards.values())).service

    @property
    def protection(self) -> int:
        """Backup-plan budget F applied uniformly to every shard fabric."""
        return self._fabric.protection

    @property
    def churn_policy(self) -> "ChurnPolicy":
        """The membership-churn policy applied uniformly to every shard."""
        return self._fabric.churn_policy

    @property
    def capacity_model(self) -> str:
        """``"abstract"`` or ``"buffered"``, applied uniformly to shards."""
        return self._fabric.capacity_model

    def delivery_summary(self) -> "dict[str, Any] | None":
        """Cluster-wide buffered-delivery block (``None`` in abstract mode).

        Merges every live shard's per-tick delivery aggregates — counts
        add, the latency percentiles come from the commutatively merged
        shard histograms, so the result is independent of shard
        enumeration order.
        """
        if self.capacity_model != "buffered":
            return None
        merged = DeliveryModel(self._fabric.delivery.config)
        for shard_id in sorted(self._shards):
            model = self._shards[shard_id].service.delivery
            if model is None:
                continue
            merged.merge(model)
        summary = merged.summary()
        summary["shards"] = sum(
            1 for s in self._shards.values() if s.service.delivery is not None
        )
        return summary

    @property
    def slo(self) -> "SLOEvaluator | None":
        """The attached cluster-level SLO evaluator, or ``None``."""
        return self._slo

    @property
    def flight(self) -> "FlightRecorder | None":
        """The attached flight recorder, or ``None``."""
        return self._flight

    def active_weights(self) -> dict[str, float]:
        """Capacity weights of the currently placeable (ACTIVE) shards."""
        return {
            sid: s.weight
            for sid, s in self._shards.items()
            if s.state is ShardState.ACTIVE
        }

    def shard_sessions(self) -> dict[str, dict[int, tuple[int, ...]]]:
        """Live session tables of every live shard (for consistency checks)."""
        out: dict[str, dict[int, tuple[int, ...]]] = {}
        for shard_id, shard in self._shards.items():
            if shard.state in LIVE_SHARD_STATES:
                out[shard_id] = {
                    s.session_id: s.members for s in shard.service.sessions.live()
                }
        return out

    def check_consistency(self) -> list[str]:
        """Directory/shard invariant violations (empty means consistent)."""
        return self._directory.inconsistencies(self.shard_sessions())

    # -- shard-set management ----------------------------------------------

    def add_shard(
        self,
        shard_id: "str | None" = None,
        *,
        weight: float = 1.0,
        network: "ConferenceNetwork | None" = None,
    ) -> str:
        """Bring a fresh fabric into the pool as a placeable shard."""
        if shard_id is None:
            while f"shard-{self._shard_seq}" in self._shards:
                self._shard_seq += 1
            shard_id = f"shard-{self._shard_seq}"
        if shard_id in self._shards:
            raise ValueError(f"shard id {shard_id!r} already in use")
        if weight <= 0.0:
            raise ValueError(f"shard weight must be > 0, got {weight}")
        self._shard_seq += 1
        net = network if network is not None else self._factory(shard_id)
        (shard_rng,) = self._rng.spawn(1)
        service = FabricService(net, rng=shard_rng, **self._fabric_knobs)
        self._shards[shard_id] = ShardInfo(shard_id, float(weight), service)
        if self.tracer is not None:
            self.tracer.event("cluster.shard_add", t=self.now, shard=shard_id, weight=weight)
        return shard_id

    def attach_faults(
        self, shard_id: str, timeline: "tuple[FaultTransition, ...] | list[FaultTransition]"
    ) -> "FaultInjector":
        """Schedule a fault timeline against one shard's fabric clock."""
        return self._require_shard(shard_id).service.attach_faults(timeline)

    def fail_shard(self, shard_id: str) -> int:
        """Declare one fabric dead and re-home everything it hosted.

        In-flight client operations against the shard complete with
        ``status="error", reason="shard-failed"``; every session homed
        on it (pending, active, or mid-migration) is re-routed to the
        surviving shards through failover moves that retry until they
        land.  Returns the number of sessions re-homed.
        """
        shard = self._require_shard(shard_id)
        if shard.state is ShardState.FAILED:
            return 0
        if shard.state is ShardState.REMOVED:
            raise ValueError(f"shard {shard_id!r} was already removed")
        span = None
        if self.tracer is not None:
            span = self.tracer.span_open("cluster.failover", t=self.now, shard=shard_id)
        shard.state = ShardState.FAILED
        self.stats.shard_failures += 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_cluster_shard_failures_total", "Shards declared failed"
            ).inc(shard=shard_id)
        # Fail fast every client op the dead fabric will never answer.
        for op, (op_shard, csid, kind, notify, internal) in list(self._inflight_ops.items()):
            if op_shard != shard_id:
                continue
            del self._inflight_ops[op]
            if internal:
                continue  # make-before-break close on a dead ledger: moot
            self._deliver(
                self._synthesize(
                    kind, "error", csid, op, reason="shard-failed", shard=shard_id
                ),
                notify,
            )
        # Moves that were landing *on* the dead fabric go back in the
        # queue; their next start picks a surviving target.
        for csid, (move, target) in list(self._moving.items()):
            if target != shard_id:
                continue
            del self._moving[csid]
            self._queue.requeue(move)
        # Re-home every session the dead fabric hosted.  The failover
        # moves are enqueued under this span's context so each per-move
        # ``cluster.failover`` span carries it as causal parent.
        moved = 0
        with self.tracer.context(span) if self.tracer is not None else nullcontext():
            for entry in self._directory.on_shard(shard_id):
                csid = entry.cluster_session_id
                if entry.state is EntryState.PENDING:
                    # The open never completed; carry the client's verdict
                    # callback over to the failover move.
                    notify = self._pending_opens.pop(csid, None)
                    self._enqueue_move(
                        entry, "failover", source=None, notify=notify, restore_open=True
                    )
                    moved += 1
                elif entry.state is EntryState.ACTIVE:
                    self._enqueue_move(entry, "failover", source=None)
                    moved += 1
                elif entry.state is EntryState.MIGRATING:
                    # The next generation is already building elsewhere; the
                    # old home just vanished, so there is nothing to close.
                    pending = next(
                        (m for m in self._queue if m.cluster_session_id == csid), None
                    )
                    inflight = self._moving.get(csid)
                    move = pending or (inflight[0] if inflight else None)
                    if move is not None:
                        move.source_shard = None
        if span is not None:
            self.tracer.span_close(span, t=self.now, sessions=moved)
        return moved

    def drain_shard(self, shard_id: str) -> int:
        """Gracefully take one shard out of service.

        The shard stops receiving placements immediately; its sessions
        move off make-before-break under the migration budget, and once
        empty the fabric is shut down and the shard marked ``removed``.
        Returns the number of moves enqueued now (opens still pending on
        the shard are moved as they complete).
        """
        shard = self._require_shard(shard_id)
        if shard.state is not ShardState.ACTIVE:
            raise ValueError(
                f"can only drain an active shard; {shard_id!r} is {shard.state.value}"
            )
        shard.state = ShardState.DRAINING
        if self.tracer is not None:
            self.tracer.event("cluster.shard_drain", t=self.now, shard=shard_id)
        moved = 0
        for entry in self._directory.on_shard(shard_id):
            if entry.state is EntryState.ACTIVE:
                self._enqueue_move(entry, "drain", source=shard_id)
                moved += 1
        return moved

    def rebalance(self) -> RebalancePlan:
        """Re-home the placement delta after a shard-set change."""
        plan = plan_rebalance(self._directory.live(), self.active_weights())
        for csid, source, _target in plan.moves:
            self._enqueue_move(self._directory.require(csid), "rebalance", source=source)
        if self.tracer is not None:
            self.tracer.event(
                "cluster.rebalance",
                t=self.now,
                moves=len(plan.moves),
                total=plan.total_sessions,
            )
        return plan

    def scale_up(
        self, shard_id: "str | None" = None, *, weight: float = 1.0
    ) -> tuple[str, RebalancePlan]:
        """Add a shard and re-home its rendezvous share of sessions."""
        shard_id = self.add_shard(shard_id, weight=weight)
        return shard_id, self.rebalance()

    def scale_down(self, shard_id: str) -> int:
        """Drain a shard out of the pool (moves trickle per tick)."""
        return self.drain_shard(shard_id)

    def _require_shard(self, shard_id: str) -> ShardInfo:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise KeyError(f"no shard with id {shard_id!r}") from None

    # -- client surface ----------------------------------------------------

    def submit_open(
        self,
        members,
        *,
        priority: Priority = Priority.NORMAL,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        """Open a conference somewhere in the pool; returns the cluster id.

        The terminal :class:`ServiceResponse` arrives via ``on_complete``
        with the *cluster* session id and the hosting shard in
        ``detail["shard"]``.
        """
        members = tuple(int(p) for p in members)
        entry = self._directory.create(members, priority)
        csid = entry.cluster_session_id
        self.stats.offered += 1
        if self._state != "running":
            reason = "service-closed" if self._state == "closed" else "draining"
            entry.state = EntryState.REJECTED
            self._deliver(
                self._synthesize(RequestKind.OPEN, "rejected", csid, self._next_op(), reason=reason),
                on_complete,
            )
            return csid
        target = place_shard(csid, self.active_weights())
        if target is None:
            entry.state = EntryState.REJECTED
            self._deliver(
                self._synthesize(
                    RequestKind.OPEN, "rejected", csid, self._next_op(), reason="no-active-shards"
                ),
                on_complete,
            )
            return csid
        span = None
        if self.tracer is not None:
            # The root of the causal chain: the shard-level submit/admit
            # spans this open causes all parent back to this record.
            span = self.tracer.span_open(
                "cluster.open", t=self.now, session=csid, shard=target, members=len(members)
            )
            self._open_trace[csid] = span
        self._pending_opens[csid] = on_complete
        with self.tracer.context(span) if self.tracer is not None else nullcontext():
            self._open_on(target, entry)
        return csid

    def submit_join(
        self,
        cluster_session_id: int,
        ports,
        *,
        priority: Priority = Priority.NORMAL,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        """Grow a cluster session's membership; returns the op id."""
        return self._submit_op(
            RequestKind.JOIN,
            cluster_session_id,
            tuple(int(p) for p in ports),
            priority=priority,
            on_complete=on_complete,
        )

    def submit_leave(
        self,
        cluster_session_id: int,
        ports,
        *,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        """Shrink a cluster session's membership; returns the op id."""
        return self._submit_op(
            RequestKind.LEAVE,
            cluster_session_id,
            tuple(int(p) for p in ports),
            on_complete=on_complete,
        )

    def submit_close(
        self, cluster_session_id: int, *, on_complete: "CompletionCallback | None" = None
    ) -> int:
        """Close a cluster session wherever it lives; returns the op id."""
        return self._submit_op(
            RequestKind.CLOSE, cluster_session_id, (), on_complete=on_complete
        )

    def _submit_op(
        self,
        kind: str,
        csid: int,
        ports: tuple[int, ...],
        *,
        priority: Priority = Priority.NORMAL,
        on_complete: "CompletionCallback | None" = None,
    ) -> int:
        op = self._next_op()
        self.stats.offered += 1
        if self._state == "closed":
            self._deliver(
                self._synthesize(kind, "rejected", csid, op, reason="service-closed"),
                on_complete,
            )
            return op
        entry = self._directory.get(csid)
        if entry is None:
            self._deliver(
                self._synthesize(kind, "error", csid, op, reason="unknown-session"),
                on_complete,
            )
            return op
        if kind == RequestKind.CLOSE:
            return self._close_entry(entry, op, on_complete)
        if entry.state is not EntryState.ACTIVE:
            # Resizes need a settled home; a session in motion (pending
            # admission or mid-migration) bounces deterministically.
            status = "rejected" if entry.live else "error"
            self._deliver(
                self._synthesize(
                    kind, status, csid, op, reason=f"session-{entry.state.value}"
                ),
                on_complete,
            )
            return op
        shard = self._shards[entry.shard_id]
        if shard.state not in LIVE_SHARD_STATES:
            self._deliver(
                self._synthesize(
                    kind, "error", csid, op, reason="shard-failed", shard=entry.shard_id
                ),
                on_complete,
            )
            return op
        self._inflight_ops[op] = (entry.shard_id, csid, kind, on_complete, False)

        def adapter(resp: ServiceResponse, *, _op=op, _csid=csid, _kind=kind, _ports=ports) -> None:
            self._op_completed(_op, _csid, _kind, _ports, resp)

        if kind == RequestKind.JOIN:
            shard.service.submit_join(
                entry.shard_session_id, ports, priority=priority, on_complete=adapter
            )
        else:
            shard.service.submit_leave(entry.shard_session_id, ports, on_complete=adapter)
        return op

    def _close_entry(
        self, entry: DirectoryEntry, op: int, on_complete: "CompletionCallback | None"
    ) -> int:
        csid = entry.cluster_session_id
        if entry.state in (EntryState.CLOSED, EntryState.REJECTED, EntryState.LOST):
            self._deliver(
                self._synthesize(
                    RequestKind.CLOSE, "error", csid, op, reason="already-closed"
                ),
                on_complete,
            )
            return op
        if entry.state is EntryState.ACTIVE:
            shard = self._shards[entry.shard_id]
            if shard.state in LIVE_SHARD_STATES:
                return self._forward_close(entry, op, on_complete)
            # Defensive: an ACTIVE entry on a dead shard cannot persist
            # (fail_shard converts them), but never strand a close.
            entry.state = EntryState.CLOSED
            self._deliver(
                self._synthesize(RequestKind.CLOSE, "closed", csid, op), on_complete
            )
            return op
        # PENDING or MIGRATING: the session is in motion.
        queued = self._queue.discard(csid)
        inflight = self._moving.get(csid)
        if queued is None and inflight is None and entry.state is EntryState.PENDING:
            # Plain pending open on a live shard: let the fabric cancel
            # it (the open completes "rejected/cancelled" on its own).
            return self._forward_close(entry, op, on_complete)
        move = queued or (inflight[0] if inflight else None)
        if move is not None:
            move.cancelled = True
            if queued is not None:
                self._finish_move_span(queued, "cancelled")
        if csid in self._pending_opens:
            # The open verdict was going to come from a cancelled move.
            self._close_open_trace(csid, "cancelled")
            notify = self._pending_opens.pop(csid)
            self._deliver(
                self._synthesize(
                    RequestKind.OPEN, "rejected", csid, self._next_op(), reason="cancelled"
                ),
                notify,
            )
        if entry.state is EntryState.MIGRATING and entry.shard_id is not None:
            shard = self._shards.get(entry.shard_id)
            if (
                shard is not None
                and shard.state in LIVE_SHARD_STATES
                and entry.shard_session_id is not None
            ):
                # Tear down the still-live old generation.
                return self._forward_close(entry, op, on_complete)
        entry.state = EntryState.CLOSED
        self._deliver(self._synthesize(RequestKind.CLOSE, "closed", csid, op), on_complete)
        return op

    def _forward_close(
        self, entry: DirectoryEntry, op: int, on_complete: "CompletionCallback | None"
    ) -> int:
        csid = entry.cluster_session_id
        shard_id = entry.shard_id
        self._inflight_ops[op] = (shard_id, csid, RequestKind.CLOSE, on_complete, False)

        def adapter(resp: ServiceResponse, *, _op=op, _csid=csid) -> None:
            self._close_completed(_op, _csid, resp)

        self._shards[shard_id].service.submit_close(
            entry.shard_session_id, on_complete=adapter
        )
        return op

    # -- completion plumbing -----------------------------------------------

    def _open_on(self, shard_id: str, entry: DirectoryEntry) -> None:
        csid = entry.cluster_session_id
        entry.shard_id = shard_id
        op = self._next_op()

        def adapter(resp: ServiceResponse, *, _csid=csid, _shard=shard_id, _op=op) -> None:
            self._open_completed(_csid, _shard, _op, resp)

        shard_sid = self._shards[shard_id].service.submit_open(
            entry.members, priority=entry.priority, on_complete=adapter
        )
        # The callback may have fired synchronously (backpressure
        # reject); only a still-pending entry takes the shard sid here.
        if entry.state is EntryState.PENDING and entry.shard_session_id is None:
            entry.shard_session_id = shard_sid

    def _open_completed(
        self, csid: int, shard_id: str, op: int, resp: ServiceResponse
    ) -> None:
        entry = self._directory.require(csid)
        if entry.shard_id != shard_id:
            return  # superseded by a failover re-home
        if entry.state is EntryState.PENDING:
            if resp.ok:
                entry.shard_session_id = resp.session_id
                entry.state = EntryState.ACTIVE
                if self._shards[shard_id].state is ShardState.DRAINING:
                    # Admitted onto a shard that is on its way out.
                    self._enqueue_move(entry, "drain", source=shard_id)
            else:
                entry.state = EntryState.REJECTED
        self._close_open_trace(csid, resp.status)
        notify = self._pending_opens.pop(csid, None)
        self._deliver(self._translate(resp, csid, shard_id, op), notify)

    def _op_completed(
        self, op: int, csid: int, kind: str, ports: tuple[int, ...], resp: ServiceResponse
    ) -> None:
        record = self._inflight_ops.pop(op, None)
        if record is None:
            return  # already failed fast by fail_shard
        shard_id, _, _, notify, _ = record
        entry = self._directory.require(csid)
        if resp.ok:
            current = set(entry.members)
            merged = current | set(ports) if kind == RequestKind.JOIN else current - set(ports)
            entry.members = tuple(sorted(merged))
        self._deliver(self._translate(resp, csid, shard_id, op), notify)

    def _close_completed(self, op: int, csid: int, resp: ServiceResponse) -> None:
        record = self._inflight_ops.pop(op, None)
        if record is None:
            return
        shard_id, _, _, notify, _ = record
        entry = self._directory.require(csid)
        if resp.ok and entry.state is not EntryState.CLOSED:
            entry.state = EntryState.CLOSED
        self._deliver(self._translate(resp, csid, shard_id, op), notify)

    def _deliver(
        self, response: ServiceResponse, notify: "CompletionCallback | None"
    ) -> None:
        self.stats.record(response)
        if (
            self._slo is not None
            and response.kind == RequestKind.OPEN
            and response.status == "admitted"
            and "admission_latency" in self._slo
        ):
            # Client-visible admission latency: the same quantity
            # ClusterStats folds into mean/max, streamed into the
            # windowed histogram for live percentiles.
            self._slo.observe("admission_latency", response.latency, now=self.now)
        if self._metrics is not None:
            self._metrics.counter(
                "repro_cluster_requests_total",
                "Cluster session requests by shard, kind, and outcome",
            ).inc(
                shard=str(response.detail.get("shard", _NO_SHARD)),
                kind=response.kind,
                status=response.status,
            )
        if notify is not None:
            notify(response)

    def _translate(
        self, resp: ServiceResponse, csid: int, shard_id: str, op: int
    ) -> ServiceResponse:
        """Re-address a shard-local response into cluster terms."""
        return replace(
            resp,
            request_id=op,
            session_id=csid,
            detail={**resp.detail, "shard": shard_id},
        )

    def _synthesize(
        self,
        kind: str,
        status: str,
        csid: "int | None",
        op: int,
        *,
        reason: "str | None" = None,
        shard: "str | None" = None,
    ) -> ServiceResponse:
        return ServiceResponse(
            ok=status in ("admitted", "applied", "closed"),
            status=status,
            kind=kind,
            request_id=op,
            session_id=csid,
            reason=reason,
            submitted_at=self.now,
            completed_at=self.now,
            detail={"shard": shard} if shard is not None else {},
        )

    def _next_op(self) -> int:
        op = self._next_op_id
        self._next_op_id += 1
        return op

    # -- migration machinery -----------------------------------------------

    def _enqueue_move(
        self,
        entry: DirectoryEntry,
        kind: str,
        *,
        source: "str | None",
        notify: "CompletionCallback | None" = None,
        restore_open: bool = False,
    ) -> Move:
        move = Move(
            cluster_session_id=entry.cluster_session_id,
            members=entry.members,
            priority=entry.priority,
            kind=kind,
            source_shard=source,
            notify=notify,
            restore_open=restore_open,
        )
        if self.tracer is not None:
            name = "cluster.failover" if kind == "failover" else "cluster.migrate"
            move.span = self.tracer.span_open(
                name, t=self.now, session=entry.cluster_session_id, kind=kind, source=source
            )
        if not restore_open:
            entry.state = EntryState.MIGRATING
        self._queue.enqueue(move)
        return move

    def _move_target(self, move: Move) -> "str | None":
        weights = {
            sid: w
            for sid, w in self.active_weights().items()
            if sid != move.source_shard
        }
        if not weights:
            return None
        ranked = rank_shards(move.cluster_session_id, weights)
        # Retries walk the preference list so a capacity-starved first
        # choice cannot wedge the move forever.
        return ranked[move.attempts % len(ranked)]

    def _start_move(self, move: Move) -> None:
        entry = self._directory.require(move.cluster_session_id)
        if move.cancelled or not entry.live:
            self._finish_move_span(move, "cancelled")
            return
        target = self._move_target(move)
        if target is None:
            self._queue.requeue(move)  # no placeable shard yet; keep waiting
            return
        csid = move.cluster_session_id
        self._moving[csid] = (move, target)

        def adapter(resp: ServiceResponse, *, _move=move, _target=target) -> None:
            self._move_completed(_move, _target, resp)

        # Migration opens ride the interactive lane: a session that is
        # already admitted (or owed a restore) outranks fresh arrivals.
        # Submitting under the move span's context parents the target
        # shard's admission spans to this failover/migration.
        with self.tracer.context(move.span) if self.tracer is not None else nullcontext():
            self._shards[target].service.submit_open(
                entry.members, priority=Priority.INTERACTIVE, on_complete=adapter
            )

    def _move_completed(self, move: Move, target: str, resp: ServiceResponse) -> None:
        csid = move.cluster_session_id
        self._moving.pop(csid, None)
        entry = self._directory.require(csid)
        if move.cancelled or entry.state is EntryState.CLOSED:
            if resp.ok:
                # Landed after the client closed: tear it straight down.
                self._internal_close(target, resp.session_id, csid)
            self._finish_move_span(move, "cancelled")
            return
        if not resp.ok:
            self._queue.requeue(move)  # a live session is never abandoned
            return
        old_sid = entry.shard_session_id
        self._directory.record_move(
            csid, target, resp.session_id, failover=move.kind == "failover"
        )
        entry.state = EntryState.ACTIVE
        self._queue.completed += 1
        if move.kind == "failover":
            self.stats.failovers += 1
        else:
            self.stats.migrations += 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_cluster_migrations_total", "Completed cross-shard moves by kind"
            ).inc(kind=move.kind)
        # Break: close the old generation on its still-live source.
        if move.source_shard is not None and not move.restore_open and old_sid is not None:
            src = self._shards.get(move.source_shard)
            if src is not None and src.state in LIVE_SHARD_STATES:
                self._internal_close(move.source_shard, old_sid, csid)
        if move.restore_open:
            # The client's original open verdict, finally deliverable.
            self._close_open_trace(csid, resp.status)
            self._deliver(self._translate(resp, csid, target, self._next_op()), move.notify)
        elif move.notify is not None:
            move.notify(self._translate(resp, csid, target, self._next_op()))
        self._finish_move_span(move, "moved", target=target)

    def _internal_close(self, shard_id: str, shard_sid: int, csid: int) -> None:
        """Fire-and-forget teardown of a superseded shard session."""
        op = self._next_op()
        self._inflight_ops[op] = (shard_id, csid, RequestKind.CLOSE, None, True)
        self._shards[shard_id].service.submit_close(
            shard_sid, on_complete=lambda resp, _op=op: self._inflight_ops.pop(_op, None)
        )

    def _finish_move_span(self, move: Move, outcome: str, **attrs) -> None:
        if move.span is not None and self.tracer is not None:
            self.tracer.span_close(move.span, t=self.now, outcome=outcome, **attrs)
        move.span = None

    def _close_open_trace(self, csid: int, outcome: str) -> None:
        span = self._open_trace.pop(csid, None)
        if span is not None and self.tracer is not None:
            self.tracer.span_close(span, t=self.now, outcome=outcome)

    # -- the tick ----------------------------------------------------------

    def tick(self) -> "dict[str, BatchReport]":
        """Advance one cluster interval across every live shard.

        Order: this tick's migration allowance starts first (targets
        admit the moves in the same tick), then the cross-shard prime
        routes every live shard's queued opens and first resizes in one
        kernel call per wiring group (:meth:`_prime_shards`), then every
        live shard ticks in sorted id order — lockstep virtual time —
        and finally any drained-empty shard is retired.  A shard's own
        prime keeps the routes parked for it and routes only its misses:
        requests that arrive after the cross-shard prime, and any
        conference whose shard fault set changed in between.  Returns
        the per-shard batch reports.
        """
        if self._state == "closed":
            raise RuntimeError("cannot tick a closed cluster")
        for move in self._queue.start_batch():
            self._start_move(move)
        self._prime_shards()
        reports: "dict[str, BatchReport]" = {}
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            if shard.state in LIVE_SHARD_STATES:
                reports[shard_id] = shard.service.tick()
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            if shard.state is ShardState.DRAINING and self._shard_quiescent(shard):
                shard.service.shutdown()
                shard.state = ShardState.REMOVED
                if self.tracer is not None:
                    self.tracer.event("cluster.shard_removed", t=self.now, shard=shard_id)
        self.stats.ticks += 1
        self._observe()
        if self._slo is not None:
            self._slo_tick()
        return reports

    def _prime_shards(self) -> None:
        """Route the live shards' next primes together, one kernel call per
        group of shards that route alike.

        Each live shard's prime list is read off a peek of its queue.
        Shards with equal wiring and policy (:meth:`_wiring`) form a
        group; a group with two or more busy shards routes all their
        conferences in one ``_route_batch`` call, each conference under
        its own shard's fault set as the kernel's per-conference overlay
        (a shard with faults also gets its fault-free reference routes).
        Each outcome is parked in its shard's primed store under
        ``(conference, fault set)``.  Routing is a pure function of
        wiring, policy, conference and fault set, so a parked outcome is
        exactly the route the shard would compute.
        """
        groups: "dict[tuple, list[tuple[SelfHealingController, list[Conference]]]]" = {}
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            if shard.state in LIVE_SHARD_STATES:
                conferences = shard.service._next_prime()
                if conferences:
                    groups.setdefault(self._wiring(shard), []).append(
                        (shard.service.healing, conferences)
                    )
        for busy in groups.values():
            if len(busy) < 2:
                continue  # a lone busy shard primes itself
            rows: "list[tuple[SelfHealingController, frozenset, Conference]]" = []
            for healing, conferences in busy:
                faults = healing.current_faults
                for fs in (faults, frozenset()) if faults else (faults,):
                    rows += [(healing, fs, conf) for conf in conferences]
            # A faulted shard's fault-free rows share no dead point with
            # anything, so the shared set is empty and every fault rides
            # in its own row's overlay.
            overlay = [fs for _, fs, _ in rows] if any(fs for _, fs, _ in rows) else None
            network = busy[0][0].network
            outcomes = _route_batch(
                network.topology, [conf for _, _, conf in rows], network.policy,
                frozenset(), overlay,
            )
            parked: "dict[SelfHealingController, dict[tuple, BatchRouteOutcome]]" = {
                healing: {} for healing, _ in busy
            }
            for (healing, fs, conf), outcome in zip(rows, outcomes):
                parked[healing][conf, fs] = outcome
            for healing, entries in parked.items():
                healing.park(entries)

    def _wiring(self, shard: ShardInfo) -> tuple:
        """What a shard's routes depend on: its network's ports, radix and
        stage tables, and its routing policy.

        The factory may build different networks, so shards are merged
        only on equal keys.  A key is computed on the shard's first
        cross-shard prime and cached; building it at construction would
        add the table work to every service's set-up.
        """
        key = self._wirings.get(shard.shard_id)
        if key is None:
            network = shard.service.healing.network
            topology = network.topology
            key = self._wirings[shard.shard_id] = (
                topology.n_ports,
                topology.radix,
                topology.successor_table.tobytes(),
                topology.predecessor_table.tobytes(),
                network.policy,
            )
        return key

    def _shard_quiescent(self, shard: ShardInfo) -> bool:
        if self._directory.on_shard(shard.shard_id):
            return False
        if any(rec[0] == shard.shard_id for rec in self._inflight_ops.values()):
            return False
        svc = shard.service
        if len(svc.queue) or svc.healing.down_conferences:
            return False
        counts = svc.sessions.counts()
        return counts["queued"] == 0 and counts["down"] == 0

    def _observe(self) -> None:
        reg = self._metrics
        if reg is None:
            return
        sessions = reg.gauge(
            "repro_cluster_sessions", "Cluster sessions by directory state"
        )
        for state, count in self._directory.counts().items():
            sessions.set(count, state=state)
        shards = reg.gauge("repro_cluster_shards", "Shards by membership state")
        tallies = {state.value: 0 for state in ShardState}
        for shard in self._shards.values():
            tallies[shard.state.value] += 1
        for state, count in tallies.items():
            shards.set(count, state=state)
        reg.gauge(
            "repro_cluster_migration_backlog",
            "Moves queued or in flight at tick end",
        ).set(self._queue.depth + len(self._moving))

    def _slo_tick(self) -> None:
        """Feed this tick's cluster-wide health signals into the SLO engine.

        Session availability is summed across the live shards and every
        shard's recovery samples count; the shed rate reads the
        *client-visible* verdicts (rejected + errors), so internal
        migration traffic never counts against the budget.
        """
        live = down = 0
        for shard_id in sorted(self._shards):
            shard = self._shards[shard_id]
            if shard.state in LIVE_SHARD_STATES:
                counts = shard.service.sessions.counts()
                live += counts["active"] + counts["degraded"]
                down += counts["down"]
        self._slo_feed.tick(
            self.now,
            live=live,
            down=down,
            recovery=[
                (shard_id, self._shards[shard_id].service.healing.stats.recovery_samples)
                for shard_id in sorted(self._shards)
            ],
            offered=self.stats.offered,
            dropped=self.stats.rejected + self.stats.errors,
        )

    # -- drain / shutdown --------------------------------------------------

    def _busy(self) -> bool:
        if self._queue.depth or self._moving or self._inflight_ops:
            return True
        if any(
            e.state in (EntryState.PENDING, EntryState.MIGRATING)
            for e in self._directory.live()
        ):
            return True
        for shard in self._shards.values():
            if shard.state not in LIVE_SHARD_STATES:
                continue
            svc = shard.service
            if len(svc.queue) or svc.healing.down_conferences:
                return True
            counts = svc.sessions.counts()
            if counts["queued"] or counts["down"]:
                return True
        return False

    def drain(self, max_ticks: int = 100_000) -> int:
        """Stop accepting opens and tick until all motion settles.

        Returns the number of ticks it took; ``RuntimeError`` if moves,
        pending verdicts, or shard backlogs have not settled within
        ``max_ticks`` (e.g. a failover with no surviving shard to land on).
        """
        if self._state == "closed":
            raise RuntimeError("cannot drain a closed cluster")
        self._state = "draining"
        ticks = 0
        while self._busy():
            if ticks >= max_ticks:
                raise RuntimeError(
                    f"cluster drain did not settle within {max_ticks} ticks "
                    f"({self._queue.depth} moves queued, {len(self._moving)} landing, "
                    f"{len(self._inflight_ops)} ops in flight)"
                )
            self.tick()
            ticks += 1
        return ticks

    def shutdown(self) -> dict[str, int]:
        """Drain, close every remaining live session, and stop.

        Returns the final directory tally per state.  Idempotent once
        closed.
        """
        if self._state != "closed":
            self.drain()
            for shard in self._shards.values():
                if shard.state not in LIVE_SHARD_STATES:
                    continue
                counts = shard.service.shutdown()
                self.stats.lost_sessions += counts.get("lost", 0)
            for entry in self._directory.live():
                # After a settled drain only ACTIVE entries remain; the
                # shard shutdowns above closed their fabric sessions.
                # Anything still in motion here would be a real loss.
                if entry.state is EntryState.ACTIVE:
                    entry.state = EntryState.CLOSED
                else:
                    entry.state = EntryState.LOST
                    self.stats.lost_sessions += 1
            self._state = "closed"
        return self._directory.counts()
