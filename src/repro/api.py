"""The versioned public surface of :mod:`repro`.

This module is the single place that defines what the library promises
to keep stable: everything in ``__all__`` here is the supported API,
``from repro import X`` resolves through this facade, and
``tests/api/test_public_surface.py`` snapshots the surface so it cannot
drift silently (CI fails on any change that does not also update the
manifest and ``docs/api.md``).

Stability policy (see ``docs/api.md`` for the full statement):

* Names in ``__all__`` only gain keyword arguments; they are removed or
  re-signatured only across a major version, after at least one minor
  release of ``DeprecationWarning``.
* :mod:`repro` resolves exactly these names; import anything else from
  its home module.
* Everything else (``repro.*`` submodules' private helpers) carries no
  compatibility promise.

Every user-facing operation verdict — offline realization, healing
submit, service response, bench report — satisfies the :class:`Result`
protocol (``ok`` / ``reason`` / ``as_dict``), so callers and the CLI
handle all of them through one code path
(:func:`repro.report.serialize.result_to_dict`).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.core.admission import AdmissionController, AdmissionDenied
from repro.core.batch import BatchRouteOutcome, route_batch
from repro.core.churn import (
    ChurnLimitExceeded,
    ChurnPolicy,
    ChurnResult,
    apply_churn,
    extend_route,
    join_member,
    leave_member,
    prune_route,
)
from repro.core.conference import Conference, ConferenceSet
from repro.core.conflict import ConflictReport, analyze_conflicts
from repro.core.healing import RetryPolicy, SelfHealingController, SubmitOutcome
from repro.core.network import ConferenceNetwork, RealizationResult
from repro.cluster.bench import ClusterBenchReport, run_cluster_bench
from repro.cluster.controller import ClusterService, ClusterStats, ShardInfo, ShardState
from repro.cluster.directory import DirectoryEntry, SessionDirectory
from repro.cluster.placement import place_shard, rank_shards
from repro.cluster.rebalance import RebalancePlan, plan_rebalance
from repro.core.routing import (
    Route,
    RoutingPolicy,
    TapPolicy,
    UnroutableError,
    route_conference,
)
from repro.obs.export import ExpositionServer
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    SLOEvaluator,
    SLOSpec,
    WindowedHistogram,
    default_serve_slos,
)
from repro.obs.trace import Tracer
from repro.perfmodel.capacity import DeliveryModel
from repro.perfmodel.model import (
    CycleSim,
    LaneQueue,
    LinkModel,
    PerfModelConfig,
    simulate_delivery,
)
from repro.perfmodel.report import PerfReport
from repro.protect.plans import BackupPlan, BackupPlanStore, PlanStats
from repro.serve.backpressure import AdmissionQueue, ShedPolicy
from repro.serve.bench import ServeBenchReport, run_serve_bench
from repro.serve.protocol import Priority, ServiceResponse, SessionRequest
from repro.serve.service import FabricService, ServiceStats
from repro.serve.session import Session, SessionState, SessionTable
from repro.sim.engine import EventLoop
from repro.sim.faults import (
    FaultInjector,
    FaultProcessConfig,
    FaultTransition,
    generate_fault_timeline,
)
from repro.switching.fabric import CapacityExceeded, DeliveryReport, Fabric
from repro.topology.builders import PAPER_TOPOLOGIES, TOPOLOGY_BUILDERS, build
from repro.topology.network import MultistageNetwork
from repro.workloads.churn import (
    ChurnEvent,
    diurnal_load,
    flash_crowd,
    lurker_joins,
    replay_churn,
    zipf_sizes,
)

#: Version of the public surface (bumped on any additive change; the
#: library version tracks releases, this tracks the API contract).
API_VERSION = "4.0"


@runtime_checkable
class Result(Protocol):
    """The contract every operation verdict in the library satisfies.

    ``ok`` says whether the operation fully succeeded, ``reason`` is
    ``None`` exactly when ``ok`` is true (otherwise a short
    machine-readable cause), and ``as_dict`` returns a JSON-ready view
    whose ``"kind"`` key names the concrete result type.
    :class:`~repro.core.network.RealizationResult`,
    :class:`~repro.core.healing.SubmitOutcome`,
    :class:`~repro.serve.protocol.ServiceResponse`, and
    :class:`~repro.serve.bench.ServeBenchReport` all conform; the test
    suite checks conformance with ``isinstance(x, Result)``.
    """

    @property
    def ok(self) -> bool: ...

    @property
    def reason(self) -> "str | None": ...

    def as_dict(self) -> dict[str, Any]: ...


__all__ = [
    # the contract
    "API_VERSION",
    "Result",
    # build & offline realization
    "ConferenceNetwork",
    "RealizationResult",
    "MultistageNetwork",
    "PAPER_TOPOLOGIES",
    "TOPOLOGY_BUILDERS",
    "build",
    # conferences & routing
    "Conference",
    "ConferenceSet",
    "Route",
    "RoutingPolicy",
    "TapPolicy",
    "UnroutableError",
    "ConflictReport",
    "analyze_conflicts",
    "route_conference",
    # columnar batch routing
    "route_batch",
    "BatchRouteOutcome",
    # incremental membership churn
    "ChurnLimitExceeded",
    "ChurnPolicy",
    "ChurnResult",
    "apply_churn",
    "extend_route",
    "prune_route",
    "join_member",
    "leave_member",
    # churn workload timelines
    "ChurnEvent",
    "flash_crowd",
    "diurnal_load",
    "lurker_joins",
    "zipf_sizes",
    "replay_churn",
    # switching fabric
    "Fabric",
    "DeliveryReport",
    "CapacityExceeded",
    # admission & self-healing
    "AdmissionController",
    "AdmissionDenied",
    "RetryPolicy",
    "SelfHealingController",
    "SubmitOutcome",
    # protection (precomputed fast failover)
    "BackupPlan",
    "BackupPlanStore",
    "PlanStats",
    # faults & simulation clock
    "EventLoop",
    "FaultInjector",
    "FaultProcessConfig",
    "FaultTransition",
    "generate_fault_timeline",
    # the online service layer
    "FabricService",
    "ServiceStats",
    "SessionRequest",
    "ServiceResponse",
    "Priority",
    "ShedPolicy",
    "AdmissionQueue",
    "Session",
    "SessionState",
    "SessionTable",
    "ServeBenchReport",
    "run_serve_bench",
    # the sharded cluster layer
    "ClusterService",
    "ClusterStats",
    "ShardInfo",
    "ShardState",
    "SessionDirectory",
    "DirectoryEntry",
    "RebalancePlan",
    "plan_rebalance",
    "place_shard",
    "rank_shards",
    "ClusterBenchReport",
    "run_cluster_bench",
    # cycle-level buffered-switch performance model
    "PerfModelConfig",
    "LaneQueue",
    "LinkModel",
    "CycleSim",
    "PerfReport",
    "DeliveryModel",
    "simulate_delivery",
    # observability
    "Tracer",
    "MetricsRegistry",
    # live health (SLOs, flight recording, exposition)
    "SLOSpec",
    "SLOEvaluator",
    "BurnWindow",
    "WindowedHistogram",
    "default_serve_slos",
    "FlightRecorder",
    "ExpositionServer",
]
