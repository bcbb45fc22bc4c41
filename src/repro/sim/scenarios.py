"""Canned simulation scenarios used by experiments and examples.

Each scenario wires a conference network, an admission controller, a
traffic source and an event loop, runs to a horizon, and returns the
statistics.  Scenarios are pure functions of (parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.admission import AdmissionController
from repro.core.healing import RetryPolicy, SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.sim.engine import EventLoop
from repro.sim.faults import (
    FaultInjector,
    FaultProcessConfig,
    FaultTransition,
    generate_fault_timeline,
)
from repro.sim.metrics import AvailabilityStats, TrafficStats
from repro.sim.traffic import ConferenceTrafficSource, ResilientTrafficSource, TrafficConfig
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.validation import check_positive

__all__ = [
    "run_traffic",
    "blocking_vs_dilation",
    "placement_comparison",
    "AvailabilityRun",
    "run_availability",
]


def run_traffic(
    network: ConferenceNetwork,
    config: TrafficConfig,
    duration: float = 1000.0,
    seed: "int | np.random.Generator | None" = None,
) -> TrafficStats:
    """Run one stochastic-traffic simulation and return its statistics."""
    check_positive(duration, "duration")
    controller = AdmissionController(network)
    source = ConferenceTrafficSource(controller, config, seed=ensure_rng(seed))
    loop = EventLoop()
    source.start(loop)
    loop.run(until=duration)
    return source.stats


@dataclass(frozen=True)
class AvailabilityRun:
    """Everything one live fault-injection run produced."""

    traffic: TrafficStats
    availability: AvailabilityStats
    timeline: tuple[FaultTransition, ...]

    def summary(self) -> dict[str, float | int]:
        """Traffic and availability counters merged into one flat dict."""
        out: dict[str, float | int] = dict(self.traffic.summary())
        out.update(self.availability.summary())
        return out


def run_availability(
    topology: str,
    n_ports: int,
    dilation: int = 2,
    relay_enabled: bool = True,
    config: "TrafficConfig | None" = None,
    process: "FaultProcessConfig | None" = None,
    retry: "RetryPolicy | None" = None,
    duration: float = 1000.0,
    seed: int = 0,
    tracer=None,
    metrics=None,
) -> AvailabilityRun:
    """One live availability run: traffic + fault injection + self-healing.

    The fault timeline is pre-generated from ``process`` and the seed.
    Traffic, fault, and retry-jitter randomness come from three
    independent child streams of ``seed``, so the whole run — every
    transition, retry, and metric — is exactly reproducible.
    ``tracer`` / ``metrics`` (see :mod:`repro.obs`) observe the run
    without perturbing it.
    """
    check_positive(duration, "duration")
    config = config or TrafficConfig()
    traffic_rng, fault_rng, jitter_rng = spawn_rngs(seed, 3)
    network = ConferenceNetwork.build(
        topology, n_ports, dilation=dilation, relay_enabled=relay_enabled
    )
    timeline = generate_fault_timeline(network.topology, process, duration, seed=fault_rng)
    if tracer is not None:
        tracer.event(
            "experiment.run",
            t=0.0,
            experiment="faults",
            topology=topology,
            relay="on" if relay_enabled else "off",
        )
    healing = SelfHealingController(
        network,
        retry=retry,
        rng=jitter_rng,
        tracer=tracer,
        metrics=metrics,
    )
    injector = FaultInjector(network.topology, script=timeline, tracer=tracer)
    healing.attach(injector)
    source = ResilientTrafficSource(healing, config, seed=traffic_rng)
    loop = EventLoop(tracer=tracer)
    injector.start(loop)
    source.start(loop)
    loop.run(until=duration)
    healing.finalize(loop.now)
    return AvailabilityRun(
        traffic=source.stats,
        availability=healing.stats,
        timeline=timeline,
    )


def blocking_vs_dilation(
    topology: str,
    n_ports: int,
    dilations: "list[int] | tuple[int, ...]",
    config: "TrafficConfig | None" = None,
    duration: float = 2000.0,
    seed: int = 0,
) -> list[dict[str, float | int | str]]:
    """Experiment F3: capacity-blocking probability as dilation grows.

    Every dilation value runs with the same seed and parameters (the
    realized streams still diverge once admission decisions differ, as
    in any admission-coupled simulation).  Returns one summary dict per
    dilation.
    """
    config = config or TrafficConfig()
    rows = []
    for dilation in dilations:
        network = ConferenceNetwork.build(topology, n_ports, dilation=dilation)
        stats = run_traffic(network, config, duration=duration, seed=seed)
        row: dict[str, float | int | str] = {"topology": topology, "dilation": dilation}
        row.update(stats.summary())
        rows.append(row)
    return rows


def placement_comparison(
    topology: str,
    n_ports: int,
    dilation: int = 1,
    config: "TrafficConfig | None" = None,
    duration: float = 2000.0,
    seed: int = 0,
) -> dict[str, TrafficStats]:
    """Uniform vs aligned placement under identical traffic parameters.

    The aligned run uses buddy-allocated member blocks (Yang 2001); the
    uniform run scatters members arbitrarily (this paper's regime).
    At dilation 1 the aligned cube should admit essentially every call
    the ports allow, while uniform placement is throttled by link
    capacity — experiment T4's dynamic counterpart.
    """
    base = config or TrafficConfig()
    out: dict[str, TrafficStats] = {}
    for placement in ("uniform", "aligned"):
        cfg = TrafficConfig(
            arrival_rate=base.arrival_rate,
            mean_holding=base.mean_holding,
            mean_size=base.mean_size,
            min_size=base.min_size,
            max_size=base.max_size,
            placement=placement,
        )
        network = ConferenceNetwork.build(topology, n_ports, dilation=dilation)
        out[placement] = run_traffic(network, cfg, duration=duration, seed=seed)
    return out
