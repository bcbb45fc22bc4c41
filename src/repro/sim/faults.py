"""Live fault injection for the discrete-event simulator.

The resilience analysis in ``repro.analysis.resilience`` evaluates
*static* fault sets against *fresh* routings; this module puts faults on
the simulation clock instead.  A :class:`FaultInjector` schedules
failure/repair transitions of individual inter-stage links (and
optionally level-0 injection wires) on the :class:`~repro.sim.engine.EventLoop`
and maintains the currently-dead point set as simulation state.
Subscribers — chiefly the
:class:`~repro.core.healing.SelfHealingController` — react to each
transition while conferences are live.

The injector replays one source, an explicit sequence of
:class:`FaultTransition` records: a test's hand-written script, or the
stochastic timeline :func:`generate_fault_timeline` pre-draws (an
alternating exponential time-to-failure / time-to-repair renewal
process per link, one spawned RNG stream each, so the timeline is a
pure function of the seed).  Experiments that must subject several
designs to the *identical* fault process pass each the same timeline.

Pre-generating the stochastic timeline is what makes the engine's
determinism contract trivial to keep: the fault process can never be
perturbed by how admission decisions reorder the traffic events around
it, and relay-on/relay-off ablations face byte-identical fault histories.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import EventLoop
from repro.topology.network import MultistageNetwork, Point
from repro.util.rng import spawn_rngs
from repro.util.validation import check_positive

__all__ = [
    "FaultTransition",
    "FaultProcessConfig",
    "FaultInjector",
    "fault_universe",
    "generate_fault_timeline",
]


@dataclass(frozen=True)
class FaultTransition:
    """One scheduled link state change: ``failed=True`` kills the point
    ``(level, row)`` at ``time``; ``failed=False`` repairs it."""

    time: float
    point: Point
    failed: bool

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"transition time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class FaultProcessConfig:
    """Parameters of the per-link failure/repair renewal process.

    Each link independently alternates exponential up-times (mean
    ``mean_time_to_failure``) and down-times (mean
    ``mean_time_to_repair``); ``include_injections`` lets the level-0
    input wires fail too, cutting members off entirely.
    """

    mean_time_to_failure: float = 200.0
    mean_time_to_repair: float = 10.0
    include_injections: bool = False

    def __post_init__(self) -> None:
        check_positive(self.mean_time_to_failure, "mean_time_to_failure")
        check_positive(self.mean_time_to_repair, "mean_time_to_repair")


def fault_universe(net: MultistageNetwork, include_injections: bool = False) -> list[Point]:
    """All points that can fail, in deterministic (level, row) order."""
    first = 0 if include_injections else 1
    return [(t, r) for t in range(first, net.n_stages + 1) for r in range(net.n_ports)]


def generate_fault_timeline(
    net: MultistageNetwork,
    process: "FaultProcessConfig | None" = None,
    horizon: float = 1000.0,
    seed: "int | np.random.Generator | None" = None,
) -> tuple[FaultTransition, ...]:
    """Pre-draw a per-link failure/repair timeline up to ``horizon``.

    Every link gets its own spawned RNG stream, so the timeline is a
    pure function of ``(net, process, horizon, seed)`` — independent of
    whatever traffic later shares the event loop.  Transitions are
    returned sorted by ``(time, point)``.
    """
    process = process or FaultProcessConfig()
    check_positive(horizon, "horizon")
    universe = fault_universe(net, process.include_injections)
    rngs = spawn_rngs(seed, len(universe))
    transitions: list[FaultTransition] = []
    for point, rng in zip(universe, rngs):
        t, up = 0.0, True
        while True:
            mean = process.mean_time_to_failure if up else process.mean_time_to_repair
            t += float(rng.exponential(mean))
            if t >= horizon:
                break
            transitions.append(FaultTransition(time=t, point=point, failed=up))
            up = not up
    transitions.sort(key=lambda tr: (tr.time, tr.point, tr.failed))
    return tuple(transitions)


FaultListener = Callable[[EventLoop, FaultTransition], None]


class FaultInjector:
    """Replays a fault timeline on the event loop as live network state.

    ``script`` is any iterable of :class:`FaultTransition` (a stochastic
    one comes from :func:`generate_fault_timeline`).  The timeline must
    be consistent: every point lies on ``net``'s ``(level, row)`` grid
    (``0 <= level <= n_stages``, ``0 <= row < n_ports``), and per point
    the transitions strictly alternate fail/repair starting with a fail.

    Subscribers registered with :meth:`subscribe` are invoked *after*
    the injector's own fault-set update, in registration order, for
    every transition — the hook the self-healing controller hangs its
    degradation ladder on.
    """

    def __init__(
        self,
        net: MultistageNetwork,
        script: Iterable[FaultTransition],
        tracer=None,
    ):
        self._timeline = self._validate(net, script)
        self._current: set[Point] = set()
        self._history: list[FaultTransition] = []
        self._listeners: list[FaultListener] = []
        self._started = False
        # Observation only (duck-typed repro.obs.trace.Tracer): every
        # executed transition emits a fault.fail / fault.repair event.
        self.tracer = tracer

    @staticmethod
    def _validate(
        net: MultistageNetwork, script: Iterable[FaultTransition]
    ) -> tuple[FaultTransition, ...]:
        timeline = tuple(script)
        if any(timeline[i].time > timeline[i + 1].time for i in range(len(timeline) - 1)):
            raise ValueError("fault script must be sorted by time")
        state: dict[Point, bool] = {}
        for tr in timeline:
            level, row = tr.point
            if not (0 <= level <= net.n_stages and 0 <= row < net.n_ports):
                raise ValueError(
                    f"fault point {tr.point} at t={tr.time} is off the network's grid: "
                    f"level must lie in [0, {net.n_stages}] and row in [0, {net.n_ports})"
                )
            if state.get(tr.point, False) == tr.failed:
                kind = "fail" if tr.failed else "repair"
                raise ValueError(
                    f"inconsistent fault script: {kind} of {tr.point} at t={tr.time} "
                    f"but the point is already {'dead' if tr.failed else 'alive'}"
                )
            state[tr.point] = tr.failed
        return timeline

    @property
    def timeline(self) -> tuple[FaultTransition, ...]:
        """The full (pre-validated) transition script."""
        return self._timeline

    @property
    def current_faults(self) -> frozenset[Point]:
        """The points dead right now."""
        return frozenset(self._current)

    @property
    def history(self) -> tuple[FaultTransition, ...]:
        """Transitions already executed, in firing order."""
        return tuple(self._history)

    def subscribe(self, listener: FaultListener) -> None:
        """Register a callback invoked on every executed transition."""
        self._listeners.append(listener)

    def start(self, loop: EventLoop) -> None:
        """Schedule every transition on ``loop`` (call exactly once)."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        for tr in self._timeline:
            loop.schedule_at(tr.time, lambda lp, tr=tr: self._fire(lp, tr))

    def _fire(self, loop: EventLoop, transition: FaultTransition) -> None:
        (self._current.add if transition.failed else self._current.discard)(transition.point)
        self._history.append(transition)
        if self.tracer is not None:
            self.tracer.event(
                "fault.fail" if transition.failed else "fault.repair",
                t=transition.time,
                level=transition.point[0],
                row=transition.point[1],
                dead=len(self._current),
            )
        for listener in self._listeners:
            listener(loop, transition)
