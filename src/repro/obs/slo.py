"""Live SLO engine: streaming percentiles, error budgets, burn-rate alerts.

The metrics registry (PR 3) answers "what happened"; this module answers
"is the service meeting its objectives *right now*".  Three pieces:

* :class:`WindowedHistogram` — a streaming, log-bucketed histogram that
  keeps a short ring of fixed-width time windows and answers p50/p95/p99
  over the live windows.  Log-spaced bucket edges give a guaranteed
  relative error: for any observation ``v`` with ``low <= v <= high``,
  the reported quantile ``q`` satisfies ``v <= q < v * growth``.  The
  whole structure is plain dicts under the hood: :meth:`snapshot` /
  :meth:`merge` fold one histogram into another, and merging is
  commutative (windows are keyed by absolute window index, counts add),
  so any merge order renders identically.
* :class:`SLOSpec` — a declarative objective: a good-event ratio target
  (``availability``-style) or a latency bound (good when the observed
  value is ``<= threshold``), with an error budget ``1 - objective`` and
  a set of :class:`BurnWindow` alerting rules.
* :class:`SLOEvaluator` — holds specs plus their windowed good/bad
  counts and latency histograms, evaluates every spec per tick, tracks
  multi-window burn rates, and reports an alert state per spec:
  ``ok`` → ``warn`` → ``page``.  Transitions into ``page`` fire breach
  hooks (the flight recorder registers one to dump an incident bundle).

Burn rate is the standard SRE quantity: observed bad fraction over a
window divided by the error budget.  A burn rate of 1.0 consumes the
budget exactly at the sustainable pace; a :class:`BurnWindow` with
``factor=14.4`` over a short window pages when the budget would be gone
in under 1/14.4 of the compliance period.

Everything here is driven by the *virtual* clock (ticks), never the
wall clock, and draws no randomness — evaluation is a pure function of
the recorded observations, so instrumented runs stay bit-transparent
and reproducible.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

__all__ = [
    "BurnWindow",
    "SLOEvaluator",
    "SLOSpec",
    "WindowedHistogram",
    "default_serve_slos",
    "log_bucket_edges",
]

#: Alert states in increasing severity; evaluator output uses these.
ALERT_STATES = ("ok", "warn", "page")


@lru_cache(maxsize=128)
def log_bucket_edges(low: float, high: float, growth: float) -> tuple[float, ...]:
    """Geometric bucket upper edges from ``low`` up to at least ``high``.

    ``edges[0] == low`` and ``edges[i] == low * growth**i``; the last
    edge is the first one ``>= high``.  A value ``v`` in ``(edges[i-1],
    edges[i]]`` reported as ``edges[i]`` carries relative error below
    ``growth`` — the bound the property suite checks.  Memoized: every
    histogram of one shape shares one edge tuple.
    """
    if not (low > 0.0 and high >= low):
        raise ValueError(f"need 0 < low <= high, got low={low!r} high={high!r}")
    if not growth > 1.0:
        raise ValueError(f"growth must be > 1, got {growth!r}")
    edges = [float(low)]
    while edges[-1] < high:
        edges.append(edges[-1] * growth)
    return tuple(edges)


class WindowedHistogram:
    """Log-bucketed histogram over a sliding ring of time windows.

    Observations land in the window ``int(now // window)``; only the
    ``windows`` most recent windows are retained, so quantiles describe
    recent behaviour, not the whole run.  ``now`` is virtual time —
    the caller's tick clock — which keeps results reproducible.
    """

    def __init__(
        self,
        *,
        low: float = 0.5,
        high: float = 4096.0,
        growth: float = 2.0 ** 0.5,
        window: float = 60.0,
        windows: int = 5,
    ):
        if window <= 0.0:
            raise ValueError(f"window must be positive, got {window!r}")
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows!r}")
        self._edges = log_bucket_edges(low, high, growth)
        self._growth = float(growth)
        self._window = float(window)
        self._max_windows = int(windows)
        # window index -> per-bucket counts (len(edges) + 1, last = overflow)
        self._frames: dict[int, list[int]] = {}
        # Lazily maintained sum over live frames; the evaluator queries
        # count + three quantiles every tick, so rescanning the ring each
        # time dominates the whole SLO path without this.
        self._merged: "list[int] | None" = None
        self.observed = 0  # every observation ever, trimmed or not

    # -- recording ---------------------------------------------------------

    @property
    def edges(self) -> tuple[float, ...]:
        """Bucket upper edges (immutable; shared by merge partners)."""
        return self._edges

    def _bucket(self, value: float) -> int:
        # bisect_left finds the first edge >= value, i.e. the tightest
        # upper bound; values past the last edge go to the overflow slot.
        return bisect_left(self._edges, value)

    def _frame(self, now: float) -> list[int]:
        wid = int(now // self._window)
        frame = self._frames.get(wid)
        if frame is None:
            frame = self._frames[wid] = [0] * (len(self._edges) + 1)
            self._trim(wid)
        return frame

    def _trim(self, newest: int) -> None:
        floor = newest - self._max_windows + 1
        stale = [w for w in self._frames if w < floor]
        for wid in stale:
            del self._frames[wid]
        if stale:
            self._merged = None

    def observe(self, value: float, now: float) -> None:
        """Record one observation at virtual time ``now``."""
        frame = self._frame(now)  # may trim, invalidating the cache
        bucket = self._bucket(float(value))
        frame[bucket] += 1
        if self._merged is not None:
            self._merged[bucket] += 1
        self.observed += 1

    def advance(self, now: float) -> None:
        """Expire windows that fell out of the ring as of ``now``.

        Called per tick by the evaluator so quiet histograms still age
        out; recording paths trim implicitly.
        """
        if self._frames:
            self._trim(max(int(now // self._window), max(self._frames)))

    # -- querying ----------------------------------------------------------

    def _merged_counts(self) -> list[int]:
        if self._merged is None:
            counts = [0] * (len(self._edges) + 1)
            for frame in self._frames.values():
                for i, c in enumerate(frame):
                    counts[i] += c
            self._merged = counts
        return self._merged

    def count(self) -> int:
        """Observations currently retained (live windows only)."""
        return sum(self._merged_counts())

    def quantile(self, q: float) -> "float | None":
        """The ``q``-quantile over the live windows; ``None`` if empty.

        Returns the upper edge of the bucket holding the ``q``-ranked
        observation — an overestimate by strictly less than ``growth``
        for in-range values.  The overflow bucket reports ``inf``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q!r}")
        counts = self._merged_counts()
        total = sum(counts)
        if total == 0:
            return None
        rank = max(1, math.ceil(q * total - 1e-9))
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank:
                return self._edges[i] if i < len(self._edges) else math.inf
        return math.inf  # pragma: no cover - rank <= total by construction

    def percentiles(self) -> "dict[str, float | None]":
        """The conventional p50/p95/p99 triple over the live windows."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable plain-dict view; window keys are absolute indices."""
        return {
            "edges": list(self._edges),
            "growth": self._growth,
            "window": self._window,
            "windows": self._max_windows,
            "observed": self.observed,
            "frames": {wid: list(frame) for wid, frame in sorted(self._frames.items())},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Windows are keyed by absolute index and counts add, so merging
        is commutative and associative: any merge order of the same
        snapshots yields an identical histogram (the exposition
        determinism the regression suite shuffles to check).
        """
        if list(snapshot["edges"]) != list(self._edges) or snapshot["window"] != self._window:
            raise ValueError("cannot merge windowed histograms with different shapes")
        for wid, counts in snapshot["frames"].items():
            wid = int(wid)
            frame = self._frames.setdefault(wid, [0] * (len(self._edges) + 1))
            for i, c in enumerate(counts):
                frame[i] += c
        self._merged = None
        self.observed += snapshot.get("observed", 0)
        if self._frames:
            self._trim(max(self._frames))


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate alerting rule: window length, threshold, severity."""

    ticks: float
    factor: float
    severity: str = "page"

    def __post_init__(self):
        if self.ticks <= 0.0:
            raise ValueError(f"window ticks must be positive, got {self.ticks!r}")
        if self.factor <= 0.0:
            raise ValueError(f"burn factor must be positive, got {self.factor!r}")
        if self.severity not in ("warn", "page"):
            raise ValueError(f"severity must be 'warn' or 'page', got {self.severity!r}")


#: Default alerting rules: a slow 6x warn and a fast 14.4x page, the
#: classic multi-window multi-burn-rate pair scaled to tick time.
DEFAULT_BURN_WINDOWS = (
    BurnWindow(ticks=240.0, factor=6.0, severity="warn"),
    BurnWindow(ticks=60.0, factor=14.4, severity="page"),
)


@dataclass(frozen=True)
class SLOSpec:
    """A declarative service-level objective.

    ``kind="ratio"`` counts good/bad events directly (availability,
    shed rate); ``kind="latency"`` derives good/bad from observed
    values against ``threshold`` (good when ``value <= threshold``)
    and additionally keeps a :class:`WindowedHistogram` for
    percentiles.  ``objective`` is the target good fraction; the error
    budget is ``1 - objective``.
    """

    name: str
    objective: float = 0.99
    kind: str = "ratio"
    threshold: "float | None" = None
    description: str = ""
    windows: "tuple[BurnWindow, ...]" = DEFAULT_BURN_WINDOWS
    histogram_low: float = 0.5
    histogram_high: float = 4096.0
    histogram_growth: float = 2.0 ** 0.5

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid SLO name {self.name!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective!r}")
        if self.kind not in ("ratio", "latency"):
            raise ValueError(f"kind must be 'ratio' or 'latency', got {self.kind!r}")
        if self.kind == "latency" and self.threshold is None:
            raise ValueError(f"latency SLO {self.name!r} needs a threshold")
        if not self.windows:
            raise ValueError(f"SLO {self.name!r} needs at least one burn window")

    @property
    def budget(self) -> float:
        """The error budget: tolerable bad fraction, ``1 - objective``."""
        return 1.0 - self.objective


def default_serve_slos(
    *,
    admission_latency_ticks: float = 10.0,
    recovery_ticks: float = 2.0,
) -> "tuple[SLOSpec, ...]":
    """The stock objectives for the serve/cluster layers.

    * ``admission_latency`` — 95% of admissions within
      ``admission_latency_ticks`` of arrival.
    * ``availability`` — 99.9% of per-tick session observations not in
      the down state.
    * ``recovery`` — 90% of fault recoveries within ``recovery_ticks``
      (protected links heal in ~0 via the backup-plan fast path).
    * ``shed_rate`` — at most 1% of offered requests shed or rejected
      by backpressure.
    """
    return (
        SLOSpec(
            "admission_latency",
            objective=0.95,
            kind="latency",
            threshold=admission_latency_ticks,
            description="admission latency from arrival to admitted (ticks)",
        ),
        SLOSpec(
            "availability",
            objective=0.999,
            description="fraction of session-ticks not spent down",
        ),
        SLOSpec(
            "recovery",
            objective=0.90,
            kind="latency",
            threshold=recovery_ticks,
            description="fault recovery time (ticks) per degraded conference",
            histogram_low=0.25,
            histogram_high=256.0,
        ),
        SLOSpec(
            "shed_rate",
            objective=0.99,
            description="fraction of offered requests not shed by backpressure",
        ),
    )


@dataclass
class _SpecState:
    """Mutable per-spec bookkeeping inside the evaluator."""

    spec: SLOSpec
    counts: "dict[int, list[int]]" = field(default_factory=dict)  # wid -> [good, bad]
    hist: "WindowedHistogram | None" = None
    state: str = "ok"
    breaches: int = 0


class SLOEvaluator:
    """Evaluates a set of :class:`SLOSpec` objects against live traffic.

    Good/bad counts land in fixed-width frames (``frame`` ticks wide);
    burn rates sum the frames covering each :class:`BurnWindow`.  Call
    :meth:`record` / :meth:`observe` from instrumentation sites (all
    gated on ``slo is not None``), then :meth:`evaluate` once per tick.
    One evaluator watches one service: a cluster keeps a single
    evaluator at its front and its shards run without one.
    """

    def __init__(
        self,
        specs: "Iterable[SLOSpec] | None" = None,
        *,
        frame: float = 15.0,
    ):
        if frame <= 0.0:
            raise ValueError(f"frame must be positive, got {frame!r}")
        self._frame = float(frame)
        self._specs: dict[str, _SpecState] = {}
        self._hooks: "list[Callable[[str, dict, float], None]]" = []
        self._last: "dict | None" = None
        for spec in specs if specs is not None else default_serve_slos():
            self.add_spec(spec)

    # -- configuration -----------------------------------------------------

    def add_spec(self, spec: SLOSpec) -> None:
        """Register an objective; names must be unique."""
        if spec.name in self._specs:
            raise ValueError(f"duplicate SLO spec {spec.name!r}")
        hist = None
        if spec.kind == "latency":
            hist = WindowedHistogram(
                low=spec.histogram_low,
                high=spec.histogram_high,
                growth=spec.histogram_growth,
                window=self._frame,
                windows=self._hist_windows(spec),
            )
        self._specs[spec.name] = _SpecState(spec=spec, hist=hist)

    def _hist_windows(self, spec: SLOSpec) -> int:
        longest = max(w.ticks for w in spec.windows)
        return max(1, math.ceil(longest / self._frame))

    @property
    def specs(self) -> "tuple[SLOSpec, ...]":
        """The registered objectives, sorted by name."""
        return tuple(self._specs[name].spec for name in sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def add_breach_hook(self, hook: "Callable[[str, dict, float], None]") -> None:
        """Register ``hook(name, status, now)`` fired on entry to ``page``.

        The flight recorder registers one to dump an incident bundle;
        hooks run inside :meth:`evaluate` and must not raise.
        """
        self._hooks.append(hook)

    # -- recording ---------------------------------------------------------

    def _counts(self, name: str, now: float) -> list[int]:
        state = self._specs[name]
        wid = int(now // self._frame)
        frame = state.counts.get(wid)
        if frame is None:
            frame = state.counts[wid] = [0, 0]
            self._trim(state, wid)
        return frame

    def _retained(self, spec: SLOSpec) -> int:
        return self._hist_windows(spec)

    def _trim(self, state: _SpecState, newest: int) -> None:
        floor = newest - self._retained(state.spec) + 1
        for wid in [w for w in state.counts if w < floor]:
            del state.counts[wid]

    def record(self, name: str, *, good: int = 0, bad: int = 0, now: float = 0.0) -> None:
        """Add good/bad event counts for a ratio objective."""
        frame = self._counts(name, now)
        frame[0] += int(good)
        frame[1] += int(bad)

    def observe(self, name: str, value: float, now: float = 0.0) -> None:
        """Record one latency-style observation for a latency objective."""
        state = self._specs[name]
        if state.hist is None:
            raise ValueError(f"SLO {name!r} is not a latency objective")
        state.hist.observe(value, now)
        good = value <= state.spec.threshold
        self.record(name, good=1 if good else 0, bad=0 if good else 1, now=now)

    # -- evaluation --------------------------------------------------------

    def _burn(self, state: _SpecState, window: BurnWindow, now: float) -> "dict[str, Any]":
        floor = int((now - window.ticks) // self._frame) + 1
        good = bad = 0
        for wid, (g, b) in state.counts.items():
            if wid >= floor:
                good += g
                bad += b
        total = good + bad
        bad_rate = (bad / total) if total else 0.0
        burn = bad_rate / state.spec.budget
        return {
            "ticks": window.ticks,
            "factor": window.factor,
            "severity": window.severity,
            "good": good,
            "bad": bad,
            "bad_rate": bad_rate,
            "burn_rate": burn,
            "firing": total > 0 and burn >= window.factor,
        }

    def evaluate(self, now: float) -> dict:
        """Evaluate every objective as of virtual time ``now``.

        Returns (and caches as :attr:`last`) the full status document —
        the same shape the ``/slo`` endpoint serves.  Specs whose state
        transitions into ``page`` fire the registered breach hooks.
        """
        statuses = {}
        overall = "ok"
        for name in sorted(self._specs):
            state = self._specs[name]
            if state.hist is not None:
                state.hist.advance(now)
            self._trim(state, int(now // self._frame))
            windows = [self._burn(state, w, now) for w in state.spec.windows]
            severity = "ok"
            for w in windows:
                if w["firing"]:
                    if w["severity"] == "page":
                        severity = "page"
                    elif severity == "ok":
                        severity = "warn"
            previous, state.state = state.state, severity
            breached = severity == "page" and previous != "page"
            if breached:
                state.breaches += 1
            status = {
                "name": name,
                "state": severity,
                "objective": state.spec.objective,
                "budget": state.spec.budget,
                "kind": state.spec.kind,
                "threshold": state.spec.threshold,
                "breaches": state.breaches,
                "windows": windows,
            }
            if state.hist is not None:
                status["percentiles"] = state.hist.percentiles()
                status["observations"] = state.hist.count()
            statuses[name] = status
            if ALERT_STATES.index(severity) > ALERT_STATES.index(overall):
                overall = severity
            if breached:
                for hook in self._hooks:
                    hook(name, status, now)
        self._last = {"t": now, "state": overall, "slos": statuses}
        return self._last

    @property
    def last(self) -> "dict | None":
        """The most recent :meth:`evaluate` result (``None`` before any)."""
        return self._last

    @property
    def state(self) -> str:
        """Overall alert state from the last evaluation (``ok`` before any)."""
        return self._last["state"] if self._last is not None else "ok"

    def percentiles(self, name: str) -> "dict[str, float | None]":
        """Shortcut: live percentiles of a latency objective."""
        state = self._specs[name]
        if state.hist is None:
            raise ValueError(f"SLO {name!r} is not a latency objective")
        return state.hist.percentiles()

    # -- export ------------------------------------------------------------

    def to_json(self, indent: "int | None" = None) -> str:
        """The last evaluation (or an empty shell) as deterministic JSON."""
        doc = self._last if self._last is not None else {
            "t": None,
            "state": "ok",
            "slos": {name: {"name": name, "state": "ok"} for name in sorted(self._specs)},
        }
        return json.dumps(doc, indent=indent, sort_keys=True)

    def write(self, path: str, indent: int = 2) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=indent))
            fh.write("\n")

