"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`SpanRecorder` wraps the public methods listed in :data:`TIMED`
on their classes (never on instances, never inside ``src/``), records
one span per call — name, start, end, parent span and trace id — and
restores every original attribute afterwards.  The trace id is the
client's current tick index, or the request index while a ``submit_*``
call runs.  Spans stay in memory; :func:`write_jsonl` writes them out.

A span's *self time* is its duration minus the durations of its direct
child spans; calls here are strictly nested, so a tick's root span is
partitioned exactly into the self times of the spans under it.
:func:`layer_metrics` turns one traced window into the per-layer
metrics, with shares taken of the window's summed ``tick()`` wall time
as the client measured it.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

from repro.cluster.controller import ClusterService
from repro.cluster.directory import SessionDirectory
from repro.core.admission import AdmissionController
from repro.core.healing import SelfHealingController
from repro.obs import metrics as obs_metrics
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SLOEvaluator
from repro.obs.trace import Tracer
from repro.perfmodel.capacity import DeliveryModel
from repro.protect.plans import BackupPlanStore
from repro.serve.backpressure import AdmissionQueue
from repro.serve.batcher import Batcher
from repro.serve.service import FabricService
from repro.serve.session import SessionTable
from repro.sim.engine import EventLoop


def _depth(args) -> int:
    return args[0].depth


def _batch_len(args) -> int:
    return len(args[1])


def _churn_flags(result) -> int:
    return (1 if result.hitless else 0) | (2 if result.mode == "full-reroute" else 0)


# (layer, class, method, pre(args) -> info, post(result) -> info)
TIMED = (
    ("serve", FabricService, "tick", None, None),
    ("serve", AdmissionQueue, "offer", None, None),
    ("serve", AdmissionQueue, "take", _depth, None),
    ("serve", Batcher, "execute", _batch_len, None),
    ("serve", SessionTable, "live", None, None),
    ("serve", SessionTable, "counts", None, None),
    ("serve", SessionTable, "create", None, None),
    ("core.route_batch", SelfHealingController, "prime_batch", _batch_len, None),
    ("core.healing", SelfHealingController, "try_join", None, None),
    ("core.healing", SelfHealingController, "resize", None, _churn_flags),
    ("core.healing", SelfHealingController, "leave", None, None),
    ("core.healing", SelfHealingController, "apply_fault", None, None),
    ("core.healing", SelfHealingController, "apply_repair", None, None),
    ("core.admission", AdmissionController, "admit_route", None, None),
    ("core.admission", AdmissionController, "apply_churn", None, None),
    ("core.admission", AdmissionController, "leave", None, None),
    ("core.admission", AdmissionController, "replace_route", None, None),
    ("protect", BackupPlanStore, "protect", None, None),
    ("protect", BackupPlanStore, "lookup", None, None),
    ("protect", BackupPlanStore, "invalidate", None, None),
    ("protect", BackupPlanStore, "invalidate_links", None, None),
    ("sim", EventLoop, "run", None, None),
    ("perfmodel", DeliveryModel, "on_tick", None, None),
    ("obs", Tracer, "span_open", None, None),
    ("obs", Tracer, "span_close", None, None),
    ("obs", Tracer, "event", None, None),
    ("obs", obs_metrics.MetricsRegistry, "counter", None, None),
    ("obs", obs_metrics.MetricsRegistry, "gauge", None, None),
    ("obs", obs_metrics.MetricsRegistry, "histogram", None, None),
    # The registry accessors only return the family; the recording
    # itself happens in these methods, called by the instrumented code.
    ("obs", obs_metrics.Counter, "inc", None, None),
    ("obs", obs_metrics.Gauge, "set", None, None),
    ("obs", obs_metrics.Gauge, "set_max", None, None),
    ("obs", obs_metrics.Gauge, "inc", None, None),
    ("obs", obs_metrics.Histogram, "observe", None, None),
    ("obs", SLOEvaluator, "record", None, None),
    ("obs", SLOEvaluator, "observe", None, None),
    ("obs", SLOEvaluator, "evaluate", None, None),
    ("obs", FlightRecorder, "sample_metrics", None, None),
    ("obs", FlightRecorder, "note_slo", None, None),
    ("cluster", ClusterService, "tick", None, None),
    ("cluster", ClusterService, "submit_open", None, None),
    ("cluster", ClusterService, "submit_join", None, None),
    ("cluster", ClusterService, "submit_leave", None, None),
    ("cluster", ClusterService, "submit_close", None, None),
    ("cluster", SessionDirectory, "create", None, None),
    ("cluster", SessionDirectory, "get", None, None),
    ("cluster", SessionDirectory, "require", None, None),
    ("cluster", SessionDirectory, "live", None, None),
    ("cluster", SessionDirectory, "on_shard", None, None),
    ("cluster", SessionDirectory, "counts", None, None),
    ("cluster", SessionDirectory, "record_move", None, None),
    ("cluster", SessionDirectory, "inconsistencies", None, None),
)

NAMES = tuple(f"{cls.__name__}.{method}" for _layer, cls, method, _pre, _post in TIMED)
LAYER_OF = {name: entry[0] for name, entry in zip(NAMES, TIMED)}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
TICK_ROOTS = frozenset({"FabricService.tick", "ClusterService.tick"})

# Span tuple fields.
NAME, START, END, PARENT, TRACE, INFO, ERR = range(7)


class SpanRecorder:
    """Class-level method wrappers that record nested spans.

    Use as ``install()`` … ``restore()``; between the two, spans are
    recorded only while :meth:`start` … :meth:`stop` bracket a window.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, object]] = []
        self._episode = None
        self.active = False

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("wrappers already installed")
        for name_id, (_layer, cls, method, pre, post) in enumerate(TIMED):
            original = cls.__dict__[method]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{cls.__name__}.{method} is not a plain method")
            self._originals.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name_id, pre, post))

    def restore(self) -> None:
        """Put every original method back and verify that it is there."""
        originals, self._originals = self._originals, []
        for cls, method, original in originals:
            setattr(cls, method, original)
        for cls, method, original in originals:
            if cls.__dict__.get(method) is not original:
                raise RuntimeError(f"{cls.__name__}.{method} was not restored")

    def _wrap(self, fn, name_id: int, pre, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            info = pre(args) if pre is not None else 0
            trace = self._episode.trace_id
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, trace, info, 1)
                raise
            t1 = clock()
            stack.pop()
            if post is not None:
                info = post(result)
            spans[idx] = (name_id, t0, t1, parent, trace, info, 0)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- the client's hooks ------------------------------------------------

    def start(self, episode) -> None:
        """Attach to an episode (its ``trace_id`` labels every span)."""
        self._episode = episode
        self.spans.clear()
        self._stack.clear()

    def mark_window(self) -> None:
        """Begin recording (called between ticks, with no span open)."""
        self.active = True

    def stop(self) -> None:
        self.active = False


# -- analysis --------------------------------------------------------------


class SpanTable:
    """Column view of recorded spans with self times and tick scoping."""

    def __init__(self, spans: list):
        arr = np.array(spans, dtype=float).reshape(-1, 7)
        self.name = arr[:, NAME].astype(int)
        self.start = arr[:, START]
        self.dur = arr[:, END] - arr[:, START]
        self.parent = arr[:, PARENT].astype(int)
        self.trace = arr[:, TRACE].astype(int)
        self.info = arr[:, INFO]
        self.err = arr[:, ERR].astype(bool)
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(arr)
        )
        self.self_time = self.dur - child
        root = list(range(len(arr)))
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:  # parents precede their children
                root[i] = root[p]
        self.in_tick = self.of(*TICK_ROOTS)[root]

    def __len__(self) -> int:
        return len(self.name)

    def of(self, *names: str) -> np.ndarray:
        """Boolean mask of spans with one of ``names``."""
        return np.isin(self.name, [NAMES.index(n) for n in names])

    def in_layer(self, layer: str) -> np.ndarray:
        return self.of(*(n for n in NAMES if LAYER_OF[n] == layer))


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _frac(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


# Metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "serve.self_share": "ratio",
    "serve.sessions.us_per_tick": "us",
    "serve.queue.depth_p50": "count",
    "serve.queue.depth_max": "count",
    "serve.batch_size_p50": "count",
    "core.route_batch.calls_per_tick": "1/tick",
    "core.route_batch.us_per_conf": "us",
    "core.route_batch.self_share": "ratio",
    "core.healing.try_join.us_p50": "us",
    "core.healing.admit_frac": "ratio",
    "core.healing.resize.share": "ratio",
    "core.healing.hitless_frac": "ratio",
    "core.healing.full_reroute_frac": "ratio",
    "core.healing.fault.share": "ratio",
    "core.healing.self_share": "ratio",
    "core.admission.admit_route.us_p50": "us",
    "core.admission.leave.us_p50": "us",
    "core.admission.apply_churn.share": "ratio",
    "core.admission.self_share": "ratio",
    "protect.calls_per_tick": "1/tick",
    "protect.self_share": "ratio",
    "protect.plan_hit_frac": "ratio",
    "sim.loop.self_share": "ratio",
    "perfmodel.self_share": "ratio",
    "perfmodel.delivery_frac": "ratio",
    "obs.calls_per_tick": "1/tick",
    "obs.self_share": "ratio",
    "obs.slo.share": "ratio",
    "cluster.self_share": "ratio",
    "cluster.submit.self_frac": "ratio",
    "cluster.directory.calls_per_tick": "1/tick",
    "untraced.self_share": "ratio",
    "trace_overhead_frac": "ratio",
}


def layer_metrics(spans: SpanTable, result) -> dict[str, float]:
    """Per-layer metrics of one traced episode (all but the overhead)."""
    ticks = len(result.tick_s)
    tick_wall = float(sum(result.tick_s))
    tick = spans.in_tick

    def share(mask) -> float:
        return _frac(spans.self_time[mask & tick].sum(), tick_wall)

    def incl_share(*names: str) -> float:
        return _frac(spans.dur[spans.of(*names) & tick].sum(), tick_wall)

    def us_p50(name: str) -> float:
        return _median(spans.dur[spans.of(name)] * 1e6)

    def per_tick(mask) -> float:
        return _frac(int(mask.sum()), ticks)

    take = spans.of("AdmissionQueue.take") & tick
    prime = spans.of("SelfHealingController.prime_batch") & tick
    try_join = spans.of("SelfHealingController.try_join")
    resized = spans.of("SelfHealingController.resize") & ~spans.err
    flags = spans.info[resized].astype(int)
    submits = spans.of(*(f"ClusterService.submit_{k}" for k in ("open", "join", "leave", "close")))
    counters = result.counters
    shares = {layer: share(spans.in_layer(layer)) for layer in LAYERS}
    depth = spans.info[take]
    return {
        "serve.self_share": shares["serve"],
        "serve.sessions.us_per_tick": _frac(
            spans.dur[spans.of("SessionTable.live", "SessionTable.counts", "SessionTable.create")]
            .sum() * 1e6,
            ticks,
        ),
        "serve.queue.depth_p50": _median(depth),
        "serve.queue.depth_max": float(depth.max()) if len(depth) else 0.0,
        "serve.batch_size_p50": _median(spans.info[spans.of("Batcher.execute") & tick]),
        "core.route_batch.calls_per_tick": per_tick(prime),
        "core.route_batch.us_per_conf": _frac(
            spans.dur[prime].sum() * 1e6, spans.info[prime].sum()
        ),
        "core.route_batch.self_share": shares["core.route_batch"],
        "core.healing.try_join.us_p50": us_p50("SelfHealingController.try_join"),
        "core.healing.admit_frac": _frac(int((~spans.err[try_join]).sum()), int(try_join.sum())),
        "core.healing.resize.share": incl_share("SelfHealingController.resize"),
        "core.healing.hitless_frac": _frac(int((flags & 1).astype(bool).sum()), len(flags)),
        "core.healing.full_reroute_frac": _frac(int((flags & 2).astype(bool).sum()), len(flags)),
        "core.healing.fault.share": incl_share(
            "SelfHealingController.apply_fault", "SelfHealingController.apply_repair"
        ),
        "core.healing.self_share": shares["core.healing"],
        "core.admission.admit_route.us_p50": us_p50("AdmissionController.admit_route"),
        "core.admission.leave.us_p50": us_p50("AdmissionController.leave"),
        "core.admission.apply_churn.share": incl_share("AdmissionController.apply_churn"),
        "core.admission.self_share": shares["core.admission"],
        "protect.calls_per_tick": per_tick(spans.in_layer("protect")),
        "protect.self_share": shares["protect"],
        "protect.plan_hit_frac": _frac(counters["plan_hits"], counters["plan_lookups"]),
        "sim.loop.self_share": shares["sim"],
        "perfmodel.self_share": shares["perfmodel"],
        "perfmodel.delivery_frac": _frac(
            counters["delivered_packets"], counters["offered_packets"]
        ),
        "obs.calls_per_tick": per_tick(spans.in_layer("obs")),
        "obs.self_share": shares["obs"],
        "obs.slo.share": incl_share("SLOEvaluator.evaluate"),
        "cluster.self_share": shares["cluster"],
        "cluster.submit.self_frac": _frac(
            spans.self_time[submits].sum(), spans.dur[submits].sum()
        ),
        "cluster.directory.calls_per_tick": per_tick(
            spans.of(*(n for n in NAMES if n.startswith("SessionDirectory.")))
        ),
        "untraced.self_share": 1.0 - sum(shares.values()),
    }


def top_self(spans: SpanTable, result, k: int = 5) -> list[tuple[str, float]]:
    """The ``k`` span names with the largest in-tick self-time share."""
    tick_wall = float(sum(result.tick_s))
    totals = np.bincount(
        spans.name[spans.in_tick],
        weights=spans.self_time[spans.in_tick],
        minlength=len(NAMES),
    )
    order = np.argsort(-totals)[:k]
    return [(NAMES[i], float(totals[i]) / tick_wall) for i in order if totals[i] > 0]


def write_jsonl(spans: SpanTable, path: str) -> None:
    """Write one traced window's spans, one JSON object per line."""
    t0 = float(spans.start.min()) if len(spans) else 0.0
    with open(path, "w") as fh:
        for i in range(len(spans)):
            name = NAMES[spans.name[i]]
            fh.write(
                json.dumps(
                    {
                        "id": i,
                        "name": name,
                        "layer": LAYER_OF[name],
                        "start_us": round((spans.start[i] - t0) * 1e6, 3),
                        "end_us": round((spans.start[i] + spans.dur[i] - t0) * 1e6, 3),
                        "parent": int(spans.parent[i]),
                        "trace": int(spans.trace[i]),
                        "scope": "tick" if spans.in_tick[i] else "request",
                    }
                )
            )
            fh.write("\n")
