"""A labelled metrics registry with Prometheus-style exposition.

Zero-dependency counters, gauges, and histograms for the conference
switching stack.  The design goals mirror the tracer's:

* **Off by default, bit-transparent.**  Nothing records unless a
  registry is attached (or process-wide collection is enabled); metric
  emission never touches RNG streams or decisions, so instrumented and
  uninstrumented runs are byte-identical in their outputs.
* **Deterministic export.**  :meth:`MetricsRegistry.render_prometheus`
  and :meth:`MetricsRegistry.to_json` sort metric families and label
  sets, so equal registries render to equal bytes.
* **Deterministic merge.**  :meth:`MetricsRegistry.merge` folds a
  picklable :meth:`~MetricsRegistry.snapshot` from another process into
  this registry: counters and histograms add, gauges keep the maximum
  (peak semantics — the observed conflict multiplicity of a sharded
  sweep is the max over its workers).  The parallel runner merges
  worker snapshots in chunk-submission order, so the combined registry
  is identical for every worker count.

The module also keeps one **per-process default registry** behind an
enable flag, which is what the :func:`timed` profiling hook and the
experiment kernels write to when collection is on — worker processes
of the parallel engine flip the flag per chunk (see
``repro.parallel.runner``) and ship the delta back as a snapshot.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from functools import wraps
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "maybe_registry",
    "collection_enabled",
    "collecting",
    "timed",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_OCCUPANCY_BUCKETS",
]

LabelKey = tuple[tuple[str, str], ...]

#: Seconds buckets for the ``timed()`` histograms (route computations
#: run tens of microseconds to tens of milliseconds on laptop hardware).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Channel-count buckets for per-stage link-occupancy histograms
#: (loads are bounded by the dilation, at most ``n_ports``).
DEFAULT_OCCUPANCY_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128, 256,
)


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus-friendly number formatting (ints stay ints)."""
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(key: LabelKey, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared storage/plumbing of one metric family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        _check_name(name)
        self.name = name
        self.help = help
        self._series: dict[LabelKey, Any] = {}

    def labelsets(self) -> list[LabelKey]:
        """All label sets with recorded data, sorted."""
        return sorted(self._series)


def _check_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name cannot start with a digit: {name!r}")


class Counter(_Metric):
    """A monotonically increasing count, partitioned by labels."""

    kind = "counter"

    def inc(self, amount: "int | float" = 1, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> "int | float":
        """Current count of one labelled series (0 when never touched)."""
        return self._series.get(_label_key(labels), 0)


class Gauge(_Metric):
    """A point-in-time value; merges across processes by maximum."""

    kind = "gauge"

    def set(self, value: "int | float", **labels: Any) -> None:
        """Set the labelled series to ``value``."""
        self._series[_label_key(labels)] = value

    def set_max(self, value: "int | float", **labels: Any) -> None:
        """Raise the labelled series to ``value`` if it is higher."""
        key = _label_key(labels)
        current = self._series.get(key)
        if current is None or value > current:
            self._series[key] = value

    def inc(self, amount: "int | float" = 1, **labels: Any) -> None:
        """Shift the labelled series by ``amount`` (may be negative)."""
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> "int | float":
        """Current value of one labelled series (0 when never set)."""
        return self._series.get(_label_key(labels), 0)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Each labelled series keeps per-bucket counts plus ``sum`` and
    ``count``; bucket bounds are fixed at construction and must match
    for merges.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: "Sequence[float] | None" = None):
        super().__init__(name, help)
        bounds = tuple(sorted(buckets if buckets is not None else DEFAULT_TIME_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: tuple[float, ...] = bounds

    def observe(self, value: "int | float", **labels: Any) -> None:
        """Record one observation into the labelled series."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = {
                "counts": [0] * (len(self.buckets) + 1),  # +1 for +Inf
                "sum": 0.0,
                "count": 0,
            }
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series["counts"][idx] += 1
        series["sum"] += value
        series["count"] += 1

    def count(self, **labels: Any) -> int:
        """Total observations of one labelled series."""
        series = self._series.get(_label_key(labels))
        return series["count"] if series else 0

    def sum(self, **labels: Any) -> float:
        """Sum of observations of one labelled series."""
        series = self._series.get(_label_key(labels))
        return series["sum"] if series else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metric families with deterministic export."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}

    # -- family accessors (get-or-create) ----------------------------------

    def _family(self, cls: type, name: str, help: str, **kwargs) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, **kwargs)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        return self._family(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: "Sequence[float] | None" = None
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        return self._family(Histogram, name, help, buckets=buckets)

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[_Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def get(self, name: str) -> "_Metric | None":
        """The metric family ``name``, or ``None``."""
        return self._metrics.get(name)

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, picklable copy of every family and series.

        This is the wire format worker processes ship back to the
        reducer; :meth:`merge` consumes it.
        """
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            family: dict = {"kind": metric.kind, "help": metric.help, "series": {}}
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
                for key, series in metric._series.items():
                    family["series"][key] = {
                        "counts": list(series["counts"]),
                        "sum": series["sum"],
                        "count": series["count"],
                    }
            else:
                family["series"] = dict(metric._series)
            out[name] = family
        return out

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold another registry (or a snapshot) into this one.

        Counters and histogram series add; gauges keep the maximum.
        Histogram merges require identical bucket bounds.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name in sorted(snap):
            family = snap[name]
            kind = family["kind"]
            if kind == "histogram":
                metric = self.histogram(name, family["help"], buckets=family["buckets"])
                if list(metric.buckets) != list(family["buckets"]):
                    raise ValueError(f"histogram {name!r} bucket mismatch in merge")
                for key, series in family["series"].items():
                    key = tuple(tuple(pair) for pair in key)
                    mine = metric._series.get(key)
                    if mine is None:
                        mine = metric._series[key] = {
                            "counts": [0] * (len(metric.buckets) + 1),
                            "sum": 0.0,
                            "count": 0,
                        }
                    mine["counts"] = [
                        a + b for a, b in zip(mine["counts"], series["counts"])
                    ]
                    mine["sum"] += series["sum"]
                    mine["count"] += series["count"]
            elif kind == "counter":
                metric = self.counter(name, family["help"])
                for key, value in family["series"].items():
                    key = tuple(tuple(pair) for pair in key)
                    metric._series[key] = metric._series.get(key, 0) + value
            elif kind == "gauge":
                metric = self.gauge(name, family["help"])
                for key, value in family["series"].items():
                    key = tuple(tuple(pair) for pair in key)
                    current = metric._series.get(key)
                    if current is None or value > current:
                        metric._series[key] = value
            else:  # pragma: no cover - snapshot() only emits known kinds
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    # -- exposition --------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key in metric.labelsets():
                    series = metric._series[key]
                    cumulative = 0
                    for bound, count in zip(metric.buckets, series["counts"]):
                        cumulative += count
                        labels = _render_labels(key, (("le", _format_value(float(bound))),))
                        lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                    cumulative += series["counts"][-1]
                    labels = _render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                    base = _render_labels(key)
                    lines.append(f"{metric.name}_sum{base} {_format_value(float(series['sum']))}")
                    lines.append(f"{metric.name}_count{base} {series['count']}")
            else:
                for key in metric.labelsets():
                    value = metric._series[key]
                    lines.append(
                        f"{metric.name}{_render_labels(key)} {_format_value(float(value))}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: "int | None" = None) -> str:
        """The snapshot as canonical JSON (label tuples become objects)."""
        snap = self.snapshot()
        for family in snap.values():
            family["series"] = [
                {"labels": dict(key), **(value if isinstance(value, dict) else {"value": value})}
                for key, value in sorted(family["series"].items())
            ]
        return json.dumps(snap, indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        """Write the registry to ``path``: JSON when it ends in
        ``.json``, Prometheus text exposition otherwise."""
        text = self.to_json(indent=2) if str(path).endswith(".json") else self.render_prometheus()
        with open(path, "w") as fh:
            fh.write(text)


# -- the per-process default registry ---------------------------------------

_process_registry = MetricsRegistry()
_collection_on = False


def default_registry() -> MetricsRegistry:
    """The process-wide registry behind :func:`timed` and the kernels."""
    return _process_registry


def collection_enabled() -> bool:
    """Whether the default registry currently accepts recordings."""
    return _collection_on


def maybe_registry() -> "MetricsRegistry | None":
    """The default registry iff collection is enabled, else ``None``.

    The one-line gate every opt-in instrumentation site uses::

        reg = maybe_registry()
        if reg is not None:
            reg.counter("repro_trials_total").inc(kind="search")
    """
    return _process_registry if _collection_on else None


@contextmanager
def collecting(registry: "MetricsRegistry | None" = None):
    """Enable collection into ``registry`` (fresh by default) for a block.

    Swaps the process default registry, so recordings inside the block
    are isolated — the parallel runner uses exactly this to capture a
    per-chunk delta in each worker.  Restores the previous default (and
    enable flag) on exit.
    """
    global _process_registry, _collection_on
    saved_registry, saved_flag = _process_registry, _collection_on
    reg = registry if registry is not None else MetricsRegistry()
    _process_registry, _collection_on = reg, True
    try:
        yield reg
    finally:
        _process_registry, _collection_on = saved_registry, saved_flag


# -- the profiling hook ------------------------------------------------------


class timed:
    """Time a block or function into a ``<name>_seconds`` histogram.

    Usable both ways::

        with timed("repro_route_conference"):
            ...

        @timed("repro_randomized_search")
        def randomized_search(...): ...

    The registry is resolved *at entry time*: an explicit ``registry``
    wins, otherwise the process default is used when collection is
    enabled, otherwise the block runs untimed with near-zero overhead
    (one flag check).
    """

    __slots__ = ("name", "registry", "labels", "_hist", "_start")

    def __init__(self, name: str, registry: "MetricsRegistry | None" = None, **labels: Any):
        self.name = name
        self.registry = registry
        self.labels = labels
        self._hist: "Histogram | None" = None
        self._start = 0.0

    def __enter__(self) -> "timed":
        reg = self.registry if self.registry is not None else maybe_registry()
        if reg is not None:
            self._hist = reg.histogram(
                f"{self.name}_seconds",
                f"wall-clock seconds spent in {self.name}",
                buckets=DEFAULT_TIME_BUCKETS,
            )
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._hist is not None:
            self._hist.observe(time.perf_counter() - self._start, **self.labels)
            self._hist = None
        return False

    def __call__(self, fn):
        name, registry, labels = self.name, self.registry, self.labels

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if registry is None and not _collection_on:
                return fn(*args, **kwargs)  # fast path: collection off
            with timed(name, registry, **labels):
                return fn(*args, **kwargs)

        return wrapper
