"""Structured event tracing for the conference switching stack.

A :class:`Tracer` collects a flat stream of **events** (instantaneous
observations) and **spans** (operations with a begin and an end) from
whatever components it is attached to — the event loop, the self-healing
controller, the fault injector, the service layer.  Records carry both the
*simulation* clock (``t``, when the emitting component knows it) and the
*wall* clock (``wall``, monotonic seconds), so a trace can answer "what
happened to conference 12 between the fault at t=381 and its restore"
as well as "where did the real time go".

Design constraints, in order:

* **Bit-transparency.**  Tracing is pure observation: a tracer never
  draws randomness, never mutates the objects it watches, and every
  instrumentation site is gated on ``tracer is not None`` — an
  uninstrumented run executes the identical decision sequence.  The
  transparency suite (``tests/obs``) asserts this end to end.
* **Bounded memory.**  Records live in a ring buffer (``capacity``
  newest records are kept); ``emitted`` counts everything ever recorded
  so truncation is detectable.
* **Zero dependencies.**  Standard library only; records are plain
  dicts, exported as JSON Lines (one record per line) that any tooling
  can consume.

Record schema::

    {"type": "event", "seq": 7, "name": "fault.fail", "t": 12.5,
     "wall": 0.0031, ...attributes}
    {"type": "span", "seq": 9, "name": "conference.submit", "sid": 3,
     "t0": 12.5, "t1": 14.0, "wall0": ..., "wall1": ..., "status": "admitted",
     ...attributes}

Spans are recorded once, at close time; a span left open when the trace
is exported is flushed with ``status="open"`` and ``t1=None``.

Two optional facilities ride on the same emission path:

* **Taps** (:meth:`Tracer.add_tap`) receive every record at the moment
  it is appended — the flight recorder uses one to ring recent records
  without a second instrumentation pass.
* **Parent context** (:meth:`Tracer.context`) pushes a span id onto a
  stack; records emitted while it is held carry a ``parent`` attribute,
  which is how one logical operation (a cluster open, a shard failover)
  links the shard-level spans it causes into a single causal trace.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any, TextIO

__all__ = ["Tracer", "NULL_TRACER"]

#: Record keys the tracer owns; attribute names may not collide with them.
_RESERVED = frozenset(
    {"type", "seq", "name", "sid", "t", "t0", "t1", "wall", "wall0", "wall1", "status"}
)


class Tracer:
    """A ring-buffered collector of structured trace records.

    Parameters
    ----------
    capacity:
        Maximum records kept (oldest are dropped first).
    clock:
        Wall-clock source; monotonic seconds.  Injectable for tests.
    """

    def __init__(self, capacity: int = 65536, clock: "Callable[[], float]" = time.perf_counter):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._records: "deque[dict]" = deque(maxlen=capacity)
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self._next_sid = 1
        self._open_spans: dict[int, dict] = {}
        self._taps: "list[Callable[[dict], None]]" = []
        self._ctx: list[int] = []  # parent-span stack (see context())
        self.emitted = 0  # every record ever emitted, truncated or not

    # -- introspection -----------------------------------------------------

    @property
    def capacity(self) -> int:
        """Ring-buffer size (records beyond it are dropped oldest-first)."""
        return self._records.maxlen or 0

    @property
    def truncated(self) -> bool:
        """True when the ring buffer has dropped at least one record."""
        return self.emitted > len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[dict]:
        """A snapshot of the retained records, oldest first."""
        return list(self._records)

    def counts(self) -> "Counter[str]":
        """Retained record count per record name (events and spans)."""
        return Counter(rec["name"] for rec in self._records)

    # -- emission ----------------------------------------------------------

    def _wall(self) -> float:
        return self._clock() - self._epoch

    def _append(self, record: dict) -> None:
        record["seq"] = self._seq
        self._seq += 1
        self.emitted += 1
        self._records.append(record)
        for tap in self._taps:
            tap(record)

    def add_tap(self, tap: "Callable[[dict], None]") -> None:
        """Register a callable invoked with every record as it is emitted.

        Taps see the final record dict (spans at close time) and must
        not mutate it.  The flight recorder registers itself this way.
        """
        self._taps.append(tap)

    @contextmanager
    def context(self, sid: "int | None"):
        """Mark ``sid`` as the causal parent of records emitted inside.

        Every event or span opened while the context is held gains a
        ``parent`` attribute (unless one was passed explicitly), so a
        cross-component chain — a cluster open driving shard-level
        submits, a shard failover driving heals — reads as one trace.
        ``sid=None`` is a transparent no-op, letting call sites skip
        ``if parent is not None`` guards.
        """
        if sid is None:
            yield
            return
        self._ctx.append(sid)
        try:
            yield
        finally:
            self._ctx.pop()

    def current_parent(self) -> "int | None":
        """The innermost :meth:`context` span id, or ``None``.

        Lets a component *capture* the causal parent at submission time
        and re-establish it later, when the deferred work actually runs
        (the serve layer does this for queued requests, so spans opened
        ticks later still parent to the cluster-level span that caused
        them).
        """
        return self._ctx[-1] if self._ctx else None

    def _parented(self, attrs: dict) -> dict:
        attrs = self._clean(attrs)
        if self._ctx and "parent" not in attrs:
            attrs["parent"] = self._ctx[-1]
        return attrs

    def event(self, name: str, t: "float | None" = None, **attrs: Any) -> None:
        """Record one instantaneous observation.

        ``t`` is the simulation time if the caller knows it; ``attrs``
        are free-form JSON-serializable attributes.
        """
        record = {"type": "event", "name": name, "t": t, "wall": self._wall()}
        record.update(self._parented(attrs))
        self._append(record)

    def span_open(self, name: str, t: "float | None" = None, **attrs: Any) -> int:
        """Begin a span; returns its id for :meth:`span_close`."""
        sid = self._next_sid
        self._next_sid += 1
        self._open_spans[sid] = {
            "type": "span",
            "name": name,
            "sid": sid,
            "t0": t,
            "t1": None,
            "wall0": self._wall(),
            "wall1": None,
            "status": "open",
            **self._parented(attrs),
        }
        return sid

    def span_close(
        self,
        sid: int,
        t: "float | None" = None,
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        """End span ``sid``; unknown ids are ignored (already flushed)."""
        record = self._open_spans.pop(sid, None)
        if record is None:
            return
        record["t1"] = t
        record["wall1"] = self._wall()
        record["status"] = status
        record.update(self._clean(attrs))
        self._append(record)

    @contextmanager
    def span(self, name: str, t: "float | None" = None, **attrs: Any):
        """Lexical span: opens on entry, closes on exit (``error`` on raise)."""
        sid = self.span_open(name, t=t, **attrs)
        try:
            yield sid
        except BaseException:
            self.span_close(sid, t=t, status="error")
            raise
        self.span_close(sid, t=t, status="ok")

    @staticmethod
    def _clean(attrs: dict) -> dict:
        clash = _RESERVED.intersection(attrs)
        if clash:
            raise ValueError(f"attribute names collide with record schema: {sorted(clash)}")
        return attrs

    # -- export ------------------------------------------------------------

    def flush_open_spans(self, t: "float | None" = None) -> int:
        """Emit every still-open span with ``status="open"``.

        Called automatically by :meth:`write_jsonl`; returns how many
        spans were flushed.
        """
        flushed = 0
        for sid in sorted(self._open_spans):
            record = self._open_spans.pop(sid)
            record["t1"] = t
            record["wall1"] = self._wall()
            self._append(record)
            flushed += 1
        return flushed

    def write_jsonl(self, target: "str | TextIO") -> int:
        """Write the retained records as JSON Lines; returns the count.

        ``target`` is a path or an open text file.  Open spans are
        flushed first so the export is self-contained.
        """
        self.flush_open_spans()
        if hasattr(target, "write"):
            return self._dump(target)
        with open(target, "w") as fh:
            return self._dump(fh)

    def _dump(self, fh: TextIO) -> int:
        n = 0
        for record in self._records:
            fh.write(json.dumps(record, sort_keys=True, default=_jsonify))
            fh.write("\n")
            n += 1
        return n


def _jsonify(value: Any):
    """Fallback serializer: sets/tuples/frozensets become sorted lists."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"not JSON serializable: {value!r}")


class _NullTracer(Tracer):
    """A tracer that records nothing (for call sites that want to skip
    ``if tracer is not None`` guards).  Shared singleton: ``NULL_TRACER``."""

    def __init__(self):
        super().__init__(capacity=1)

    def _append(self, record: dict) -> None:  # pragma: no cover - trivial
        pass


NULL_TRACER = _NullTracer()
