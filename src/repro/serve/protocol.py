"""Wire-level request/response types of the conference service.

The service speaks a small session-oriented protocol: a client opens a
conference (a member set), may grow or shrink it while it runs, and
eventually closes it.  Every operation is a :class:`SessionRequest`
dropped into the admission queue and answered — possibly several ticks
later — by a :class:`ServiceResponse`.

Responses implement the shared result contract (``ok`` / ``reason`` /
``as_dict``) declared by :data:`repro.api.Result`, so the CLI renders
them through the same serializer as
:class:`~repro.core.network.RealizationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

__all__ = ["Priority", "RequestKind", "SessionRequest", "ServiceResponse"]


class Priority(IntEnum):
    """Admission-queue lane of a request (higher drains first)."""

    BULK = 0
    NORMAL = 1
    INTERACTIVE = 2


class RequestKind:
    """The four session-lifecycle operations (plain string constants)."""

    OPEN = "open"
    JOIN = "join"
    LEAVE = "leave"
    CLOSE = "close"

    #: Operations that only ever release or reshape held resources; the
    #: backpressure layer never sheds these (dropping a close would leak
    #: the very capacity the queue is starved for).
    CONTROL = frozenset({LEAVE, CLOSE})
    ALL = frozenset({OPEN, JOIN, LEAVE, CLOSE})


@dataclass(frozen=True)
class SessionRequest:
    """One queued session operation.

    ``members`` is the full member set for ``open``, and the ports being
    added/removed for ``join``/``leave``; ``close`` ignores it.
    ``session_id`` is ``None`` only for ``open`` (the service assigns
    one).  ``submitted_at`` is service (virtual) time — admission
    latency is measured against it.
    """

    kind: str
    request_id: int
    members: tuple[int, ...] = ()
    session_id: "int | None" = None
    priority: Priority = Priority.NORMAL
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RequestKind.ALL:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == RequestKind.OPEN:
            if self.session_id is not None:
                raise ValueError("open requests must not carry a session id")
            if len(self.members) < 2:
                raise ValueError("a conference needs at least 2 members")
        elif self.session_id is None:
            raise ValueError(f"{self.kind} requests need a session id")
        if self.kind in (RequestKind.JOIN, RequestKind.LEAVE) and not self.members:
            raise ValueError(f"{self.kind} requests need at least one port")

    @property
    def size(self) -> int:
        """Number of ports the request touches (shed-largest's yardstick)."""
        return len(self.members)


@dataclass(frozen=True)
class ServiceResponse:
    """The service's answer to one :class:`SessionRequest`.

    ``status`` is the terminal disposition: ``"admitted"``, ``"applied"``
    (membership change), ``"closed"``, ``"rejected"`` (admission denied
    after routing), ``"shed"`` (load-shedding evicted it before
    routing), or ``"error"`` (malformed request, e.g. unknown session).
    ``reason`` is ``None`` exactly when ``ok`` is true.
    """

    ok: bool
    status: str
    kind: str
    request_id: int
    session_id: "int | None" = None
    reason: "str | None" = None
    submitted_at: float = 0.0
    completed_at: float = 0.0
    batch_seq: "int | None" = None
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Queue + admission latency in service (virtual) time units."""
        return self.completed_at - self.submitted_at

    def __bool__(self) -> bool:
        return self.ok

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready view (the shared result-serializer contract)."""
        return {
            "kind": "service_response",
            "ok": self.ok,
            "status": self.status,
            "request": self.kind,
            "request_id": self.request_id,
            "session_id": self.session_id,
            "reason": self.reason,
            "latency": self.latency,
            **({"detail": dict(self.detail)} if self.detail else {}),
        }
