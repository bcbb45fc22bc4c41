"""Session lifecycle bookkeeping for the conference service.

A *session* is the service-side identity of one conference from the
client's perspective: it survives reroutes, fault-induced drops and
re-admissions (each bumping ``generation``), and only dies when the
client closes it — or when the service is told to give up on it, which
the churn acceptance test asserts never happens under a survivable
fault timeline.

State machine::

    QUEUED ──admit──> ACTIVE <──recover──> DEGRADED
      │                 │  ▲                  │
      │ shed/reject     │  └── re-admit ── DOWN (fault drop, requeued)
      ▼                 │                     │
    REJECTED         CLOSED <──close──────────┘        DOWN ──give-up──> LOST
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.serve.protocol import Priority

__all__ = ["SessionState", "Session", "SessionTable"]


class SessionState(Enum):
    """Where a session sits in its lifecycle."""

    QUEUED = "queued"
    ACTIVE = "active"
    DEGRADED = "degraded"
    DOWN = "down"
    CLOSED = "closed"
    REJECTED = "rejected"
    LOST = "lost"


#: Legal state transitions (source -> allowed targets).
_TRANSITIONS: dict[SessionState, frozenset[SessionState]] = {
    SessionState.QUEUED: frozenset(
        {SessionState.ACTIVE, SessionState.REJECTED, SessionState.CLOSED}
    ),
    SessionState.ACTIVE: frozenset(
        {SessionState.DEGRADED, SessionState.DOWN, SessionState.CLOSED}
    ),
    SessionState.DEGRADED: frozenset(
        {SessionState.ACTIVE, SessionState.DOWN, SessionState.CLOSED}
    ),
    SessionState.DOWN: frozenset(
        {SessionState.ACTIVE, SessionState.DEGRADED, SessionState.LOST, SessionState.CLOSED}
    ),
    SessionState.CLOSED: frozenset(),
    SessionState.REJECTED: frozenset(),
    SessionState.LOST: frozenset(),
}

#: States in which the session holds (or is owed) fabric resources.
LIVE_STATES = frozenset({SessionState.ACTIVE, SessionState.DEGRADED, SessionState.DOWN})

#: States a session never leaves.
_TERMINAL_STATES = frozenset(state for state, targets in _TRANSITIONS.items() if not targets)


@dataclass
class Session:
    """One client conference as the service tracks it."""

    session_id: int
    members: tuple[int, ...]
    priority: Priority = Priority.NORMAL
    state: SessionState = SessionState.QUEUED
    opened_at: float = 0.0
    closed_at: "float | None" = None
    generation: int = 0  # route swaps + re-admissions survived
    requeues: int = 0  # fault-induced re-admission round trips
    history: list[str] = field(default_factory=list)
    # Owning table, set by SessionTable.create so transitions keep the
    # table's per-state tally current; free-standing sessions skip it.
    table: "SessionTable | None" = field(default=None, repr=False, compare=False)

    @property
    def conference_id(self) -> int:
        """Sessions map 1:1 onto conference ids in the fabric ledger."""
        return self.session_id

    @property
    def live(self) -> bool:
        """True while the session holds (or is owed) fabric resources."""
        return self.state in LIVE_STATES

    def add_member(self, port: int, at: float) -> None:
        """Record a successful join: ``port`` becomes a member.

        Membership changes are part of the lifecycle state machine —
        they are only legal while the session holds fabric resources,
        bump ``generation`` (the route changed), and land in
        ``history`` as ``+port`` entries alongside state transitions.
        """
        if not self.live:
            raise ValueError(
                f"session {self.session_id}: cannot add member in state {self.state.value}"
            )
        if port in self.members:
            raise ValueError(f"session {self.session_id}: port {port} is already a member")
        self.members = tuple(sorted(self.members + (port,)))
        self.generation += 1
        self.history.append(f"{at:g}:+{port}")

    def remove_member(self, port: int, at: float) -> None:
        """Record a leave: ``port`` stops being a member.

        At least one member must remain — an empty session must be
        closed, not drained.  Logged in ``history`` as ``-port``.
        """
        if not self.live:
            raise ValueError(
                f"session {self.session_id}: cannot remove member in state {self.state.value}"
            )
        if port not in self.members:
            raise ValueError(f"session {self.session_id}: port {port} is not a member")
        if len(self.members) == 1:
            raise ValueError(
                f"session {self.session_id}: cannot remove the last member; close instead"
            )
        self.members = tuple(m for m in self.members if m != port)
        self.generation += 1
        self.history.append(f"{at:g}:-{port}")

    def transition(self, target: SessionState, at: float) -> None:
        """Move to ``target``, enforcing the lifecycle state machine."""
        if target is self.state:
            return
        if target not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"session {self.session_id}: illegal transition "
                f"{self.state.value} -> {target.value}"
            )
        self.history.append(f"{at:g}:{target.value}")
        if self.table is not None:
            self.table._tally[self.state] -= 1
            self.table._tally[target] += 1
            if target in _TERMINAL_STATES:
                del self.table._open[self.session_id]
        self.state = target
        if target is SessionState.CLOSED:
            self.closed_at = at


class SessionTable:
    """The registry of every session the service has ever accepted."""

    def __init__(self) -> None:
        self._sessions: dict[int, Session] = {}
        self._next_id = 0
        # Maintained by Session.transition; the telemetry paths read
        # counts() every tick, so it must not rescan the whole table.
        self._tally: dict[SessionState, int] = {state: 0 for state in SessionState}
        # Non-terminal sessions, also maintained by Session.transition.
        # Ids are minted in increasing order and a session never leaves a
        # terminal state, so insertion order is id order.
        self._open: dict[int, Session] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self):
        return iter(self._sessions.values())

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._sessions

    def create(
        self, members: tuple[int, ...], priority: Priority, at: float
    ) -> Session:
        """Mint a new QUEUED session with the next free id."""
        session = Session(
            session_id=self._next_id,
            members=members,
            priority=priority,
            state=SessionState.QUEUED,
            opened_at=at,
            table=self,
        )
        self._sessions[session.session_id] = session
        self._open[session.session_id] = session
        self._tally[SessionState.QUEUED] += 1
        self._next_id += 1
        return session

    def get(self, session_id: int) -> "Session | None":
        """The session with this id, or ``None``."""
        return self._sessions.get(session_id)

    def require(self, session_id: int) -> Session:
        """The session with this id, or ``KeyError``."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no session with id {session_id}") from None

    def live(self) -> list[Session]:
        """Sessions currently holding (or owed) fabric resources, in id order.

        Costs O(open sessions), not O(sessions ever created).
        """
        return [s for s in self._open.values() if s.state in LIVE_STATES]

    def counts(self) -> dict[str, int]:
        """Session tally per lifecycle state (all states present)."""
        return {state.value: self._tally[state] for state in SessionState}
