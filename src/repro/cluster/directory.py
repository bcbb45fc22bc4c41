"""The cluster-wide session directory.

Clients of the cluster hold *cluster* session ids; fabrics hold their
own shard-local ids.  The directory is the one mapping between the two:
every cluster session records which shard currently hosts it, under
which shard-local session id, and how many times it has been moved
(rebalance, drain) or re-homed (shard failure).  The
:class:`~repro.cluster.controller.ClusterService` is the only writer;
everything else — benches, tests, the CLI — reads it.

The directory deliberately mirrors only the *cluster-relevant* slice of
a session's lifecycle.  Shard-internal excursions (DEGRADED under a
fault detour, DOWN while the shard's healing controller restores a
dropped route) stay shard-local: from the cluster's point of view the
session is simply ``ACTIVE`` on that shard the whole time.  What the
directory does track is the cross-shard machinery: ``MIGRATING`` marks
a session whose next generation is being opened on another shard
(make-before-break), and every completed move bumps ``generation`` so
clients can detect that their media path was rebuilt.

Consistency invariant (checked by :meth:`SessionDirectory.inconsistencies`
and asserted in ``tests/cluster``): every live entry points at exactly
one shard, and every live shard-local session is pointed at by exactly
one live entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.serve.protocol import Priority

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from collections.abc import Mapping

__all__ = ["EntryState", "DirectoryEntry", "SessionDirectory"]


class EntryState(Enum):
    """Where a cluster session sits in its cluster-level lifecycle."""

    PENDING = "pending"  # open submitted, verdict not yet in
    ACTIVE = "active"  # admitted on its home shard
    MIGRATING = "migrating"  # next generation opening on another shard
    CLOSED = "closed"
    REJECTED = "rejected"
    LOST = "lost"  # must never happen; tracked so tests can assert it


#: States in which the session owns (or is owed) capacity somewhere.
LIVE_STATES = frozenset({EntryState.PENDING, EntryState.ACTIVE, EntryState.MIGRATING})


@dataclass
class DirectoryEntry:
    """One cluster session's current placement record."""

    cluster_session_id: int
    members: tuple[int, ...]
    priority: Priority = Priority.NORMAL
    state: EntryState = EntryState.PENDING
    shard_id: "str | None" = None
    shard_session_id: "int | None" = None
    generation: int = 0  # bumped on every completed cross-shard move
    moves: int = 0  # rebalance / drain migrations survived
    failovers: int = 0  # shard-failure re-homes survived
    # Owning directory, set by SessionDirectory.create so that a plain
    # ``entry.state = ...`` keeps the directory's tally and open index
    # current; free-standing entries skip it.
    directory: "SessionDirectory | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def live(self) -> bool:
        """True while the session owns (or is owed) fabric capacity."""
        return self.state in LIVE_STATES

    def as_dict(self) -> dict:
        """A JSON-ready view for reports and the CLI."""
        return {
            "session": self.cluster_session_id,
            "members": list(self.members),
            "state": self.state.value,
            "shard": self.shard_id,
            "shard_session": self.shard_session_id,
            "generation": self.generation,
            "moves": self.moves,
            "failovers": self.failovers,
        }


def _get_state(entry: DirectoryEntry) -> EntryState:
    return entry._state


def _set_state(entry: DirectoryEntry, state: EntryState) -> None:
    if entry.directory is not None:
        entry.directory._restate(entry, entry._state, state)
    entry._state = state


# ``state`` stays a dataclass field (constructor keyword, repr, eq); the
# property installed over it routes every assignment through the owner.
DirectoryEntry.state = property(_get_state, _set_state, doc="Cluster lifecycle state.")


class SessionDirectory:
    """The registry of every session the cluster has ever accepted."""

    def __init__(self) -> None:
        self._entries: dict[int, DirectoryEntry] = {}
        self._next_id = 0
        # Both maintained on every state assignment (see _restate), so the
        # per-tick reads cost O(live entries), not O(entries ever created).
        self._tally: dict[EntryState, int] = {state: 0 for state in EntryState}
        self._open: dict[int, DirectoryEntry] = {}  # live entries, id order

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def __contains__(self, cluster_session_id: int) -> bool:
        return cluster_session_id in self._entries

    def create(
        self, members: "tuple[int, ...]", priority: Priority = Priority.NORMAL
    ) -> DirectoryEntry:
        """Mint a new PENDING entry with the next free cluster id."""
        entry = DirectoryEntry(
            cluster_session_id=self._next_id,
            members=tuple(members),
            priority=priority,
        )
        entry.directory = self
        self._entries[entry.cluster_session_id] = entry
        self._open[entry.cluster_session_id] = entry
        self._tally[entry.state] += 1
        self._next_id += 1
        return entry

    def _restate(self, entry: DirectoryEntry, old: EntryState, new: EntryState) -> None:
        """Move one entry between tallies and in or out of the open index."""
        self._tally[old] -= 1
        self._tally[new] += 1
        was_live, is_live = old in LIVE_STATES, new in LIVE_STATES
        cid = entry.cluster_session_id
        if was_live and not is_live:
            del self._open[cid]
        elif is_live and not was_live:
            # A revived entry (the controller never revives one): re-sort
            # if it lands behind a higher id, so reads stay in id order.
            behind = bool(self._open) and cid < next(reversed(self._open))
            self._open[cid] = entry
            if behind:
                self._open = dict(sorted(self._open.items()))

    def get(self, cluster_session_id: int) -> "DirectoryEntry | None":
        """The entry with this cluster id, or ``None``."""
        return self._entries.get(cluster_session_id)

    def require(self, cluster_session_id: int) -> DirectoryEntry:
        """The entry with this cluster id, or ``KeyError``."""
        try:
            return self._entries[cluster_session_id]
        except KeyError:
            raise KeyError(f"no cluster session with id {cluster_session_id}") from None

    def live(self) -> list[DirectoryEntry]:
        """Entries currently owning (or owed) capacity, in id order."""
        return list(self._open.values())

    def on_shard(self, shard_id: str) -> list[DirectoryEntry]:
        """Live entries currently homed on ``shard_id``, in id order."""
        return [e for e in self._open.values() if e.shard_id == shard_id]

    def counts(self) -> dict[str, int]:
        """Entry tally per cluster lifecycle state (all states present)."""
        return {state.value: self._tally[state] for state in EntryState}

    def record_move(
        self, cluster_session_id: int, shard_id: str, shard_session_id: int, *, failover: bool
    ) -> DirectoryEntry:
        """Point one session at its new home and bump its generation."""
        entry = self.require(cluster_session_id)
        entry.shard_id = shard_id
        entry.shard_session_id = shard_session_id
        entry.generation += 1
        if failover:
            entry.failovers += 1
        else:
            entry.moves += 1
        return entry

    def inconsistencies(
        self, shard_sessions: "Mapping[str, Mapping[int, tuple[int, ...]]]"
    ) -> list[str]:
        """Cross-check the directory against shard-local session tables.

        ``shard_sessions`` maps shard id -> {live shard session id ->
        members} (what each live fabric believes it is hosting).
        Returns human-readable violations of the consistency invariant —
        an empty list is the assertion the cluster tests make after
        every drill.
        """
        problems: list[str] = []
        claimed: dict[tuple[str, int], int] = {}
        for entry in self._entries.values():
            if entry.state is not EntryState.ACTIVE:
                continue
            if entry.shard_id is None or entry.shard_session_id is None:
                problems.append(f"active session {entry.cluster_session_id} has no home")
                continue
            home = (entry.shard_id, entry.shard_session_id)
            if home in claimed:
                problems.append(
                    f"sessions {claimed[home]} and {entry.cluster_session_id} "
                    f"both claim {home}"
                )
            claimed[home] = entry.cluster_session_id
            table = shard_sessions.get(entry.shard_id)
            if table is None:
                problems.append(
                    f"session {entry.cluster_session_id} homed on unknown "
                    f"shard {entry.shard_id!r}"
                )
            elif entry.shard_session_id not in table:
                problems.append(
                    f"session {entry.cluster_session_id} points at dead "
                    f"shard session {home}"
                )
            elif tuple(table[entry.shard_session_id]) != entry.members:
                problems.append(
                    f"session {entry.cluster_session_id} membership drifted "
                    f"from shard {entry.shard_id!r}"
                )
        for shard_id, table in shard_sessions.items():
            for shard_sid in table:
                if (shard_id, shard_sid) not in claimed:
                    problems.append(
                        f"shard {shard_id!r} hosts unclaimed session {shard_sid}"
                    )
        return problems
