"""Tests for the session state machine and registry."""

import pytest

from repro.serve.protocol import Priority
from repro.serve.session import Session, SessionState, SessionTable

pytestmark = pytest.mark.tier1


class TestTransitions:
    def test_happy_path(self):
        s = Session(session_id=0, members=(0, 1))
        s.transition(SessionState.ACTIVE, 1.0)
        s.transition(SessionState.DEGRADED, 2.0)
        s.transition(SessionState.ACTIVE, 3.0)
        s.transition(SessionState.CLOSED, 4.0)
        assert s.state is SessionState.CLOSED
        assert s.closed_at == 4.0
        assert s.history == ["1:active", "2:degraded", "3:active", "4:closed"]

    def test_fault_round_trip(self):
        s = Session(session_id=0, members=(0, 1), state=SessionState.ACTIVE)
        s.transition(SessionState.DOWN, 1.0)
        s.transition(SessionState.ACTIVE, 2.0)
        assert s.live

    def test_illegal_transition_raises(self):
        s = Session(session_id=0, members=(0, 1))
        with pytest.raises(ValueError, match="illegal transition"):
            s.transition(SessionState.DOWN, 1.0)  # QUEUED can't be DOWN

    def test_terminal_states_are_terminal(self):
        for terminal in (SessionState.CLOSED, SessionState.REJECTED, SessionState.LOST):
            s = Session(session_id=0, members=(0, 1), state=terminal)
            with pytest.raises(ValueError):
                s.transition(SessionState.ACTIVE, 1.0)

    def test_self_transition_is_a_noop(self):
        s = Session(session_id=0, members=(0, 1), state=SessionState.ACTIVE)
        s.transition(SessionState.ACTIVE, 1.0)
        assert s.history == []

    def test_liveness(self):
        assert not Session(0, (0, 1)).live
        assert Session(0, (0, 1), state=SessionState.DOWN).live
        assert not Session(0, (0, 1), state=SessionState.REJECTED).live


class TestTable:
    def test_sequential_ids(self):
        table = SessionTable()
        a = table.create((0, 1), Priority.NORMAL, at=0.0)
        b = table.create((2, 3), Priority.BULK, at=1.0)
        assert (a.session_id, b.session_id) == (0, 1)
        assert a.conference_id == 0
        assert len(table) == 2

    def test_require_raises_on_unknown(self):
        table = SessionTable()
        assert table.get(42) is None
        with pytest.raises(KeyError, match="42"):
            table.require(42)

    def test_counts_cover_all_states(self):
        table = SessionTable()
        table.create((0, 1), Priority.NORMAL, at=0.0)
        counts = table.counts()
        assert counts["queued"] == 1
        assert set(counts) == {s.value for s in SessionState}

    def test_live_and_in_state(self):
        table = SessionTable()
        a = table.create((0, 1), Priority.NORMAL, at=0.0)
        table.create((2, 3), Priority.NORMAL, at=0.0)
        a.transition(SessionState.ACTIVE, 1.0)
        assert [s.session_id for s in table.live()] == [0]
        assert table.counts()["queued"] == 1
