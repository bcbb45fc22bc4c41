"""Oracle tests for the session table's incremental indexes.

``SessionTable`` answers ``live()``, ``in_state()`` and ``counts()``
from an open-session index and a per-state tally kept current by
``Session.transition``.  Every answer must equal a full scan of the
table, in id order, after every step of any legal lifecycle sequence.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import Priority
from repro.serve.session import (
    _TERMINAL_STATES,
    _TRANSITIONS,
    LIVE_STATES,
    SessionState,
    SessionTable,
)

pytestmark = pytest.mark.tier1


def assert_matches_full_scan(table: SessionTable) -> None:
    everything = list(table)
    assert [s.session_id for s in everything] == sorted(s.session_id for s in everything)
    # The open index holds exactly the non-terminal sessions (no leak).
    assert list(table._open.values()) == [s for s in everything if s.state not in _TERMINAL_STATES]
    assert table.live() == [s for s in everything if s.state in LIVE_STATES]
    for state in SessionState:
        assert table.in_state(state) == [s for s in everything if s.state is state]
    tally = Counter(s.state.value for s in everything)
    assert table.counts() == {state.value: tally[state.value] for state in SessionState}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.integers(1, 60))
def test_indexes_match_full_scan(data, steps):
    table = SessionTable()
    for step in range(steps):
        movable = [s for s in table if _TRANSITIONS[s.state]]
        if not movable or data.draw(st.integers(0, 3), label="op") == 0:
            table.create((step,), Priority.NORMAL, at=float(step))
        else:
            session = data.draw(st.sampled_from(movable), label="session")
            target = data.draw(
                st.sampled_from(sorted(_TRANSITIONS[session.state], key=lambda s: s.value)),
                label="target",
            )
            session.transition(target, float(step))
        assert_matches_full_scan(table)


def test_activation_out_of_id_order_keeps_id_order():
    table = SessionTable()
    low, high = (table.create((p,), Priority.NORMAL, at=0.0) for p in (0, 1))
    high.transition(SessionState.ACTIVE, 1.0)
    low.transition(SessionState.ACTIVE, 2.0)
    assert table.live() == [low, high]
    high.transition(SessionState.CLOSED, 3.0)
    assert table.live() == [low]
    assert table.in_state(SessionState.CLOSED) == [high]
    assert_matches_full_scan(table)
