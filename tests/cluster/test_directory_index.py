"""Oracle tests for the cluster directory's incremental indexes.

``SessionDirectory`` answers ``live()``, ``on_shard()`` and ``counts()``
from an open-entry index and a per-state tally.  The controller moves
entries by plain ``entry.state = ...`` assignment, so the indexes must
follow any such write — including one that revives a closed entry
behind a higher id — and equal a full scan of the directory, in id
order, after every step.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.directory import LIVE_STATES, EntryState, SessionDirectory

SHARDS = ("s0", "s1", "s2")


def assert_matches_full_scan(directory: SessionDirectory) -> None:
    everything = list(directory)
    live = [e for e in everything if e.state in LIVE_STATES]
    assert list(directory._open.values()) == live  # exactly the live entries
    assert directory.live() == live
    for shard in SHARDS + (None,):
        assert directory.on_shard(shard) == [e for e in live if e.shard_id == shard]
    tally = Counter(e.state.value for e in everything)
    assert directory.counts() == {state.value: tally[state.value] for state in EntryState}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.integers(1, 60))
def test_indexes_match_full_scan(data, steps):
    directory = SessionDirectory()
    for step in range(steps):
        op = data.draw(st.integers(0, 3), label="op")
        if not len(directory) or op == 0:
            directory.create((step,))
        else:
            entry = directory.require(data.draw(st.integers(0, len(directory) - 1), label="id"))
            if op == 1:
                entry.shard_id = data.draw(st.sampled_from(SHARDS), label="shard")
            else:
                entry.state = data.draw(st.sampled_from(list(EntryState)), label="state")
        assert_matches_full_scan(directory)


def test_activation_out_of_id_order_keeps_id_order():
    d = SessionDirectory()
    low, high = d.create((0,)), d.create((1,))
    high.state, high.shard_id = EntryState.ACTIVE, "s0"
    low.state, low.shard_id = EntryState.ACTIVE, "s0"
    assert d.on_shard("s0") == [low, high]
    low.state = EntryState.CLOSED
    low.state = EntryState.ACTIVE  # revived behind a higher id
    assert d.live() == [low, high]
    assert_matches_full_scan(d)
