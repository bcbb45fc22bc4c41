"""Tests for churn timeline generators and the service replay driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import ConferenceNetwork
from repro.serve.service import FabricService
from repro.workloads.churn import (
    ChurnEvent,
    flash_crowd,
    replay_churn,
    zipf_sizes,
)

GENERATORS = [flash_crowd]


class TestChurnEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ChurnEvent(0, "merge", 0, (1, 2))

    def test_open_needs_two_ports(self):
        with pytest.raises(ValueError, match="at least 2"):
            ChurnEvent(0, "open", 0, (1,))

    def test_join_and_leave_need_ports(self):
        for kind in ("join", "leave"):
            with pytest.raises(ValueError, match="at least one"):
                ChurnEvent(1, kind, 0, ())

    def test_negative_tick_and_session_rejected(self):
        with pytest.raises(ValueError, match="tick"):
            ChurnEvent(-1, "close", 0)
        with pytest.raises(ValueError, match="session"):
            ChurnEvent(0, "close", -1)

    def test_as_dict(self):
        event = ChurnEvent(3, "join", 1, (7,))
        assert event.as_dict() == {
            "tick": 3,
            "kind": "join",
            "session": 1,
            "ports": [7],
        }


def _check_timeline(events):
    """A valid timeline: opens precede dependent events, live
    conferences stay port-disjoint, leaves remove actual members."""
    members: dict[int, set[int]] = {}
    for event in sorted(events, key=lambda e: e.tick):
        if event.kind == "open":
            assert event.session not in members
            live = set().union(*members.values()) if members else set()
            assert not live & set(event.ports), "open reuses a live port"
            members[event.session] = set(event.ports)
        elif event.kind == "join":
            assert event.session in members, "join before open"
            live = set().union(*members.values())
            assert not live & set(event.ports), "join reuses a live port"
            members[event.session] |= set(event.ports)
        elif event.kind == "leave":
            assert set(event.ports) <= members[event.session]
            members[event.session] -= set(event.ports)
            assert len(members[event.session]) >= 2
        else:
            members.pop(event.session)
    return members


class TestGenerators:
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_timeline_is_valid_by_construction(self, generator):
        _check_timeline(generator(32, seed=3))

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_deterministic_for_a_fixed_seed(self, generator):
        assert generator(32, seed=11) == generator(32, seed=11)

    def test_flash_crowd_bursts_then_drains(self):
        events = flash_crowd(32, crowd=8, seed=0)
        joins = [e for e in events if e.kind == "join"]
        leaves = [e for e in events if e.kind == "leave"]
        assert len(joins) == 8
        assert len(leaves) == 8  # the crowd fully drains
        assert min(e.tick for e in leaves) > max(e.tick for e in joins)
        venue = joins[0].session
        assert all(e.session == venue for e in joins + leaves)

    @settings(max_examples=30, deadline=None)
    @given(count=st.integers(0, 64), seed=st.integers(0, 1000))
    def test_zipf_sizes_stay_in_range(self, count, seed):
        sizes = zipf_sizes(count, min_size=2, max_size=8, seed=seed)
        assert len(sizes) == count
        assert all(2 <= s <= 8 for s in sizes)

    def test_zipf_is_heavy_tailed(self):
        sizes = zipf_sizes(500, alpha=1.8, min_size=2, max_size=32, seed=0)
        assert sizes.count(2) == max(map(sizes.count, set(sizes)))  # mode: the two-party call
        assert max(sizes) > 8  # but the tail shows up

    def test_zipf_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            zipf_sizes(5, alpha=1.0)
        with pytest.raises(ValueError, match="min_size"):
            zipf_sizes(5, min_size=1)
        with pytest.raises(ValueError, match="max_size"):
            zipf_sizes(5, min_size=4, max_size=3)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="burst_start"):
            flash_crowd(32, burst_start=0)
        with pytest.raises(ValueError, match="burst_ticks"):
            flash_crowd(32, burst_ticks=0)
        with pytest.raises(ValueError, match="drain_per_tick"):
            flash_crowd(32, drain_per_tick=0)


class TestReplay:
    def _service(self, n_ports=32):
        net = ConferenceNetwork.build("indirect-binary-cube", n_ports, dilation=n_ports)
        return FabricService(net, rng=0)

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_every_event_completes_and_applies(self, generator):
        events = generator(32, seed=5)
        records = replay_churn(self._service(), events)
        assert len(records) == len(events)
        assert [r["event"] for r in records] == list(range(len(events)))
        for record in records:
            assert record["ok"], record
            assert record["status"] in ("admitted", "applied", "closed")

    def test_membership_records_carry_the_disruption_detail(self):
        events = flash_crowd(32, crowd=4, seed=2)
        records = replay_churn(self._service(), events)
        joins = [r for r in records if r["kind"] == "join"]
        assert joins
        for record in joins:
            detail = record["detail"]
            assert detail["mode"] in ("incremental", "full-reroute")
            assert isinstance(detail["hitless"], bool)
            assert detail["links_reconfigured"] >= 0

    def test_dependent_event_before_open_rejected(self):
        events = [ChurnEvent(0, "join", 7, (1,))]
        with pytest.raises(ValueError, match="before its open"):
            replay_churn(self._service(), events)

    def test_empty_timeline(self):
        assert replay_churn(self._service(), []) == []
