"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventLoop


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(3.0, lambda lp: seen.append("c"))
        loop.schedule(1.0, lambda lp: seen.append("a"))
        loop.schedule(2.0, lambda lp: seen.append("b"))
        loop.run()
        assert seen == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_fifo_among_ties(self):
        loop = EventLoop()
        seen = []
        for tag in "xyz":
            loop.schedule(1.0, lambda lp, t=tag: seen.append(t))
        loop.run()
        assert seen == ["x", "y", "z"]

    def test_until_leaves_future_events_pending(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda lp: seen.append(1))
        loop.schedule(5.0, lambda lp: seen.append(5))
        loop.run(until=2.0)
        assert seen == [1]
        assert loop.pending == 1
        assert loop.now == 2.0
        loop.run()
        assert seen == [1, 5]

    def test_event_at_horizon_still_runs(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda lp: seen.append(2))
        loop.run(until=2.0)
        assert seen == [2]

    def test_actions_can_schedule_more(self):
        loop = EventLoop()
        seen = []

        def chain(lp):
            seen.append(lp.now)
            if len(seen) < 3:
                lp.schedule(1.0, chain)

        loop.schedule(0.0, chain)
        loop.run()
        assert seen == [0.0, 1.0, 2.0]

    def test_max_events_budget(self):
        loop = EventLoop()
        fired = []

        def forever(lp):
            fired.append(lp.now)
            lp.schedule(1.0, forever)

        loop.schedule(0.0, forever)
        loop.run(max_events=10)
        assert len(fired) == 10

    def test_until_advances_clock_when_heap_drains_early(self):
        # Regression: the heap running dry before the horizon used to
        # leave `now` at the last event instead of the requested time.
        loop = EventLoop()
        loop.schedule(1.0, lambda lp: None)
        loop.run(until=10.0)
        assert loop.now == 10.0
        assert loop.pending == 0

    def test_until_advances_clock_on_empty_heap(self):
        loop = EventLoop()
        loop.run(until=7.0)
        assert loop.now == 7.0

    def test_max_events_stop_does_not_jump_to_horizon(self):
        # A budget stop with work still pending must not teleport the
        # clock past the unprocessed events.
        loop = EventLoop()
        fired = []

        def forever(lp):
            fired.append(lp.now)
            lp.schedule(1.0, forever)

        loop.schedule(0.0, forever)
        loop.run(until=100.0, max_events=5)
        assert len(fired) == 5
        assert loop.pending == 1
        assert loop.now == 4.0

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda lp: lp.schedule_at(5.0, lambda lp2: seen.append(lp2.now)))
        loop.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda lp: None)

    def test_reentrant_run_rejected(self):
        loop = EventLoop()
        loop.schedule(0.0, lambda lp: lp.run())
        with pytest.raises(RuntimeError):
            loop.run()
