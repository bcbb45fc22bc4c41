"""Tests for the live fault injector and its timeline generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventLoop
from repro.sim.faults import (
    FaultInjector,
    FaultProcessConfig,
    FaultTransition,
    fault_universe,
    generate_fault_timeline,
)
from repro.topology.builders import build

NET = build("indirect-binary-cube", 16)


def script_of(*specs):
    """Shorthand: specs are (time, point, failed) triples."""
    return [FaultTransition(t, p, f) for t, p, f in specs]


class TestFaultTransition:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultTransition(-1.0, (1, 0), True)


class TestFaultProcessConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProcessConfig(mean_time_to_failure=0)
        with pytest.raises(ValueError):
            FaultProcessConfig(mean_time_to_repair=-1)


class TestFaultUniverse:
    def test_excludes_injections_by_default(self):
        universe = fault_universe(NET)
        assert all(1 <= level <= NET.n_stages for level, _ in universe)
        assert len(universe) == NET.n_stages * NET.n_ports

    def test_injections_optional(self):
        universe = fault_universe(NET, include_injections=True)
        assert (0, 0) in universe
        assert len(universe) == (NET.n_stages + 1) * NET.n_ports


class TestTimelineGeneration:
    def test_deterministic_by_seed(self):
        a = generate_fault_timeline(NET, horizon=500.0, seed=3)
        b = generate_fault_timeline(NET, horizon=500.0, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_fault_timeline(NET, horizon=500.0, seed=1)
        b = generate_fault_timeline(NET, horizon=500.0, seed=2)
        assert a != b

    def test_sorted_and_within_horizon(self):
        timeline = generate_fault_timeline(NET, horizon=300.0, seed=0)
        times = [tr.time for tr in timeline]
        assert times == sorted(times)
        assert all(0 < t < 300.0 for t in times)

    def test_per_point_alternation_starts_with_failure(self):
        timeline = generate_fault_timeline(
            NET, FaultProcessConfig(mean_time_to_failure=50.0), horizon=500.0, seed=0
        )
        state = {}
        for tr in timeline:
            assert state.get(tr.point, False) != tr.failed
            state[tr.point] = tr.failed

    def test_validates_as_script(self):
        timeline = generate_fault_timeline(NET, horizon=400.0, seed=5)
        FaultInjector(NET, script=timeline)  # must not raise


class TestInjectorValidation:
    def test_unsorted_script_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            FaultInjector(NET, script=script_of((5.0, (1, 0), True), (1.0, (1, 1), True)))

    def test_double_fail_rejected(self):
        with pytest.raises(ValueError, match="already dead"):
            FaultInjector(NET, script=script_of((1.0, (1, 0), True), (2.0, (1, 0), True)))

    def test_repair_of_healthy_point_rejected(self):
        with pytest.raises(ValueError, match="already alive"):
            FaultInjector(NET, script=script_of((1.0, (1, 0), False)))

    def test_double_start_rejected(self):
        injector = FaultInjector(NET, script=[])
        injector.start(EventLoop())
        with pytest.raises(RuntimeError):
            injector.start(EventLoop())


class TestInjectorExecution:
    def test_replays_script_on_loop(self):
        script = script_of(
            (1.0, (1, 0), True), (2.0, (2, 5), True), (3.0, (1, 0), False)
        )
        injector = FaultInjector(NET, script=script)
        loop = EventLoop()
        injector.start(loop)
        loop.run(until=1.5)
        assert injector.current_faults == {(1, 0)}
        loop.run(until=2.5)
        assert injector.current_faults == {(1, 0), (2, 5)}
        loop.run()
        assert injector.current_faults == {(2, 5)}
        assert injector.history == tuple(script)

    def test_listeners_see_updated_state(self):
        seen = []
        injector = FaultInjector(NET, script=script_of((1.0, (1, 0), True)))
        injector.subscribe(
            lambda loop, tr: seen.append((loop.now, tr.point, frozenset(injector.current_faults)))
        )
        loop = EventLoop()
        injector.start(loop)
        loop.run()
        # The fault set already includes the transition when listeners run.
        assert seen == [(1.0, (1, 0), frozenset({(1, 0)}))]

    def test_faults_at_reference_semantics(self):
        script = script_of(
            (1.0, (1, 0), True), (3.0, (1, 0), False), (3.0, (2, 2), True)
        )
        injector = FaultInjector(NET, script=script)
        assert injector.faults_at(0.5) == frozenset()
        assert injector.faults_at(1.0) == {(1, 0)}
        assert injector.faults_at(2.9) == {(1, 0)}
        assert injector.faults_at(3.0) == {(2, 2)}


@st.composite
def fault_scripts(draw):
    """Random but *consistent* scripts: per point, sorted alternating
    fail/repair transitions starting with a failure."""
    points = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 15)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    transitions = []
    for point in points:
        times = sorted(
            draw(
                st.lists(
                    st.floats(0.0, 100.0, allow_nan=False),
                    min_size=0,
                    max_size=6,
                    unique=True,
                )
            )
        )
        for i, t in enumerate(times):
            transitions.append(FaultTransition(t, point, failed=(i % 2 == 0)))
    transitions.sort(key=lambda tr: (tr.time, tr.point, tr.failed))
    return transitions


class TestLiveStateMatchesScript:
    @settings(max_examples=60, deadline=None)
    @given(script=fault_scripts(), probe=st.floats(0.0, 120.0, allow_nan=False))
    def test_live_fault_set_equals_scripted_union(self, script, probe):
        """The satellite property: at any time, the injector's live
        fault set equals the union of scripted failures minus repairs up
        to that time (the ``faults_at`` reference replay)."""
        injector = FaultInjector(NET, script=script)
        loop = EventLoop()
        injector.start(loop)
        loop.run(until=probe)
        assert injector.current_faults == injector.faults_at(probe)
        # And running to completion drains the whole script.
        loop.run()
        assert injector.current_faults == injector.faults_at(float("inf"))
        assert len(injector.history) == len(script)
