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
        # Level-0 injection wires are on the grid too.
        timeline = generate_fault_timeline(
            NET, FaultProcessConfig(include_injections=True), horizon=400.0, seed=5
        )
        assert any(tr.point[0] == 0 for tr in timeline)
        FaultInjector(NET, script=timeline)


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

    @pytest.mark.parametrize("point", [(99, 0), (-1, 3), (1, 999), (5, 0), (1, 16), (0, -1)])
    def test_off_grid_point_rejected(self, point):
        with pytest.raises(ValueError, match=r"off the network's grid") as info:
            FaultInjector(NET, script=script_of((2.0, point, True)))
        assert str(point) in str(info.value)

    def test_off_grid_repair_rejected(self):
        with pytest.raises(ValueError, match=r"\(4, 99\) at t=2.0 is off the network's grid"):
            FaultInjector(NET, script=script_of((1.0, (1, 0), True), (2.0, (4, 99), False)))

    @pytest.mark.parametrize("point", [(0, 0), (0, 15), (4, 0), (4, 15)])
    def test_grid_edges_accepted(self, point):
        """Level 0 (an injection wire) and the last level are on the grid."""
        injector = FaultInjector(NET, script=script_of((2.0, point, True)))
        loop = EventLoop()
        injector.start(loop)
        loop.run()
        assert injector.current_faults == {point}

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
        """The fault set at ``t`` counts every transition at or before it."""
        script = script_of(
            (1.0, (1, 0), True), (3.0, (1, 0), False), (3.0, (2, 2), True)
        )
        injector = FaultInjector(NET, script=script)
        loop = EventLoop()
        injector.start(loop)
        for probe, expected in [(0.5, set()), (1.0, {(1, 0)}), (2.9, {(1, 0)}), (3.0, {(2, 2)})]:
            loop.run(until=probe)
            assert injector.current_faults == expected
            assert scripted_faults(script, probe) == expected


def scripted_faults(script, time):
    """Reference replay: the union of the fail transitions at or before
    ``time`` minus the repairs at or before it."""
    dead = set()
    for tr in script:
        if tr.time > time:
            break
        (dead.add if tr.failed else dead.discard)(tr.point)
    return frozenset(dead)


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
        to that time (the ``scripted_faults`` reference replay)."""
        injector = FaultInjector(NET, script=script)
        loop = EventLoop()
        injector.start(loop)
        loop.run(until=probe)
        assert injector.current_faults == scripted_faults(script, probe)
        # And running to completion drains the whole script.
        loop.run()
        assert injector.current_faults == scripted_faults(script, float("inf"))
        assert len(injector.history) == len(script)
