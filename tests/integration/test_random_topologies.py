"""Fuzzing the routing engine over arbitrary random topologies.

The curated topologies are all banyan and full-access; the routing
engine itself promises correctness for *any* wiring built from
bijective inter-stage permutations.  These tests build networks from
random permutations and assert the engine's contract: either a clean
``UnroutableError`` (the random wiring lacks the needed access) or a
route that the hardware simulator confirms delivers exactly the full
combination — never silent misdelivery.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conference import Conference
from repro.core.routing import UnroutableError, route_conference
from repro.switching.fabric import Fabric
from repro.topology.network import MultistageNetwork, Stage
from repro.topology.permutations import from_mapping


def random_network(n_ports: int, n_stages: int, seed: int) -> MultistageNetwork:
    """A network whose pre/post wirings are uniform random permutations."""
    rng = np.random.default_rng(seed)
    stages = []
    for s in range(n_stages):
        pre = from_mapping([int(x) for x in rng.permutation(n_ports)], name=f"pre{s}")
        post = from_mapping([int(x) for x in rng.permutation(n_ports)], name=f"post{s}")
        stages.append(Stage(pre=pre, post=post, label=f"rand[{s}]"))
    return MultistageNetwork(n_ports, stages, name=f"random-{seed}")


class TestRandomTopologyContract:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_stages=st.integers(1, 6),
        members=st.sets(st.integers(0, 15), min_size=1, max_size=6),
    )
    def test_route_or_clean_failure(self, seed, n_stages, members):
        net = random_network(16, n_stages, seed)
        conf = Conference.of(members)
        try:
            route = route_conference(net, conf)
        except UnroutableError:
            return  # legal outcome on arbitrary wiring
        report = Fabric(net, dilation=1).simulate([route])
        assert report.correct

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), members=st.sets(st.integers(0, 15), min_size=2, max_size=5))
    def test_enough_random_stages_always_route(self, seed, members):
        """With 2*log2(N) random stages, mixing is essentially certain;
        if routing succeeds the taps must satisfy the earliest property."""
        net = random_network(16, 8, seed)
        conf = Conference.of(members)
        try:
            route = route_conference(net, conf)
        except UnroutableError:
            return
        from repro.core.reference import _forward_masks

        forward = _forward_masks(net, conf)
        for port, t in route.taps.items():
            assert forward[t].get(port, 0) == conf.full_mask
            assert all(forward[e].get(port, 0) != conf.full_mask for e in range(t))

    def test_single_stage_random_network_often_unroutable(self):
        """Sanity: one random stage cannot combine spread-out members."""
        failures = 0
        for seed in range(20):
            net = random_network(16, 1, seed)
            try:
                route_conference(net, Conference.of([0, 5, 9, 14]))
            except UnroutableError:
                failures += 1
        assert failures == 20
