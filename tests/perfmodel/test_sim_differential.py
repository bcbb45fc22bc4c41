"""Differential grid: the owner-tracking stepper against the FIFO oracle.

``CycleSim`` keeps each lane as its owner worm and derives occupancy and
the per-lane counters from per-level wave counters.
``ReferenceCycleSim`` (``reference_sim.py``) is the stepper that pushes
and pops a live ``LaneQueue`` per lane.  Both are driven through the
same random sequence of injections, steps and a final drain, and held
equal on everything observable: stall tallies, the metrics exposition,
the ``report()`` and every field of every lane in ``links``.

The grid covers every registered topology at N = 8/16/32, lanes 1-3,
buffer depth 1-4, worm lengths 1-5 and TDM frames in about 30% of the
cases.
"""

import numpy as np
import pytest

from repro.core.conference import Conference
from repro.core.routing import UnroutableError, route_conference
from repro.obs.metrics import MetricsRegistry
from repro.perfmodel import CycleSim, PerfModelConfig
from repro.topology.builders import TOPOLOGY_BUILDERS, build
from tests.perfmodel.reference_sim import ReferenceCycleSim

pytestmark = pytest.mark.tier1

TOPOLOGIES = tuple(sorted(TOPOLOGY_BUILDERS))
N_CASES = 140
N_PORTS = (8, 16, 32)
LANE_FIELDS = (
    "lane", "depth", "owner", "occupancy", "pushes", "pops",
    "peak_occupancy", "stall_busy", "stall_full",
)


def random_case(seed):
    """Overlapping conferences on one topology, a config and a script."""
    rng = np.random.default_rng(seed)
    net = build(TOPOLOGIES[seed % len(TOPOLOGIES)], N_PORTS[seed // len(TOPOLOGIES) % 3])
    routes = []
    for cid in range(int(rng.integers(1, 7))):
        k = int(rng.integers(2, 6))
        members = rng.choice(net.n_ports, size=k, replace=False)
        try:
            routes.append(route_conference(net, Conference.of((int(m) for m in members), cid)))
        except UnroutableError:
            continue
    config = PerfModelConfig(
        lanes=int(rng.integers(1, 4)),
        buffer_depth=int(rng.integers(1, 5)),
        flits_per_packet=int(rng.integers(1, 6)),
        tdm=bool(rng.random() < 0.3),
    )
    script = []
    for _ in range(int(rng.integers(10, 60))):
        u = rng.random()
        if u < 0.3 and routes:
            script.append(("inject", int(rng.integers(len(routes))), int(rng.integers(1, 4))))
        else:
            script.append(("step", int(rng.integers(1, 4))))
        script.append(("check", bool(rng.random() < 0.25)))
    return routes, config, script


def lane_table(sim):
    return [
        (link, tuple(tuple(getattr(lane, f) for f in LANE_FIELDS) for lane in model.lanes))
        for link, model in sim.links.items()
    ]


def assert_same(sim, ref, *, lanes):
    assert sim.cycle == ref.cycle
    assert sim.stalls == ref.stalls
    assert sim.report() == ref.report()
    assert sim.peak_lane_occupancy == ref.report().peak_lane_occupancy
    if lanes:
        assert lane_table(sim) == lane_table(ref)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_owner_tracking_matches_fifo_oracle(seed):
    routes, config, script = random_case(seed)
    if not routes:
        pytest.skip("no conference routed")
    sim_reg, ref_reg = MetricsRegistry(), MetricsRegistry()
    sim = CycleSim(routes, config, metrics=sim_reg)
    ref = ReferenceCycleSim(routes, config, metrics=ref_reg)
    cids = sim.conference_ids
    for action, *args in script:
        if action == "inject":
            idx, packets = args
            sim.inject(cids[idx], packets)
            ref.inject(cids[idx], packets)
        elif action == "step":
            sim.run(args[0])
            ref.run(args[0])
        else:
            assert_same(sim, ref, lanes=args[0])
            sim.observe_metrics()
            ref.observe_metrics()
            assert sim_reg.render_prometheus() == ref_reg.render_prometheus()
    for target in (sim, ref):
        for cid in cids:
            target.inject(cid, 1)
    spent = ref.drain()
    assert sim.drain(max_cycles=spent) == spent
    assert_same(sim, ref, lanes=True)
    sim.observe_metrics()
    ref.observe_metrics()
    assert sim_reg.render_prometheus() == ref_reg.render_prometheus()


def test_grid_covers_the_model_axes():
    """The random grid reaches every axis value the docstring names
    (topologies and port counts cycle with the seed)."""
    seen = {"lanes": set(), "depth": set(), "flits": set()}
    tdm = 0
    for seed in range(N_CASES):
        _routes, config, _script = random_case(seed)
        seen["lanes"].add(config.lanes)
        seen["depth"].add(config.buffer_depth)
        seen["flits"].add(config.flits_per_packet)
        tdm += config.tdm
    assert seen["lanes"] == {1, 2, 3}
    assert seen["depth"] == {1, 2, 3, 4}
    assert seen["flits"] == {1, 2, 3, 4, 5}
    assert 0.15 * N_CASES < tdm < 0.45 * N_CASES
