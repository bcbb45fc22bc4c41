"""The dense link ledger of ``AdmissionController``.

Loads live in one flat array with a cell per grid point, so the edges of
the grid and the capacity-denial message are pinned here: a link off the
grid reads as load 0 (never a wrapped-around cell), and a denial names
the first full link in the route's ``links`` frozenset order with the
exact message the per-link walk has always produced.
"""

import pytest

from repro.core.admission import AdmissionController, AdmissionDenied
from repro.core.churn import extend_route
from repro.core.conference import Conference
from repro.core.network import ConferenceNetwork
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

# Three wide conferences load the cube's middle stages to the dilation;
# a fourth on ports 62/63 stays inside its own block until it grows.
WIDE = ([0, 9, 18, 27, 36, 45], [1, 10, 19, 28, 37, 46], [2, 11, 20, 29, 38, 47, 55])


class Events:
    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


def loaded(*extra):
    network = ConferenceNetwork.build("indirect-binary-cube", 64, dilation=3)
    ctl = AdmissionController(network, tracer=Events())
    for cid, members in enumerate(WIDE + extra):
        ctl.try_join(Conference.of(members, cid))
    return ctl


def grid_loads(ctl):
    net = ctl.network
    return {
        (t, r): ctl.link_load((t, r))
        for t in range(net.n_stages + 1)
        for r in range(net.n_ports)
    }


def assert_denied(ctl, call, detail):
    before = grid_loads(ctl)
    live = ctl.live_conferences
    with pytest.raises(AdmissionDenied) as excinfo:
        call()
    assert (excinfo.value.reason, excinfo.value.detail) == ("capacity", detail)
    assert grid_loads(ctl) == before  # a denial books nothing
    assert ctl.live_conferences == live
    assert ctl.tracer.events[-1][0] == "admission.deny"
    assert ctl.tracer.events[-1][1]["reason"] == "capacity"


def full_links(ctl, links):
    return [link for link in links if ctl.link_load(link) >= ctl.network.dilation]


class TestLinkLoadOffTheGrid:
    def test_level_zero_is_never_a_link(self):
        ctl = loaded()
        assert all(ctl.link_load((0, r)) == 0 for r in range(64))

    def test_rows_and_levels_outside_the_grid_read_zero(self):
        ctl = loaded()
        n_stages = ctl.network.n_stages
        # Each probe would alias a loaded cell if indexed naively as
        # t * N + r: (1, 64) is cell (2, 0), (5, -1) is cell (4, 63) and
        # (-1, 0) wraps around to (6, 0).
        assert n_stages == 6
        assert min(ctl.link_load((2, 0)), ctl.link_load((4, 63)), ctl.link_load((6, 0))) > 0
        for link in [(1, 64), (1, 10_000), (5, -1), (1, -1), (-1, 0),
                     (n_stages + 1, 0), (n_stages + 5, 3)]:
            assert ctl.link_load(link) == 0

    def test_peak_and_stage_loads_match_the_routes(self):
        ctl = loaded()
        loads = {}
        for cid in ctl.live_conferences:
            for link in ctl.route_of(cid).links:
                loads[link] = loads.get(link, 0) + 1
        assert ctl.peak_load() == max(loads.values()) == 3
        stages = {}
        for (level, _row), load in sorted(loads.items()):
            stages.setdefault(level, []).append(load)
        assert ctl.stage_loads() == stages
        for cid in ctl.live_conferences:
            ctl.leave(cid)
        assert ctl.peak_load() == 0
        assert ctl.stage_loads() == {}
        assert set(grid_loads(ctl).values()) == {0}


class TestPinnedCapacityDenial:
    def test_admit_route(self):
        ctl = loaded()
        route = ctl.network.route(Conference.of([4, 13, 22, 31, 40, 49], 7))
        assert len(full_links(ctl, route.links)) > 1  # the pick is an ordering question
        assert_denied(ctl, lambda: ctl.admit_route(route), "link (3, 13) at load 3/3")

    def test_replace_route(self):
        ctl = loaded([62, 63])
        new = ctl.network.route(Conference.of([62, 63, 3, 12, 21, 30, 39, 48, 56], 3))
        added = new.links - ctl.route_of(3).links
        assert len(full_links(ctl, added)) > 1
        assert_denied(ctl, lambda: ctl.replace_route(3, new), "link (2, 39) at load 3/3")

    def test_apply_churn(self):
        ctl = loaded([62, 63])
        churn = extend_route(ctl.network.topology, ctl.route_of(3), [30, 39, 48, 57])
        assert churn.mode == "incremental"
        assert len(full_links(ctl, churn.links_added)) > 1
        assert_denied(ctl, lambda: ctl.apply_churn(churn), "link (2, 39) at load 3/3")


class TestBusiestLinks:
    """Backup planning ranks a route's links off the ledger array; the
    order must be the per-link ``(-link_load, point)`` ranking."""

    @pytest.mark.parametrize("topology", ("omega", "extra-stage-cube", "benes-cube"))
    @pytest.mark.parametrize("seed", range(4))
    def test_gather_ranks_as_the_per_link_lambda(self, topology, seed):
        rng = ensure_rng(seed)
        network = ConferenceNetwork.build(topology, 32)
        ctl = AdmissionController(network)
        # A random ledger with many ties (loads 0-3), level 0 left empty.
        ctl._load[32:] = rng.integers(0, 4, size=len(ctl._load) - 32)
        for cid in range(12):
            k = int(rng.integers(2, 9))
            members = [int(m) for m in rng.choice(32, size=k, replace=False)]
            route = network.route(Conference.of(members, cid))
            want = sorted(route.links, key=lambda p: (-ctl.link_load(p), p))
            for k in (1, 2, 3, len(want), len(want) + 1):
                assert ctl._busiest_links(route, k) == want[:k]

    @pytest.mark.parametrize("topology", ("omega", "extra-stage-cube", "benes-cube"))
    @pytest.mark.parametrize("fill", ("empty", "flat", "two-level", "sparse-peaks"))
    def test_top_one_among_ties_is_the_smallest_point(self, topology, fill):
        """``k = 1`` skips the sort: the smallest cell at the maximum load,
        on ledgers where most or all of a route's links tie."""
        rng = ensure_rng(11)
        network = ConferenceNetwork.build(topology, 32)
        ctl = AdmissionController(network)
        n_links = len(ctl._load) - 32
        for cid in range(16):
            if fill == "flat":
                ctl._load[32:] = 3
            elif fill == "two-level":
                ctl._load[32:] = rng.integers(0, 2, size=n_links)
            elif fill == "sparse-peaks":
                ctl._load[32:] = 1
                ctl._load[32 + rng.choice(n_links, size=4, replace=False)] = 2
            k = int(rng.integers(2, 17))
            members = [int(m) for m in rng.choice(32, size=k, replace=False)]
            route = network.route(Conference.of(members, cid))
            want = min(route.links, key=lambda p: (-ctl.link_load(p), p))
            assert ctl._busiest_links(route, 1) == [want]
