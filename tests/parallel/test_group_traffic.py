"""E3's group-traffic trial draws every group that fits."""

import numpy as np
import pytest

from repro.core.conflict import analyze_conflicts
from repro.core.groupcast import GroupConnection, route_group
from repro.parallel.experiments import group_traffic_trial
from repro.topology.builders import build

pytestmark = pytest.mark.tier1

PARAMS = {"topology": "indirect-binary-cube", "n_ports": 16, "group_size": 4, "n_groups": 4}


def test_groups_that_exactly_fill_the_ports_are_all_routed():
    """Four groups of four on 16 ports: the last group (the permutation's
    ports 12-15) is routed too, one ``route_group`` call per connection."""
    net = build("indirect-binary-cube", 16)
    perm = [int(p) for p in np.random.default_rng(7000).permutation(16)]
    groups = [perm[i : i + 4] for i in (0, 4, 8, 12)]
    routes = [route_group(net, GroupConnection.conference(g, c)) for c, g in enumerate(groups)]
    record = group_traffic_trial(0, 7000, PARAMS)
    assert record["conference"] == {
        "mean_links": float(np.mean([r.n_links for r in routes])),
        "mean_depth": float(np.mean([r.depth for r in routes])),
        "dilation": analyze_conflicts(routes, n_stages=net.n_stages).max_multiplicity,
    }


def test_groups_that_do_not_fit_are_rejected():
    with pytest.raises(ValueError, match="5 groups of 4 ports do not fit in 16 ports"):
        group_traffic_trial(0, 7000, {**PARAMS, "n_groups": 5})
