"""Extension E3 — group-communication traffic mixes.

The abstract frames conferencing within group communication at large:
"messages from one or more sender(s) are delivered to a large number of
receivers".  This bench compares the three connection shapes on the
same port sets: full conference (everyone talks), multicast (one
speaker), and panel (a few talk, everyone listens), measuring link
usage and conflict pressure on the cube at N=64.

Expected shape: fewer senders -> smaller combining trees -> fewer links
and less contention; a multicast costs roughly half a conference's
links at the same group size.
"""

import os

import numpy as np
from _common import emit

from repro.core.groupcast import GroupConnection, route_group
from repro.parallel.experiments import group_traffic_trial
from repro.parallel.runner import run_trials
from repro.topology.builders import build
from repro.util.rng import ensure_rng

N_PORTS = 64
TRIALS = 25
GROUP_SIZE = 6
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or None


def draw_port_groups(seed):
    rng = ensure_rng(seed)
    perm = [int(p) for p in rng.permutation(N_PORTS)]
    return [perm[i : i + GROUP_SIZE] for i in range(0, N_PORTS - GROUP_SIZE + 1, GROUP_SIZE)][:8]


def build_rows(workers=WORKERS):
    # Each engine trial draws one family of groups (legacy seed 7000+i)
    # and measures all three connection shapes on it.
    params = {
        "topology": "indirect-binary-cube",
        "n_ports": N_PORTS,
        "group_size": GROUP_SIZE,
        "n_groups": 8,
    }
    records = run_trials(
        group_traffic_trial, TRIALS, params=params,
        seeds=range(7000, 7000 + TRIALS), workers=workers,
    )
    rows = []
    for shape in ("conference", "panel", "multicast"):
        rows.append(
            {
                "shape": shape,
                "senders": {"conference": GROUP_SIZE, "panel": 2, "multicast": 1}[shape],
                "receivers": GROUP_SIZE if shape != "multicast" else GROUP_SIZE - 1,
                "mean_links_per_connection": float(np.mean([r[shape]["mean_links"] for r in records])),
                "mean_depth": float(np.mean([r[shape]["mean_depth"] for r in records])),
                "mean_dilation": float(np.mean([r[shape]["dilation"] for r in records])),
            }
        )
    return rows


def test_e3_group_traffic(benchmark):
    net = build("indirect-binary-cube", N_PORTS)
    groups = draw_port_groups(1)
    benchmark(
        lambda: [
            route_group(net, GroupConnection.multicast(g[0], g[1:], connection_id=i))
            for i, g in enumerate(groups)
        ]
    )
    rows = build_rows()
    emit(
        "e3_group_traffic",
        rows,
        title=f"E3: connection shape vs fabric load (cube, N={N_PORTS}, groups of {GROUP_SIZE})",
    )
    by = {r["shape"]: r for r in rows}
    # Fewer senders -> strictly fewer links and no more contention.
    assert (
        by["multicast"]["mean_links_per_connection"]
        < by["panel"]["mean_links_per_connection"]
        < by["conference"]["mean_links_per_connection"]
    )
    assert by["multicast"]["mean_dilation"] <= by["conference"]["mean_dilation"]
