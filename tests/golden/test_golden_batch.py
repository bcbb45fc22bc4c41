"""Golden snapshots of the columnar routing core.

The batch kernel's contract is byte-identity with the sequential path,
so its golden records deliberately keep *insertion order*: levels and
taps serialize in dict order (unlike the report serializer, which
sorts), and ``links`` in frozenset iteration order.  A kernel change
that reorders construction — even to an "equal" result — shows up here
as a reviewable diff.
"""

import pytest

from repro.core.batch import analyze_conflicts_columnar, occupancy_words, route_batch, stage_occupancy
from repro.core.conference import Conference
from repro.topology.builders import build
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

N_PORTS = 16


def batch_for(seed, size=12):
    rng = ensure_rng(seed)
    batch = []
    for cid in range(size):
        k = int(rng.integers(2, 7))
        members = sorted(int(m) for m in rng.choice(N_PORTS, size=k, replace=False))
        batch.append(Conference.of(members, cid))
    return batch


def outcome_to_record(outcome):
    """Order-preserving, repr-faithful JSON view of one outcome."""
    if not outcome.ok:
        return {
            "conference": list(outcome.conference.members),
            "error": type(outcome.error).__name__,
            "args": list(outcome.error.args),
        }
    route = outcome.route
    return {
        "conference": list(route.conference.members),
        "taps": [[port, level] for port, level in route.taps.items()],
        "levels": [[[row, mask] for row, mask in rows.items()] for rows in route.levels],
        "links": [list(link) for link in route.links],
    }


class TestRouteBatchGolden:
    @pytest.mark.parametrize("topology", ["omega", "indirect-binary-cube"])
    def test_batch_records(self, golden, topology):
        net = build(topology, N_PORTS)
        outcomes = route_batch(net, batch_for(17))
        golden(
            f"route_batch_{topology}16",
            [outcome_to_record(o) for o in outcomes],
        )

    def test_batch_under_faults(self, golden):
        net = build("indirect-binary-cube", N_PORTS)
        faults = frozenset({(1, 0), (2, 5), (3, 11)})
        outcomes = route_batch(net, batch_for(23), faults=faults)
        golden(
            "route_batch_cube16_faults",
            [outcome_to_record(o) for o in outcomes],
        )

    def test_conflict_accounting(self, golden):
        net = build("indirect-binary-cube", N_PORTS)
        routes = [o.unwrap() for o in route_batch(net, batch_for(29))]
        loads = stage_occupancy(routes, net.n_stages, net.n_ports)
        report = analyze_conflicts_columnar(routes, net.n_stages, net.n_ports)
        golden(
            "route_batch_conflicts_cube16",
            {
                "occupancy": loads.tolist(),
                "occupancy_words": list(occupancy_words(loads)),
                "max_multiplicity": report.max_multiplicity,
                "worst_link": list(report.worst_link),
                "stage_profile": list(report.stage_profile),
                "load_histogram": [list(p) for p in report.load_histogram],
                "total_links_used": report.total_links_used,
            },
        )
