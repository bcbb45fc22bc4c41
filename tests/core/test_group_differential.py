"""Differential grid: group connections on the kernel against the reference walk.

A group connection injects on its sender rows and taps on its receiver
rows.  The kernel routes it through ``_route_batch(..., receivers=...)``
and ``route_group`` wraps the result; the oracle is the sequential walk
``route_conference_sequential(..., receivers=...)``.  Outputs are held
``repr``-identical (dict insertion order included) and errors
``args``-identical, over every registered topology at N=16/64, the
radix-4 cube, both tap policies, wide slots (more than 64 senders),
faults, pins and batches that mix groups with ordinary conferences.
"""

import pytest

from repro.core.batch import _route_batch
from repro.core.conference import Conference
from repro.core.groupcast import GroupConnection, GroupRoute, _route_groups
from repro.core.reference import route_conference_sequential
from repro.core.routing import RoutingPolicy, TapPolicy, UnroutableError
from repro.topology.builders import TOPOLOGY_BUILDERS, build, radix_cube
from repro.util.rng import ensure_rng

pytestmark = pytest.mark.tier1

TOPOLOGIES = tuple(sorted(TOPOLOGY_BUILDERS))
TAPS = {True: TapPolicy.EARLIEST, False: TapPolicy.FINAL}


def random_connection(rng, n_ports, cid, max_ports=70):
    """Random senders and receivers (overlapping, nested or disjoint)."""
    cap = min(max_ports, n_ports)
    senders = rng.choice(n_ports, size=int(rng.integers(1, cap + 1)), replace=False)
    receivers = rng.choice(n_ports, size=int(rng.integers(1, cap + 1)), replace=False)
    return GroupConnection(
        tuple(int(p) for p in senders), tuple(int(p) for p in receivers), cid
    )


def as_conference(connection):
    return Conference(connection.senders, connection.connection_id)


def reference_group(net, connection, earliest=True):
    """The oracle's route, wrapped as ``route_group`` wraps the kernel's."""
    route = route_conference_sequential(
        net, as_conference(connection), RoutingPolicy(TAPS[earliest]),
        receivers=connection.receivers,
    )
    return GroupRoute(connection, net.n_ports, net.n_stages, route.levels, route.taps)


def reference_outcome(net, conf, policy, faults, receivers, pins):
    """``(repr, None)`` of the reference route or ``(None, error args)``."""
    try:
        route = route_conference_sequential(
            net, conf, policy, faults=faults or None, pins=pins, receivers=receivers
        )
    except ValueError as exc:
        return None, (type(exc), exc.args)
    return repr(route), None


def kernel_outcomes(outcomes):
    return [
        (repr(o.route), None) if o.ok else (None, (type(o.error), o.error.args))
        for o in outcomes
    ]


def networks():
    return [build(name, n) for name in TOPOLOGIES for n in (16, 64)] + [radix_cube(64, 4)]


class TestRouteGroupsGrid:
    @pytest.mark.parametrize("net", networks(), ids=lambda net: f"{net.name}-{net.n_ports}")
    @pytest.mark.parametrize("earliest", [True, False])
    def test_batch_matches_reference(self, net, earliest):
        rng = ensure_rng(net.n_ports + 7 * int(earliest))
        connections = [random_connection(rng, net.n_ports, cid) for cid in range(12)]
        routes = _route_groups(net, connections, earliest)
        assert [repr(r) for r in routes] == [
            repr(reference_group(net, c, earliest)) for c in connections
        ]

    @pytest.mark.parametrize("name", ["indirect-binary-cube", "omega", "benes-cube"])
    @pytest.mark.parametrize("earliest", [True, False])
    def test_wide_slots(self, name, earliest):
        """65 to 70 senders span two slot words; small ones share a word."""
        net = build(name, 128)
        rng = ensure_rng(3)
        connections = [
            random_connection(rng, 128, cid, max_ports=70 if cid % 2 else 8)
            for cid in range(8)
        ]
        connections.append(GroupConnection(tuple(range(40, 110)), (0, 127), 8))
        assert max(len(c.senders) for c in connections) > 64
        routes = _route_groups(net, connections, earliest)
        assert [repr(r) for r in routes] == [
            repr(reference_group(net, c, earliest)) for c in connections
        ]

    def test_first_unreachable_receiver_raises(self):
        """Connections are checked in order; the message names the first
        receiver of the first unroutable connection."""
        from repro.topology.network import MultistageNetwork, Stage
        from repro.topology.permutations import identity

        net = MultistageNetwork(8, [Stage(identity(8), identity(8))] * 3, name="deg")
        connections = [
            GroupConnection((0, 1), (0, 1), 0),
            GroupConnection((2, 3), (6, 7, 2), 1),
            GroupConnection((0, 1), (5,), 2),
        ]
        with pytest.raises(ValueError, match=r"^receiver 6 can never hear all senders \(2, 3\)"):
            _route_groups(net, connections, True)

    def test_ports_are_checked_before_routing(self):
        net = build("omega", 16)
        with pytest.raises(ValueError, match="receivers element 16 out of range"):
            _route_groups(net, [GroupConnection((0,), (1,)), GroupConnection((0,), (16,))], True)


class TestMixedBatches:
    """Groups and ordinary conferences in one ``_route_batch`` call."""

    def batch(self, rng, n_ports, size=16):
        confs, receivers = [], []
        for cid in range(size):
            if cid % 3:
                connection = random_connection(rng, n_ports, cid, max_ports=10)
                confs.append(as_conference(connection))
                receivers.append(connection.receivers)
            else:
                k = int(rng.integers(2, 7))
                conf = Conference.of((int(m) for m in rng.choice(n_ports, k, replace=False)), cid)
                confs.append(conf)
                receivers.append(conf.members)
        return confs, receivers

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("tap", ["earliest", "final"])
    def test_mixed_batch_under_faults(self, topology, tap):
        net = build(topology, 16)
        rng = ensure_rng(11)
        policy = RoutingPolicy(tap)
        confs, receivers = self.batch(rng, 16)
        faults = frozenset(
            (int(rng.integers(0, net.n_stages + 1)), int(rng.integers(0, 16))) for _ in range(2)
        )
        outcomes = _route_batch(net, confs, policy, faults, receivers=receivers)
        expected = [
            reference_outcome(
                net, conf, policy, faults,
                None if recv == conf.members else recv, None,
            )
            for conf, recv in zip(confs, receivers)
        ]
        assert kernel_outcomes(outcomes) == expected

    def test_unroutable_error_names_the_first_failing_receiver(self):
        net = build("indirect-binary-cube", 16)
        for tap in ("earliest", "final"):
            confs = [Conference.of([0, 1], 0), Conference.of([4, 5], 1)]
            receivers = [(0, 1), (2, 5, 9)]
            faults = frozenset({(4, 2), (4, 5), (4, 9), (3, 9)})
            outcomes = _route_batch(net, confs, RoutingPolicy(tap), faults, receivers=receivers)
            assert outcomes[0].ok
            error = outcomes[1].error
            assert isinstance(error, UnroutableError)
            assert error.port == int(error.args[0].rsplit(" ", 1)[1])
            assert (type(error), error.args) == reference_outcome(
                net, confs[1], RoutingPolicy(tap), faults, receivers[1], None
            )[1]

    def test_conference_errors_keep_their_args(self):
        """Conference errors gain a ``port`` attribute and nothing else."""
        net = build("omega", 16)
        faults = frozenset({(0, 3)})
        [outcome] = _route_batch(net, [Conference.of([3, 8])], RoutingPolicy(), faults)
        assert outcome.error.args == (
            "no surviving level combines the full conference on row 3",
        )
        assert outcome.error.port == 3

    @pytest.mark.parametrize("tap", ["earliest", "final"])
    def test_pins_are_keyed_by_receiver(self, tap):
        net = build("extra-stage-cube", 16)
        rng = ensure_rng(5)
        policy = RoutingPolicy(tap)
        confs, receivers, pins = [], [], []
        for cid in range(10):
            connection = random_connection(rng, 16, cid, max_ports=6)
            confs.append(as_conference(connection))
            receivers.append(connection.receivers)
            pins.append({r: int(rng.integers(0, net.n_stages + 1)) for r in connection.receivers})
        outcomes = _route_batch(net, confs, policy, frozenset(), pins=pins, receivers=receivers)
        assert kernel_outcomes(outcomes) == [
            reference_outcome(net, conf, policy, frozenset(), recv, pin)
            for conf, recv, pin in zip(confs, receivers, pins)
        ]
