"""Differential harness: the columnar kernel against sequential oracles.

``route_batch`` promises **byte-identity** with the per-object
``route_conference_sequential`` walk, not mere equality: Route dicts
built in the same insertion order, frozensets iterating identically,
errors raised with the same type and message.  ``sequential_outcomes``
routes each conference one at a time through that walk, and the grid
compares the strongest observable form of each output — ``repr`` bytes
for routes, ``list()`` order for frozensets, ``args`` for errors, whole
outcome/ledger structures for the admission and healing layers — over
every registered topology, plus batches shaped to stress the kernel's
packed bit-slot layout.

The same applies to conflict accounting: ``analyze_conflicts`` is the
columnar load matrix, and ``counter_walk_report`` below re-implements
the original Counter-based walk as a reference the report is held
field-for-field equal to, worst-link tie-break included.
"""

from collections import Counter

import pytest

from repro.core.admission import AdmissionController, AdmissionDenied
from repro.core.batch import (
    BatchRouteOutcome,
    _route_batch,
    _slots,
    analyze_conflicts_columnar,
    route_batch,
)
from repro.core.conference import Conference
from repro.core.conflict import ConflictReport, analyze_conflicts, link_loads
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.core.reference import route_conference_sequential
from repro.core.routing import RoutingPolicy, UnroutableError
from repro.sim.engine import EventLoop
from repro.topology.builders import TOPOLOGY_BUILDERS, build, radix_delta
from repro.util.rng import ensure_rng
from repro.workloads.generators import uniform_partition

pytestmark = pytest.mark.tier1

TOPOLOGIES = tuple(sorted(TOPOLOGY_BUILDERS))


def random_batch(n_ports, rng, size, max_members=6):
    """Non-disjoint conferences (overlap stresses tap/conflict paths)."""
    batch = []
    for cid in range(size):
        k = int(rng.integers(2, max_members + 1))
        members = rng.choice(n_ports, size=min(k, n_ports), replace=False)
        batch.append(Conference.of((int(m) for m in members), cid))
    return batch


def sequential_outcomes(net, batch, policy=None, faults=None):
    """The per-object oracle: one sequential-walk call at a time.

    Uses ``route_conference_sequential`` directly — the public
    ``route_conference`` now routes through the kernel as a batch of
    one, so comparing against it would be kernel-vs-kernel.
    """
    policy = policy or RoutingPolicy()
    dead = frozenset(faults or ())
    out = []
    for conf in batch:
        try:
            route = route_conference_sequential(net, conf, policy, faults=dead or None)
            out.append(BatchRouteOutcome(conf, route=route))
        except ValueError as exc:  # UnroutableError is a ValueError subclass
            out.append(BatchRouteOutcome(conf, error=exc))
    return out


def counter_walk_report(routes, n_stages=None):
    """The original Counter-based conflict walk, kept as the reference.

    Field-for-field the implementation ``analyze_conflicts`` shipped
    before the columnar fold — including the lowest-point tie-break on
    the worst link, which the kernel must reproduce exactly.
    """
    routes = list(routes)
    if n_stages is None:
        if not routes:
            raise ValueError("n_stages is required for an empty route collection")
        n_stages = routes[0].n_stages
    loads = link_loads(routes)
    profile = [0] * n_stages
    worst, worst_load = None, 0
    for (level, row), load in loads.items():
        profile[level - 1] = max(profile[level - 1], load)
        if load > worst_load or (
            load == worst_load and worst is not None and (level, row) < worst
        ):
            worst, worst_load = (level, row), load
    return ConflictReport(
        n_conferences=len(routes),
        n_stages=n_stages,
        max_multiplicity=worst_load,
        worst_link=worst,
        stage_profile=tuple(profile),
        load_histogram=tuple(sorted(Counter(loads.values()).items())),
        total_links_used=len(loads),
    )


def assert_outcomes_identical(batched, oracle):
    assert len(batched) == len(oracle)
    for got, want in zip(batched, oracle):
        assert got.conference == want.conference
        assert got.ok == want.ok
        if want.ok:
            # repr covers every field *and* dict insertion order.
            assert repr(got.route) == repr(want.route)
            # frozenset iteration order is the subtle half of the
            # contract: it drives Counter order and admission messages.
            assert list(got.route.links) == list(want.route.links)
            assert list(got.route.points) == list(want.route.points)
            assert list(got.route.taps) == list(want.route.taps)
        else:
            assert type(got.error) is type(want.error)
            assert got.error.args == want.error.args


class TestRouteBatchGrid:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("tap", ["earliest", "final"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_grid_topology_tap_seed(self, topology, tap, seed):
        net = build(topology, 16)
        policy = RoutingPolicy(tap_policy=tap)
        rng = ensure_rng(seed)
        batch = random_batch(16, rng, size=24)
        assert_outcomes_identical(
            route_batch(net, batch, policy),
            sequential_outcomes(net, batch, policy),
        )

    @pytest.mark.parametrize("size", [1, 3, 40, 200])
    def test_batch_sizes_cross_chunk_boundaries(self, size):
        net = build("indirect-binary-cube", 16)
        rng = ensure_rng(size)
        batch = random_batch(16, rng, size=size)
        assert_outcomes_identical(
            route_batch(net, batch), sequential_outcomes(net, batch)
        )

    def test_larger_network(self):
        net = build("omega", 64)
        rng = ensure_rng(3)
        batch = random_batch(64, rng, size=32, max_members=10)
        assert_outcomes_identical(
            route_batch(net, batch), sequential_outcomes(net, batch)
        )

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", [1, 5])
    def test_grid_under_faults(self, topology, seed):
        net = build(topology, 16)
        rng = ensure_rng(seed)
        faults = frozenset(
            (int(rng.integers(1, net.n_stages + 1)), int(rng.integers(net.n_ports)))
            for _ in range(4)
        )
        batch = random_batch(16, rng, size=30)
        batched = route_batch(net, batch, faults=faults)
        assert_outcomes_identical(
            batched, sequential_outcomes(net, batch, faults=faults)
        )
        # The fault grid must actually exercise the failure branch.
        if topology == "indirect-binary-cube":
            assert any(isinstance(o.error, UnroutableError) for o in batched)

    def test_out_of_range_member_message(self):
        net = build("omega", 16)
        batch = [Conference.of([0, 1]), Conference.of([2, 99]), Conference.of([3, 4])]
        batched = route_batch(net, batch)
        oracle = sequential_outcomes(net, batch)
        assert_outcomes_identical(batched, oracle)
        assert not batched[1].ok
        assert type(batched[1].error) is ValueError
        with pytest.raises(ValueError) as excinfo:
            batched[1].unwrap()
        assert excinfo.value.args == oracle[1].error.args

    def test_oversized_conference_spans_words(self):
        net = build("omega", 128)
        big = Conference.of(range(64 + 1))
        small = Conference.of([1, 2])
        assert_outcomes_identical(
            route_batch(net, [big, small]),
            sequential_outcomes(net, [big, small]),
        )

    def test_prune_policy_is_a_kernel_post_pass(self):
        pruned = 0
        for topology, tap in (
            ("indirect-binary-cube", "earliest"),
            ("extra-stage-cube", "final"),
            ("benes-cube", "final"),
        ):
            net = build(topology, 16)
            policy = RoutingPolicy(tap_policy=tap, prune=True)
            batch = random_batch(16, ensure_rng(2), size=8)
            batched = route_batch(net, batch, policy)
            assert_outcomes_identical(batched, sequential_outcomes(net, batch, policy))
            natural = route_batch(net, batch, RoutingPolicy(tap_policy=tap))
            pruned += sum(a.route.n_links - b.route.n_links for a, b in zip(natural, batched))
        # Extra-stage fan-out under final taps is redundant: pruning bit.
        assert pruned > 0

    def test_engine_parameter_is_gone(self):
        net = build("omega", 16)
        with pytest.raises(TypeError):
            route_batch(net, [Conference.of([0, 1])], engine="legacy")

    def test_empty_batch(self):
        net = build("omega", 16)
        assert route_batch(net, []) == []


class TestPackedLayout:
    """Batches aimed at the bit-sliced layout: member slots packed into
    shared 64-bit words, conference bits spread over several backward
    words, cells shared by overlapping conferences, dead rows at the
    first and last level."""

    def test_slots_never_straddle_a_word(self):
        sizes = [63, 2, 40, 30, 63, 1, 33, 31, 62, 2, 7, 64, 3, 65, 5, 128, 200, 1]
        words, shifts = _slots(sizes)
        assert (words[0], shifts[0]) == (0, 0)
        for m, shift in zip(sizes, shifts):
            # A slot of at most 64 members fits its word; a wider one
            # starts a fresh word.
            assert shift + m <= 64 or shift == 0
        # First-fit in batch order: each slot starts where the previous
        # one ended, or opens the next word when it would not fit.
        for i in range(1, len(sizes)):
            end = words[i - 1] * 64 + shifts[i - 1] + sizes[i - 1]
            if end % 64 + sizes[i] <= 64 or end % 64 == 0:
                assert (words[i], shifts[i]) == divmod(end, 64)
            else:
                assert (words[i], shifts[i]) == (end // 64 + 1, 0)
        # 65 members take two words and the next slot packs into the
        # second; 128 take exactly two; 200 take four, the last one
        # shared with the 1-member slot after them.
        assert (words[14] - words[13], shifts[14]) == (1, 1)
        assert (words[16] - words[15], shifts[16]) == (2, 0)
        assert (words[17] - words[16], shifts[17]) == (3, 200 - 192)

    @pytest.mark.parametrize("tap", ["earliest", "final"])
    def test_mixed_sizes_up_to_the_kernel_bound(self, tap):
        net = build("omega", 128)
        rng = ensure_rng(11)
        sizes = [63, 2, 40, 30, 63, 1, 33, 31, 62, 2, 7, 64]
        batch = [
            Conference.of((int(m) for m in rng.choice(128, size=k, replace=False)), cid)
            for cid, k in enumerate(sizes)
        ]
        words, _ = _slots([len(c.members) for c in batch])
        assert words[-1] >= 5  # slots really spill across words
        policy = RoutingPolicy(tap_policy=tap)
        assert_outcomes_identical(
            route_batch(net, batch, policy), sequential_outcomes(net, batch, policy)
        )

    @pytest.mark.parametrize("topology", ["indirect-binary-cube", "benes-cube"])
    def test_more_than_64_conferences_in_one_chunk(self, topology):
        net = build(topology, 64)
        batch = random_batch(64, ensure_rng(21), size=150, max_members=12)
        assert_outcomes_identical(route_batch(net, batch), sequential_outcomes(net, batch))

    def test_duplicate_and_overlapping_conferences(self):
        net = build("baseline", 32)
        base = random_batch(32, ensure_rng(4), size=20, max_members=9)
        twins = [Conference.of(c.members, c.conference_id) for c in base[:5]]
        renamed = [Conference.of(c.members, 100 + i) for i, c in enumerate(base[5:10])]
        shared = [Conference.of([0, 1, 2, 3], 200), Conference.of([0, 1, 2, 3, 4], 201)]
        batch = base + twins + renamed + shared + shared
        assert_outcomes_identical(route_batch(net, batch), sequential_outcomes(net, batch))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("tap", ["earliest", "final"])
    def test_faults_at_the_first_and_last_level(self, topology, tap):
        net = build(topology, 16)
        last = net.n_stages
        faults = frozenset({(0, 3), (0, 9), (last, 5), (last, 12), (last, 3)})
        batch = random_batch(16, ensure_rng(8), size=40)
        batch.append(Conference.of([3, 4], 99))  # a dead injection
        policy = RoutingPolicy(tap_policy=tap)
        batched = route_batch(net, batch, policy, faults=faults)
        assert_outcomes_identical(
            batched, sequential_outcomes(net, batch, policy, faults=faults)
        )
        assert not batched[-1].ok

    def test_radix_four_network(self):
        net = radix_delta(64, 4)
        batch = random_batch(64, ensure_rng(2), size=30, max_members=10)
        faults = frozenset({(1, 7), (2, 40), (0, 5)})
        assert_outcomes_identical(
            route_batch(net, batch, faults=faults),
            sequential_outcomes(net, batch, faults=faults),
        )


class TestWideSlots:
    """Conferences of more than 64 members: their slot starts a fresh
    word and spans up to four, between small slots packed around them."""

    SIZES = (3, 64, 5, 65, 2, 128, 7, 200, 1, 40)

    def batch(self, seed):
        rng = ensure_rng(seed)
        return [
            Conference.of((int(m) for m in rng.choice(256, size=k, replace=False)), cid)
            for cid, k in enumerate(self.SIZES)
        ]

    def spare_faults(self, net, batch):
        """Dead injections and final-stage links of ports no conference
        uses: zeroed rows in every word, off every route."""
        used = set().union(*(c.member_set for c in batch))
        spare = [p for p in range(net.n_ports) if p not in used]
        return frozenset({(0, spare[0]), (net.n_stages, spare[1]), (net.n_stages, spare[2])})

    @pytest.mark.parametrize("topology", ["omega", "indirect-binary-cube"])
    @pytest.mark.parametrize("tap", ["earliest", "final"])
    def test_wide_slots_under_faults(self, topology, tap):
        net = build(topology, 256)
        policy = RoutingPolicy(tap_policy=tap)
        batch = self.batch(1)
        words, shifts = _slots(list(self.SIZES))
        assert (shifts[7] + 200 + 63) >> 6 == 4 and words[-1] > words[7]
        rng = ensure_rng(2)
        wide = set()
        for faults in (
            frozenset(),
            self.spare_faults(net, batch),
            *(
                frozenset(
                    (int(rng.integers(0, net.n_stages + 1)), int(rng.integers(net.n_ports)))
                    for _ in range(n_faults)
                )
                for n_faults in (3, 12)
            ),
        ):
            batched = route_batch(net, batch, policy, faults=faults)
            assert_outcomes_identical(
                batched, sequential_outcomes(net, batch, policy, faults=faults)
            )
            wide.update(
                (bool(faults), o.ok) for o in batched if len(o.conference.members) > 64
            )
        # Wide conferences were routed under faults and took the error path.
        assert {(True, True), (True, False)} <= wide

    @pytest.mark.parametrize("topology", ["omega", "indirect-binary-cube"])
    @pytest.mark.parametrize("tap", ["earliest", "final"])
    def test_wide_slots_under_an_overlay(self, topology, tap):
        net = build(topology, 256)
        policy = RoutingPolicy(tap_policy=tap)
        batch = self.batch(3)
        faults = self.spare_faults(net, batch)
        overlays = []
        for conf, outcome in zip(batch, route_batch(net, batch, policy, faults=faults)):
            kind = conf.conference_id % 3
            if kind == 0 and outcome.ok:
                links = sorted(outcome.route.links)
                overlays.append(links[len(links) // 2 :: 7])
            elif kind == 1:
                overlays.append([(0, conf.members[-1])])  # a dead injection
            else:
                overlays.append([])
        got = _route_batch(net, batch, policy, faults, overlays)
        for conf, points, outcome in zip(batch, overlays, got):
            want = sequential_outcomes(net, [conf], policy, faults | frozenset(points))
            assert_outcomes_identical([outcome], want)
        # 65 members lose a route link, 128 keep theirs, 200 lose an injection.
        assert [o.ok for o in got if len(o.conference.members) > 64] == [False, True, False]


class TestConflictEquality:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", [0, 9])
    def test_columnar_report_equals_counter_walk(self, topology, seed):
        net = build(topology, 16)
        workload = uniform_partition(16, load=0.9, seed=seed)
        routes = [o.unwrap() for o in route_batch(net, list(workload))]
        columnar = analyze_conflicts_columnar(routes, net.n_stages, net.n_ports)
        reference = counter_walk_report(routes, n_stages=net.n_stages)
        assert columnar == reference  # frozen dataclass: field-for-field

    @pytest.mark.parametrize("seed", [0, 9])
    def test_analyze_conflicts_is_the_columnar_report(self, seed):
        net = build("omega", 16)
        workload = uniform_partition(16, load=0.9, seed=seed)
        routes = [o.unwrap() for o in route_batch(net, list(workload))]
        assert analyze_conflicts(routes) == counter_walk_report(routes)

    def test_empty_routes_need_explicit_stage_count(self):
        with pytest.raises(ValueError):
            analyze_conflicts_columnar([])
        with pytest.raises(ValueError):
            analyze_conflicts([])
        report = analyze_conflicts_columnar([], n_stages=4, n_rows=16)
        assert report.max_multiplicity == 0
        assert report.worst_link is None


class TestAdmissionBatchDifferential:
    def controller(self):
        return AdmissionController(
            ConferenceNetwork.build("indirect-binary-cube", 16, dilation=2)
        )

    def offered(self, seed=0):
        rng = ensure_rng(seed)
        offered = random_batch(16, rng, size=12)
        offered.append(Conference.of([0, 1], offered[0].conference_id))  # dup id
        offered.append(Conference.of(offered[1].members, 90))  # port clash twin
        offered.append(Conference.of([5, 77], 91))  # out of range
        return offered

    @pytest.mark.parametrize("seed", [0, 4])
    def test_batch_replays_sequential_decisions(self, seed):
        offered = self.offered(seed)
        sequential = self.controller()
        expected = []
        for conf in offered:
            try:
                expected.append(("admitted", repr(sequential.try_join(conf))))
            except AdmissionDenied as denial:
                expected.append(("denied", denial.reason, denial.detail))
            except ValueError as exc:
                expected.append(("error", type(exc).__name__, exc.args))

        # The batched arm: one columnar routing pass up front, then the
        # ledger books each precomputed route in offer order.
        batched = self.controller()
        routed = route_batch(batched.network.topology, offered, batched.network.policy)
        got = []
        for attempt in routed:
            try:
                got.append(("admitted", repr(batched.admit_route(attempt.unwrap()))))
            except AdmissionDenied as denial:
                got.append(("denied", denial.reason, denial.detail))
            except ValueError as exc:
                got.append(("error", type(exc).__name__, exc.args))
        assert got == expected
        assert batched.live_conferences == sequential.live_conferences
        for cid in batched.live_conferences:
            assert repr(batched.route_of(cid)) == repr(sequential.route_of(cid))


class TestHealingBatchDifferential:
    def scenario(self, batched=True):
        """A full fault/repair drill; returns every observable artifact."""
        network = ConferenceNetwork.build("extra-stage-cube", 16, dilation=16)
        healing = SelfHealingController(network, rng=0)
        loop = EventLoop()
        log = []
        offered = random_batch(16, ensure_rng(6), size=10)
        if batched:
            # FabricService's admission pass: prime the whole batch in one
            # columnar call, then admit request by request.
            healing.prime_batch(offered, include_healthy=True)
        verdicts = []
        for conf in offered:
            try:
                healing.try_join(conf)
                verdicts.append(("admitted", conf.conference_id, None))
            except AdmissionDenied as denial:
                verdicts.append(("lost", conf.conference_id, denial.reason))
        log.append(verdicts)
        for point in [(1, 0), (2, 5), (3, 11)]:
            healing.apply_fault(loop, point)
            log.append(sorted(healing.degraded_conferences))
        for point in [(2, 5), (1, 0)]:
            healing.apply_repair(loop, point)
            log.append(sorted(healing.degraded_conferences))
        routes = {
            cid: repr(healing.route_of(cid)) for cid in healing.live_conferences
        }
        return log, routes

    def test_drill_is_batching_invariant(self):
        assert self.scenario(batched=True) == self.scenario(batched=False)

    def test_batch_engine_parameter_is_gone(self):
        network = ConferenceNetwork.build("omega", 16)
        with pytest.raises(TypeError):
            SelfHealingController(network, batch_engine="bitset")


class TestNetworkFacade:
    def test_route_batch_and_route_set_match_the_reference_walk(self):
        net = ConferenceNetwork.build("baseline", 16, dilation=16)
        groups = [[0, 3], [4, 5, 6], [8, 12, 13]]
        expected = [
            repr(route_conference_sequential(net.topology, Conference.of(g, cid)))
            for cid, g in enumerate(groups)
        ]
        assert [repr(r) for r in net.route_batch(groups)] == expected
        assert [repr(r) for r in net.route_set(groups)] == expected

    def test_route_batch_raises_first_sequential_error(self):
        net = ConferenceNetwork.build("omega", 16)
        with pytest.raises(ValueError):
            net.route_batch([[0, 1], [2, 99]])
