"""Stateful property tests (hypothesis RuleBasedStateMachine).

Long random interleavings of operations against simple reference
models: the buddy allocator against a set-based overlap checker, and
the admission controller (joins, leaves, route swaps and single-port
churn) against recomputed-from-scratch link loads.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.admission import AdmissionController, AdmissionDenied, BuddyAllocator
from repro.core.churn import extend_route, prune_route
from repro.core.conference import Conference
from repro.core.network import ConferenceNetwork


class BuddyMachine(RuleBasedStateMachine):
    """The buddy allocator never overlaps, never leaks, always coalesces."""

    def __init__(self):
        super().__init__()
        self.alloc = BuddyAllocator(64)
        self.live: dict[int, range] = {}

    @rule(size=st.integers(1, 32))
    def allocate(self, size):
        try:
            block = self.alloc.allocate(size)
        except MemoryError:
            # Denial is only legal when no free block is big enough.
            need = max(0, (size - 1).bit_length())
            assert self.alloc.largest_free_exponent() < need
            return
        for other in self.live.values():
            assert block.stop <= other.start or other.stop <= block.start
        self.live[block.start] = block

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        base = data.draw(st.sampled_from(sorted(self.live)))
        self.alloc.release(base)
        del self.live[base]

    @invariant()
    def capacity_accounts_for_block_sizes(self):
        used = sum(len(b) for b in self.live.values())
        assert self.alloc.free_capacity() == 64 - used

    @invariant()
    def empty_means_fully_coalesced(self):
        if not self.live:
            assert self.alloc.largest_free_exponent() == 6


class AdmissionMachine(RuleBasedStateMachine):
    """The admission controller's ledger always equals a from-scratch
    recomputation over the routes it was handed, and capacity is never
    exceeded."""

    def __init__(self):
        super().__init__()
        self.network = ConferenceNetwork.build("indirect-binary-cube", 16, dilation=2)
        self.ctl = AdmissionController(self.network)
        self.next_id = 0
        self.routes: dict = {}  # cid -> the route the ledger should hold

    def _free_ports(self) -> list[int]:
        used = {p for r in self.routes.values() for p in r.conference.members}
        return sorted(set(range(16)) - used)

    @rule(data=st.data())
    def join(self, data):
        free = self._free_ports()
        if len(free) < 2:
            return
        size = data.draw(st.integers(2, min(4, len(free))))
        members = data.draw(
            st.lists(st.sampled_from(free), min_size=size, max_size=size, unique=True)
        )
        conf = Conference.of(members, conference_id=self.next_id)
        self.next_id += 1
        try:
            route = self.ctl.try_join(conf)
        except AdmissionDenied as denial:
            assert denial.reason == "capacity"  # ports were free by construction
            return
        self.routes[conf.conference_id] = route

    @precondition(lambda self: self.routes)
    @rule(data=st.data())
    def leave(self, data):
        cid = data.draw(st.sampled_from(sorted(self.routes)))
        self.ctl.leave(cid)
        del self.routes[cid]

    @precondition(lambda self: self.routes)
    @rule(data=st.data())
    def replace_route(self, data):
        """Swap one member for a free port and swing onto the fresh route."""
        free = self._free_ports()
        if not free:
            return
        cid = data.draw(st.sampled_from(sorted(self.routes)))
        members = list(self.routes[cid].conference.members)
        members.remove(data.draw(st.sampled_from(members)))
        members.append(data.draw(st.sampled_from(free)))
        new = self.network.route(Conference.of(members, conference_id=cid))
        try:
            self.ctl.replace_route(cid, new)
        except AdmissionDenied as denial:
            assert denial.reason == "capacity"
            return
        self.routes[cid] = new

    @precondition(lambda self: self.routes)
    @rule(data=st.data(), grow=st.booleans())
    def churn(self, data, grow):
        """A single-port join or leave applied as a ledger delta."""
        cid = data.draw(st.sampled_from(sorted(self.routes)))
        route = self.routes[cid]
        if grow:
            free = self._free_ports()
            if not free:
                return
            result = extend_route(self.network.topology, route, data.draw(st.sampled_from(free)))
        else:
            if len(route.conference.members) < 2:
                return
            port = data.draw(st.sampled_from(route.conference.members))
            result = prune_route(self.network.topology, route, port)
        try:
            self.ctl.apply_churn(result)
        except AdmissionDenied as denial:
            assert denial.reason == "capacity"
            return
        self.routes[cid] = result.after

    @invariant()
    def ledger_matches_recomputation(self):
        expected = Counter()
        for route in self.routes.values():
            expected.update(route.links)
        # Exactly the recomputed map: the nonzero cells of the dense
        # ledger (cell t * N + r is link (t, r)) equal the recomputed
        # Counter key for key, and no cell anywhere is negative.
        n_rows = self.network.n_ports
        cells = self.ctl._load
        assert cells.shape == ((self.network.n_stages + 1) * n_rows,)
        nonzero = {
            divmod(int(cell), n_rows): int(cells[cell]) for cell in cells.nonzero()[0]
        }
        assert nonzero == dict(expected)
        assert int(cells.min()) >= 0
        assert all(self.ctl.link_load(link) == load for link, load in expected.items())
        stages: dict = {}
        for (level, _row), load in sorted(expected.items()):
            stages.setdefault(level, []).append(load)
        assert self.ctl.stage_loads() == stages
        assert self.ctl.peak_load() == max(expected.values(), default=0)

    @invariant()
    def capacity_never_exceeded(self):
        assert self.ctl.peak_load() <= self.network.dilation

    @invariant()
    def live_sets_agree(self):
        assert set(self.ctl.live_conferences) == set(self.routes)
        for cid, route in self.routes.items():
            assert self.ctl.route_of(cid) is route


TestBuddyMachine = BuddyMachine.TestCase
TestBuddyMachine.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)

TestAdmissionMachine = AdmissionMachine.TestCase
TestAdmissionMachine.settings = settings(max_examples=25, stateful_step_count=25, deadline=None)
