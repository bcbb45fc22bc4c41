"""Property tests for the columnar routing core.

Three invariants carry the kernel's design and are cheap to state as
hypothesis properties:

* the stage-major occupancy matrix agrees entry-for-entry with the
  legacy per-link ``Counter`` walk, for any batch the kernel routes;
* batching is *pure*: ``route_batch`` of any permutation of a batch
  produces, conference for conference, exactly the routes sequential
  ``route_conference`` calls produce — order of submission never leaks
  into a result;
* occupancy words round-trip losslessly through the ``util.bits``
  pack/unpack pair, so the compact fingerprint loses no link.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import occupancy_words, route_batch, stage_occupancy
from repro.core.conference import Conference
from repro.core.conflict import link_loads
from repro.core.reference import route_conference_sequential
from repro.core.routing import RoutingPolicy
from repro.topology.builders import build
from repro.util.bits import pack_rows, unpack_rows

pytestmark = pytest.mark.tier1

N_PORTS = 16
NETS = {name: build(name, N_PORTS) for name in ("omega", "indirect-binary-cube")}

members_sets = st.sets(
    st.integers(min_value=0, max_value=N_PORTS - 1), min_size=2, max_size=6
)
batches = st.lists(members_sets, min_size=1, max_size=12).map(
    lambda groups: [Conference.of(sorted(g), cid) for cid, g in enumerate(groups)]
)
topologies = st.sampled_from(sorted(NETS))
taps = st.sampled_from(["earliest", "final"])


class TestOccupancyAgreesWithLinkCounting:
    @settings(max_examples=60, deadline=None)
    @given(batch=batches, topology=topologies)
    def test_matrix_matches_counter(self, batch, topology):
        net = NETS[topology]
        routes = [o.unwrap() for o in route_batch(net, batch)]
        loads = stage_occupancy(routes, net.n_stages, net.n_ports)
        counter = link_loads(routes)
        for t in range(net.n_stages + 1):
            for r in range(net.n_ports):
                assert loads[t, r] == counter.get((t, r), 0)
        # Level 0 is injections, never links.
        assert not loads[0].any()

    @settings(max_examples=40, deadline=None)
    @given(batch=batches, topology=topologies)
    def test_words_fingerprint_exactly_the_used_links(self, batch, topology):
        net = NETS[topology]
        routes = [o.unwrap() for o in route_batch(net, batch)]
        words = occupancy_words(stage_occupancy(routes, net.n_stages, net.n_ports))
        used = {link for route in routes for link in route.links}
        assert {
            (t, r) for t, word in enumerate(words) for r in unpack_rows(word)
        } == used


class TestBatchingIsPure:
    @settings(max_examples=50, deadline=None)
    @given(
        batch=batches,
        topology=topologies,
        tap=taps,
        shuffled=st.randoms(use_true_random=False),
    )
    def test_any_permutation_matches_sequential(self, batch, topology, tap, shuffled):
        net = NETS[topology]
        policy = RoutingPolicy(tap_policy=tap)
        shuffled.shuffle(batch)
        outcomes = route_batch(net, batch, policy)
        for conf, outcome in zip(batch, outcomes):
            assert outcome.conference is conf
            assert repr(outcome.unwrap()) == repr(
                route_conference_sequential(net, conf, policy)
            )


class TestWordsRoundTrip:
    @settings(max_examples=100)
    @given(rows=st.sets(st.integers(min_value=0, max_value=200)))
    def test_pack_unpack_lossless(self, rows):
        assert set(unpack_rows(pack_rows(rows))) == rows

    @settings(max_examples=100)
    @given(word=st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_unpack_pack_lossless(self, word):
        assert pack_rows(unpack_rows(word)) == word

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            pack_rows([-1])
        with pytest.raises(ValueError):
            unpack_rows(-5)
