"""The randomized search routes each distinct pair at most once per worker.

Trials of the search re-draw the same port pairs over and over; the
worker's pair-links dict (sorted members -> links) is what keeps them
from being routed again.  This counts the conferences handed to the
batch kernel on the serial engine, where the trials run in-process.
"""

from collections import Counter

import pytest

from repro.analysis import worstcase
from repro.parallel import experiments
from repro.parallel.experiments import search_trials

pytestmark = [pytest.mark.tier1, pytest.mark.parallel]


def test_serial_search_routes_each_member_set_at_most_once(monkeypatch):
    routed: Counter = Counter()
    kernel = worstcase.route_batch

    def counting(net, conferences, *args, **kwargs):
        conferences = list(conferences)
        routed.update(conf.members for conf in conferences)
        return kernel(net, conferences, *args, **kwargs)

    monkeypatch.setattr(worstcase, "route_batch", counting)
    experiments._shared_pair_links.cache_clear()
    cold = search_trials("extra-stage-cube", 16, trials=20, pool_size=8, seed=5)

    assert routed, "the search routed nothing"
    assert max(routed.values()) == 1, routed.most_common(3)
    # A warm worker answers a rerun from its dict alone, with the same records.
    first_pass = sum(routed.values())
    assert search_trials("extra-stage-cube", 16, trials=20, pool_size=8, seed=5) == cold
    assert sum(routed.values()) == first_pass
