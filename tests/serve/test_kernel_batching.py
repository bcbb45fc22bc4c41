"""Kernel-call counts: the serving path routes in batches, not one by one.

Every bit-sliced kernel call (one chunk of a ``route_batch``) is counted
by wrapping ``repro.core.batch._kernel``.  A re-protect plans every live
conference's F backups through the fault overlay in ``ceil(K*F/chunk)``
kernel calls, and a tick whose batch holds first resizes of distinct
sessions routes all of them in its prime pass: with no binding pins,
the churn engine and the fault-free reference routes consume primed
routes and call the kernel no more.
"""

import math

import pytest

from repro.core import batch as batch_mod
from repro.core.conference import Conference
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.serve.service import FabricService
from repro.sim.engine import EventLoop
from repro.sim.faults import FaultTransition

pytestmark = pytest.mark.tier1

N_PORTS = 16


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record, per kernel call, whether it ran inside ``prime_batch``."""
    calls: list[bool] = []
    priming = []
    kernel = batch_mod._kernel
    prime = SelfHealingController.prime_batch

    def counted(*args):
        calls.append(bool(priming))
        return kernel(*args)

    def primed(self, *args, **kwargs):
        priming.append(True)
        try:
            return prime(self, *args, **kwargs)
        finally:
            priming.pop()

    monkeypatch.setattr(batch_mod, "_kernel", counted)
    monkeypatch.setattr(SelfHealingController, "prime_batch", primed)
    return calls


@pytest.mark.parametrize("protection", (1, 2, 3))
def test_reprotect_is_one_overlay_batch(protection, kernel_calls, monkeypatch):
    network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
    ctrl = SelfHealingController(network, protection=protection)
    groups = ([0, 5, 9], [1, 12], [2, 6, 10, 14], [3, 7], [4, 11, 15])
    for cid, members in enumerate(groups):
        ctrl.try_join(Conference.of(members, cid))
    used = set().union(*(ctrl.route_of(cid).points for cid in range(len(groups))))
    idle = next(
        (t, r) for t in range(1, network.n_stages + 1) for r in range(N_PORTS)
        if (t, r) not in used
    )
    chunk = 3
    monkeypatch.setattr(batch_mod, "_MAX_CELLS", chunk * N_PORTS)
    kernel_calls.clear()
    # A fault no live route crosses: nothing heals, every plan is recut.
    ctrl.apply_fault(EventLoop(), idle)
    backups = len(groups) * protection
    assert len(ctrl.plan_store) == backups
    assert len(kernel_calls) == math.ceil(backups / chunk)


@pytest.mark.parametrize("with_fault", (False, True))
def test_first_resizes_route_only_in_the_prime_pass(with_fault, kernel_calls):
    network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
    svc = FabricService(network, rng=0)
    groups = ([0, 5], [1, 8, 12], [2, 6], [3, 7, 11], [4, 9])
    sessions = [svc.submit_open(members) for members in groups]
    svc.tick()
    if with_fault:
        healing = svc.healing
        used = set().union(*(healing.route_of(cid).points for cid in healing.live_conferences))
        idle = next(
            (t, r) for t in range(1, network.n_stages + 1) for r in range(N_PORTS)
            if (t, r) not in used
        )
        svc.attach_faults([FaultTransition(svc.now + 0.5, idle, True)])
        svc.tick()
        assert svc.healing.current_faults == {idle}
    responses = []
    joins = {sessions[0]: 13, sessions[2]: 14, sessions[4]: 15}
    for sid, port in joins.items():
        svc.submit_join(sid, (port,), on_complete=responses.append)
    for sid in (sessions[1], sessions[3]):
        leaver = svc.sessions.require(sid).members[0]
        svc.submit_leave(sid, (leaver,), on_complete=responses.append)
    kernel_calls.clear()
    svc.tick()
    assert [r.status for r in responses] == ["applied"] * 5
    # One prime call: one kernel call per fault set (current, and the
    # fault-free reference set under a live fault).
    assert kernel_calls == [True] * (2 if with_fault else 1)
