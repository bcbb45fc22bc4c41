"""Kernel-call counts: the serving path routes in batches, not one by one.

Every bit-sliced kernel call (one chunk of a ``route_batch``) is counted
by wrapping ``repro.core.batch._kernel``.  Backup planning makes one
``BackupPlanStore.protect`` call per admission, per resize and per
re-protect, and each is one overlay batch: a re-protect plans every
live conference's F backups in ``ceil(K*F/chunk)`` kernel calls.  A
tick whose batch holds first resizes of distinct sessions routes all
of them in its prime pass: with no binding pins, the churn engine and
the fault-free reference routes consume primed routes and call the
kernel no more.
"""

import math

import pytest

from repro.core import batch as batch_mod
from repro.core.conference import Conference
from repro.core.healing import SelfHealingController
from repro.core.network import ConferenceNetwork
from repro.protect.plans import BackupPlanStore
from repro.serve.service import FabricService
from repro.sim.engine import EventLoop
from repro.sim.faults import FaultTransition

pytestmark = pytest.mark.tier1

N_PORTS = 16


def idle_link(network, healing):
    """The first link point no live route of ``healing`` crosses."""
    used = set().union(*(healing.route_of(cid).points for cid in healing.live_conferences))
    return next(
        (t, r) for t in range(1, network.n_stages + 1) for r in range(N_PORTS)
        if (t, r) not in used
    )


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
    idle = idle_link(network, ctrl)
    chunk = 3
    monkeypatch.setattr(batch_mod, "_MAX_CELLS", chunk * N_PORTS)
    kernel_calls.clear()
    # A fault no live route crosses: nothing heals, every plan is recut.
    ctrl.apply_fault(EventLoop(), idle)
    backups = len(groups) * protection
    assert len(ctrl.plan_store) == backups
    assert len(kernel_calls) == math.ceil(backups / chunk)


def test_one_plan_call_per_admission_resize_and_reprotect(kernel_calls, monkeypatch):
    planned: list[tuple[list[int], int]] = []  # (cids, kernel calls) per protect
    protect = BackupPlanStore.protect

    def counted(self, routes, *args, **kwargs):
        routes = list(routes)
        before = len(kernel_calls)
        stored = protect(self, routes, *args, **kwargs)
        cids = [route.conference.conference_id for route in routes]
        planned.append((cids, len(kernel_calls) - before))
        return stored

    monkeypatch.setattr(BackupPlanStore, "protect", counted)
    network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
    ctrl = SelfHealingController(network, protection=2)
    ctrl.try_join(Conference.of([0, 5, 9], 0))
    ctrl.try_join(Conference.of([1, 3, 12], 1))
    assert planned == [([0], 1), ([1], 1)]
    planned.clear()
    ctrl.resize(0, (0, 5, 9, 13))
    ctrl.resize(1, (1, 12))
    assert planned == [([0], 1), ([1], 1)]
    idle = idle_link(network, ctrl)
    planned.clear()
    loop = EventLoop()
    ctrl.apply_fault(loop, idle)
    ctrl.apply_repair(loop, idle)
    assert planned == [([0, 1], 1), ([0, 1], 1)]


@pytest.mark.parametrize("with_fault", (False, True))
def test_first_resizes_route_only_in_the_prime_pass(with_fault, kernel_calls):
    network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
    svc = FabricService(network, rng=0)
    groups = ([0, 5], [1, 8, 12], [2, 6], [3, 7, 11], [4, 9])
    sessions = [svc.submit_open(members) for members in groups]
    svc.tick()
    if with_fault:
        idle = idle_link(network, svc.healing)
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
