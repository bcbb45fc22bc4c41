#!/usr/bin/env python
"""Fault tolerance and mixed group traffic on conference networks.

Three stories in one script:

1. **Fragility of banyan conference networks, and what fixes it.**
   Kill one inter-stage link under a live conference: the plain cube
   drops it (unique paths!), while the extra-stage cube re-routes
   through the redundant stage — the output-multiplexer relay picking a
   late tap is what makes the redundancy usable.

2. **Self-healing under live faults.**  Links fail and repair as a
   seeded stochastic process while conferences are up; the
   ``SelfHealingController`` walks each affected conference down the
   degradation ladder (hitless tap move -> reroute -> drop+retry) and
   the availability ledger scores the outcome.

3. **Group communication beyond conferences.**  The same fabric carries
   multicasts (one speaker, many listeners) and asymmetric groups (a
   panel talks, an audience listens), and the conflict analysis treats
   mixed traffic uniformly.

Run:  python examples/fault_tolerant_conferencing.py
"""

from repro import (
    Conference,
    ConferenceNetwork,
    RetryPolicy,
    SelfHealingController,
    UnroutableError,
)
from repro.analysis.resilience import critical_points, survivability, random_link_faults
from repro.core.conflict import analyze_conflicts
from repro.core.groupcast import GroupConnection, route_group
from repro.core.routing import route_conference
from repro.sim.engine import EventLoop
from repro.sim.faults import FaultInjector, FaultTransition
from repro.topology.builders import build

N_PORTS = 16


def fault_story() -> None:
    conf = Conference.of([0, 1])
    cube = build("indirect-binary-cube", N_PORTS)
    augmented = build("extra-stage-cube", N_PORTS)

    route = route_conference(cube, conf)
    victim = min(route.links)
    print(f"conference {list(conf.members)} on the plain cube uses links "
          f"{sorted(route.links)}")
    print(f"killing link {victim} ...")
    try:
        route_conference(cube, conf, faults=frozenset({victim}))
        print("  plain cube: survived (unexpected!)")
    except UnroutableError as exc:
        print(f"  plain cube: DROPPED - {exc}")

    rerouted = route_conference(augmented, conf, faults=frozenset({victim}))
    print(f"  extra-stage cube: survived; member taps moved to {rerouted.taps} "
          f"(the redundant stage re-toggles bit 0)")

    print("\nsingle points of failure (relay on):")
    for name in ("indirect-binary-cube", "extra-stage-cube", "benes-cube"):
        crit = critical_points(build(name, N_PORTS), conf)
        print(f"  {name:22s} {len(crit):2d} critical points: {sorted(crit)}")

    print("\nsurvival of a 4-conference population under 4 random dead links:")
    confs = [Conference.of(m, i) for i, m in enumerate([(0, 1), (2, 7), (4, 5, 6), (8, 15)])]
    for name in ("indirect-binary-cube", "extra-stage-cube", "benes-cube"):
        net = build(name, N_PORTS)
        rates = []
        for seed in range(25):
            faults = random_link_faults(build("indirect-binary-cube", N_PORTS), 4, seed=seed)
            rates.append(survivability(net, confs, faults).survival_rate)
        print(f"  {name:22s} mean survival {sum(rates) / len(rates):.0%}")


def healing_story() -> None:
    network = ConferenceNetwork.build("extra-stage-cube", N_PORTS, dilation=N_PORTS)
    healing = SelfHealingController(
        network, retry=RetryPolicy(max_retries=5, base_delay=2.0), rng=7
    )
    confs = [Conference.of(m, i) for i, m in enumerate([(0, 1), (2, 7), (4, 5, 6)])]
    for conf in confs:
        healing.try_join(conf)
    print(f"{len(confs)} conferences up on the extra-stage cube")

    # Script a deterministic timeline: break a link each conference
    # needs, then repair it — fail/repair times chosen by hand so the
    # printout is stable.
    victims = [min(healing.route_of(c.conference_id).links) for c in confs]
    script = sorted(
        [FaultTransition(10.0 + 5 * i, v, failed=True) for i, v in enumerate(victims)]
        + [FaultTransition(60.0 + 5 * i, v, failed=False) for i, v in enumerate(victims)],
        key=lambda t: (t.time, t.point, t.failed),
    )
    injector = FaultInjector(network.topology, script=script)
    injector.subscribe(
        lambda loop, tr: print(
            f"  t={loop.now:5.1f}  link {tr.point} "
            f"{'FAILED' if tr.failed else 'repaired'}"
        )
    )
    healing.attach(injector)

    loop = EventLoop()
    injector.start(loop)
    loop.run(until=100.0)
    healing.finalize(loop.now)

    s = healing.stats
    print(f"healed hitlessly (tap moves): {s.tap_move_events}, "
          f"rerouted: {s.reroutes}, dropped: {s.dropped_total}")
    print(f"availability {s.availability:.4f}, "
          f"degraded fraction {s.degraded_fraction:.4f}, "
          f"still live: {len(healing.live_conferences)}/{len(confs)}")


def group_story() -> None:
    net = build("indirect-binary-cube", N_PORTS)
    lecture = GroupConnection.multicast(0, [4, 5, 6, 7], connection_id=0)
    panel = GroupConnection(senders=(8, 9), receivers=(8, 9, 10, 11, 12), connection_id=1)
    huddle = GroupConnection.conference([13, 14], connection_id=2)

    routes = [route_group(net, g) for g in (lecture, panel, huddle)]
    for g, r in zip((lecture, panel, huddle), routes):
        kind = "conference" if g.is_conference else ("multicast" if g.is_multicast else "group")
        print(f"{kind:10s} senders={list(g.senders)} receivers={list(g.receivers)}: "
              f"{r.n_links} links, depth {r.depth}")
    report = analyze_conflicts(routes, n_stages=net.n_stages)
    print("mixed-traffic conflicts:", report.describe())


if __name__ == "__main__":
    print("=" * 72)
    fault_story()
    print("\n" + "=" * 72)
    healing_story()
    print("\n" + "=" * 72)
    group_story()
