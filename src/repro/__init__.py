"""repro — multistage conference switching networks for group communication.

A from-scratch reproduction of Yang & Wang, *A class of multistage
conference switching networks for group communication* (ICPP 2002):
multistage-network substrates (baseline, omega, indirect binary cube),
fan-in/fan-out switch fabrics with the per-stage output-multiplexer
relay, conference self-routing, routing-conflict multiplicity analysis,
hardware cost models, a dynamic-traffic simulator, and an online
conference service (:mod:`repro.serve`).

Quickstart::

    from repro import ConferenceNetwork

    net = ConferenceNetwork.build("indirect-binary-cube", 64, dilation=8)
    result = net.realize([[3, 17, 40], [5, 6, 7, 21]])
    print(result.conflicts.describe())
    assert result.ok  # every member heard the full mix

The supported surface is defined by :mod:`repro.api`; every name listed
there resolves through this package (``from repro import X``).  Anything
else is imported from its home module.

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
reproduced evaluation, and docs/api.md for the stability policy.
"""

from repro import api

__version__ = "6.0.0"

__all__ = sorted([*api.__all__, "__version__"])


def __getattr__(name: str):
    # PEP 562: resolve the stable surface through repro.api, caching the
    # value in globals() so this body runs at most once per name.
    if name in api.__all__:
        value = getattr(api, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted({*__all__, "api"})
