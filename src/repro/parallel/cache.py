"""The per-process network registry of the parallel experiment engine.

A worker of the parallel engine builds each topology once — typically
from the pool initializer — and every trial it executes reuses it.
Experiment code must not mutate the returned network.
"""

from __future__ import annotations

from functools import lru_cache

from repro.topology.builders import build
from repro.topology.network import MultistageNetwork

__all__ = ["shared_network"]


@lru_cache(maxsize=64)
def shared_network(topology: str, n_ports: int) -> MultistageNetwork:
    """The process-wide instance of a registry topology."""
    return build(topology, n_ports)
