"""The paper's core contribution: conference routing and conflict analysis."""

from repro.core.admission import (
    AdmissionController,
    AdmissionDenied,
    BuddyAllocator,
    place_aligned,
)
from repro.core.churn import (
    ChurnPolicy,
    ChurnResult,
    apply_churn,
    extend_route,
    prune_route,
)
from repro.core.conference import Conference, ConferenceSet
from repro.core.conflict import ConflictReport, analyze_conflicts, link_loads
from repro.core.groupcast import GroupConnection, GroupRoute, route_group
from repro.core.healing import RetryPolicy, SelfHealingController
from repro.core.network import ConferenceNetwork, RealizationResult
from repro.core.routing import (
    Route,
    RoutingPolicy,
    TapPolicy,
    UnroutableError,
    delivered_members,
    route_conference,
)

__all__ = [
    "AdmissionController",
    "AdmissionDenied",
    "BuddyAllocator",
    "ChurnPolicy",
    "ChurnResult",
    "Conference",
    "ConferenceNetwork",
    "ConferenceSet",
    "ConflictReport",
    "GroupConnection",
    "GroupRoute",
    "RealizationResult",
    "RetryPolicy",
    "Route",
    "RoutingPolicy",
    "SelfHealingController",
    "TapPolicy",
    "UnroutableError",
    "analyze_conflicts",
    "apply_churn",
    "delivered_members",
    "extend_route",
    "prune_route",
    "link_loads",
    "place_aligned",
    "route_conference",
    "route_group",
]
