"""Snapshot tests pinning the public API surface.

``public_api_manifest.txt`` is the reviewed record of what the library
promises; ``repro.api.__all__`` must match it exactly.  Growing the
surface is a deliberate act: update the manifest AND ``docs/api.md`` in
the same change (CI's ``public-api`` job runs this file plus
``tools/check_public_api.py`` to enforce the pairing).
"""

import inspect
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import api

pytestmark = pytest.mark.tier1

REPO = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).with_name("public_api_manifest.txt")


class TestManifest:
    def test_surface_matches_the_manifest(self):
        recorded = MANIFEST.read_text().split()
        assert sorted(api.__all__) == recorded, (
            "repro.api.__all__ drifted from tests/api/public_api_manifest.txt; "
            "if the change is intentional, update the manifest and docs/api.md"
        )

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_every_name_resolves_through_api_and_repro(self):
        for name in api.__all__:
            assert getattr(api, name) is getattr(repro, name)

    def test_package_all_is_api_all_plus_version(self):
        assert set(repro.__all__) == {*api.__all__, "__version__"}

    def test_docs_cover_every_name(self):
        docs = (REPO / "docs" / "api.md").read_text()
        missing = [name for name in api.__all__ if f"`{name}`" not in docs]
        assert not missing, f"docs/api.md does not mention: {missing}"


class TestResultContract:
    def test_conformers(self):
        from repro.core.healing import SubmitOutcome
        from repro.core.network import ConferenceNetwork
        from repro.serve.bench import run_serve_bench
        from repro.serve.protocol import ServiceResponse

        net = ConferenceNetwork.build("indirect-binary-cube", 16, dilation=8)
        realization = net.realize([[0, 1, 2]])
        conformers = [
            realization,
            SubmitOutcome("admitted", 0),
            SubmitOutcome("lost", 1, reason="ports"),
            ServiceResponse(ok=True, status="admitted", kind="open", request_id=0),
            run_serve_bench(16, conferences=5, seed=0),
        ]
        for value in conformers:
            assert isinstance(value, api.Result), type(value).__name__
            payload = value.as_dict()
            assert "kind" in payload and "ok" in payload
            if value.ok:
                assert value.reason is None

    def test_shared_serializer_stamps_the_envelope(self):
        from repro.core.healing import SubmitOutcome
        from repro.report.serialize import result_to_dict

        payload = result_to_dict(SubmitOutcome("lost", 3, reason="capacity"))
        assert payload["kind"] == "submit_outcome"
        assert payload["ok"] is False
        assert payload["reason"] == "capacity"
        assert payload["schema"] == 1

    def test_serializer_rejects_non_results(self):
        from repro.report.serialize import result_to_dict

        with pytest.raises(TypeError, match="result contract"):
            result_to_dict(object())


class TestConstructorConvention:
    # Satellite of the 1.1 redesign: every controller-level constructor
    # spells its collaborators the same way, keyword-only.

    @pytest.mark.parametrize(
        "cls, expected",
        [
            (api.AdmissionController, ["tracer"]),
            (api.SelfHealingController, ["retry", "rng", "tracer", "metrics"]),
            (api.FabricService, ["retry", "rng", "tracer", "metrics"]),
            (api.ClusterService, ["retry", "rng", "tracer", "metrics"]),
        ],
    )
    def test_keyword_only_collaborators(self, cls, expected):
        params = inspect.signature(cls.__init__).parameters
        for name in expected:
            assert name in params, f"{cls.__name__} lacks {name}="
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    # Satellite of the 1.6 redesign: every churn entry point takes its
    # configuration (policy, fallback, limits) keyword-only.
    @pytest.mark.parametrize(
        "fn, expected",
        [
            (api.extend_route, ["policy", "fallback", "max_taps_moved", "drift_limit"]),
            (api.prune_route, ["policy", "fallback", "max_taps_moved", "drift_limit"]),
            (api.join_member, ["policy", "fallback", "max_taps_moved", "drift_limit"]),
            (api.leave_member, ["policy", "fallback", "max_taps_moved", "drift_limit"]),
            (api.apply_churn, ["policy", "faults"]),
        ],
    )
    def test_churn_configuration_is_keyword_only(self, fn, expected):
        params = inspect.signature(fn).parameters
        for name in expected:
            assert name in params, f"{fn.__name__} lacks {name}="
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY


def _network():
    return api.ConferenceNetwork.build("indirect-binary-cube", 16, dilation=4)


def _churn_inputs():
    net = api.build("indirect-binary-cube", 16)
    return net, api.route_conference(net, api.Conference.of([0, 1, 2])), [0, 1, 2, 3]


#: Owners of the keywords the 2.0 API dropped, built with everything else
#: at its default.
_BUILDERS = {
    "healing": lambda **kw: api.SelfHealingController(_network(), **kw),
    "fabric": lambda **kw: api.FabricService(_network(), **kw),
    "cluster": lambda **kw: api.ClusterService(lambda _id: _network(), shards=1, **kw),
    "serve_bench": lambda **kw: api.run_serve_bench(16, conferences=1, **kw),
    "cluster_bench": lambda **kw: api.run_cluster_bench(conferences=1, **kw),
}

REMOVED_KEYWORDS = [
    ("healing", "seed"),
    ("healing", "stats"),
    ("healing", "plan_store"),
    ("healing", "route_cache"),
    ("fabric", "route_cache"),
    ("fabric", "tick_interval"),
    ("cluster", "route_cache"),
    ("cluster", "tick_interval"),
    ("cluster", "shard_ids"),
    ("cluster", "weights"),
    ("serve_bench", "route_cache"),
    ("serve_bench", "fault_horizon"),
    ("serve_bench", "max_ticks"),
    ("cluster_bench", "fault_horizon"),
    ("cluster_bench", "max_ticks"),
]


class TestRemovedIn20:
    """Everything the 2.0 and 3.0 APIs dropped now fails loudly (see docs/api.md)."""

    @pytest.mark.parametrize(
        "owner, keyword", REMOVED_KEYWORDS, ids=[f"{o}-{k}" for o, k in REMOVED_KEYWORDS]
    )
    def test_removed_keyword(self, owner, keyword):
        with pytest.raises(TypeError, match=keyword):
            _BUILDERS[owner](**{keyword: None})

    def test_apply_churn_policy_is_keyword_only(self):
        net, route, members = _churn_inputs()
        with pytest.raises(TypeError):
            api.apply_churn(net, route, members, api.RoutingPolicy())
        result = api.apply_churn(net, route, members, policy=api.RoutingPolicy())
        assert result.mode == "full-reroute"

    @pytest.mark.parametrize(
        "name",
        ["BuddyAllocator", "place_aligned", "GroupConnection", "route_group", "RouteCache"],
    )
    def test_legacy_top_level_names_are_gone(self, name):
        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)

    @pytest.mark.parametrize("name", ["RouteCache", "CacheStats", "shared_route_cache"])
    def test_route_cache_is_gone_from_the_parallel_package(self, name):
        import repro.parallel
        import repro.parallel.cache

        assert not hasattr(repro.parallel, name)
        assert not hasattr(repro.parallel.cache, name)

    @pytest.mark.parametrize(
        "owner, name",
        [
            (api.AdmissionController, "try_join_batch"),
            (api.SelfHealingController, "try_join_batch"),
            (api.FabricService, "tick_interval"),
            (api.ClusterService, "tick_interval"),
        ],
    )
    def test_removed_attribute_is_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_protect_takes_routes_and_plans_through_the_kernel(self):
        params = list(inspect.signature(api.BackupPlanStore.protect).parameters)
        assert params == ["self", "routes", "faults", "ranked"]

    def test_versions(self):
        assert api.API_VERSION == "4.0"
        assert repro.__version__ == "4.0.0"


class TestDeprecations:
    def test_stable_names_do_not_warn(self):
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as log:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro import ConferenceNetwork, FabricService, build\n"
            "dep = [w for w in log if issubclass(w.category, DeprecationWarning)]\n"
            "assert not dep, [str(w.message) for w in dep]\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(REPO / "src")},
        )

    def test_apply_churn_keyword_policy_does_not_warn(self):
        net, route, members = _churn_inputs()
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            api.apply_churn(net, route, members, policy=api.RoutingPolicy())
        assert not [w for w in log if issubclass(w.category, DeprecationWarning)]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_name
