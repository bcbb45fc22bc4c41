"""Snapshot tests pinning the public API surface.

``public_api_manifest.txt`` is the reviewed record of what the library
promises; ``repro.api.__all__`` must match it exactly.  Growing the
surface is a deliberate act: update the manifest AND ``docs/api.md`` in
the same change (CI's ``public-api`` job runs this file plus
``tools/check_public_api.py`` to enforce the pairing).
"""

import importlib.util
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


class TestCheckTool:
    """``tools/check_public_api.py`` also fails when a version bump leaves
    the docs or the package version behind."""

    @staticmethod
    def _tool():
        spec = importlib.util.spec_from_file_location(
            "check_public_api", REPO / "tools" / "check_public_api.py"
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def _main(self):
        return self._tool().main()

    def test_passes_at_head(self):
        assert self._main() == 0

    def test_fails_when_the_docs_state_another_version(self, monkeypatch, capsys):
        documented = api.API_VERSION
        monkeypatch.setattr(api, "API_VERSION", "9.0")
        monkeypatch.setattr(repro, "__version__", "9.0.0")
        assert self._main() == 1
        err = capsys.readouterr().err
        assert f"docs/api.md states API {documented}, not 9.0" in err
        assert "not a release" not in err

    def test_fails_when_the_package_is_not_a_release_of_the_api(self, monkeypatch, capsys):
        monkeypatch.setattr(repro, "__version__", "50.0.0")
        assert self._main() == 1
        err = capsys.readouterr().err
        assert "is not a release of API" in err
        assert "docs/api.md" not in err

    def test_fails_when_pyproject_declares_another_version(self, tmp_path, capsys):
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject
        stale = tmp_path / "pyproject.toml"
        stale.write_text(
            pyproject.replace(f'version = "{repro.__version__}"', 'version = "5.0.0"')
        )
        tool = self._tool()
        tool.PYPROJECT = stale
        assert tool.main() == 1
        err = capsys.readouterr().err
        want = f"pyproject.toml declares version 5.0.0, not repro.__version__ {repro.__version__}"
        assert want in err
        assert "not a release" not in err and "docs/api.md" not in err


class TestResultContract:
    def test_conformers(self):
        from repro.core.network import ConferenceNetwork
        from repro.serve.bench import run_serve_bench
        from repro.serve.protocol import ServiceResponse

        net = ConferenceNetwork.build("indirect-binary-cube", 16, dilation=8)
        realization = net.realize([[0, 1, 2]])
        conformers = [
            realization,
            ServiceResponse(ok=True, status="admitted", kind="open", request_id=0),
            ServiceResponse(ok=False, status="rejected", kind="open", request_id=1, reason="ports"),
            run_serve_bench(16, conferences=5, seed=0),
        ]
        for value in conformers:
            assert isinstance(value, api.Result), type(value).__name__
            payload = value.as_dict()
            assert "kind" in payload and "ok" in payload
            if value.ok:
                assert value.reason is None

    def test_shared_serializer_stamps_the_envelope(self):
        from repro.report.serialize import result_to_dict
        from repro.serve.protocol import ServiceResponse

        payload = result_to_dict(
            ServiceResponse(ok=False, status="rejected", kind="open", request_id=3, reason="capacity")
        )
        assert payload["kind"] == "service_response"
        assert payload["ok"] is False
        assert payload["reason"] == "capacity"
        assert payload["schema"] == 1

    def test_serializer_rejects_non_results(self):
        from repro.report.serialize import result_to_dict

        with pytest.raises(TypeError, match="result contract"):
            result_to_dict(object())


#: Every keyword the forwarders pass to each fabric: an off-default value
#: and its read-back.  ``FabricService`` exposes no batcher and the
#: healing controller no retry policy, so ``max_batch`` and ``retry`` are
#: read from the private fields.
_FABRIC_KEYWORDS = {
    "retry": (api.RetryPolicy(max_retries=2), lambda f: f.healing._retry),
    "tracer": (api.Tracer(), lambda f: f.tracer),
    "protection": (1, lambda f: f.protection),
    "churn": (api.ChurnPolicy(incremental=False, drift_limit=3), lambda f: f.churn_policy),
    "queue_capacity": (7, lambda f: f.queue.capacity),
    "shed_policy": (api.ShedPolicy.SHED_LARGEST, lambda f: f.queue.policy),
    "max_batch": (5, lambda f: f._batcher.max_batch),
    "capacity_model": ("buffered", lambda f: f.capacity_model),
    "perf": (api.PerfModelConfig(lanes=2), lambda f: f.delivery.config),
}

#: The three forwarders, each building two fabrics (one for the serve bench).
_FORWARDERS = {
    "cluster": lambda **kw: api.ClusterService(lambda _id: _network(), shards=2, **kw),
    "serve_bench": lambda **kw: api.run_serve_bench(16, conferences=2, **kw),
    "cluster_bench": lambda **kw: api.run_cluster_bench(conferences=2, **kw),
}


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
    # configuration (policy, faults, limit) keyword-only.
    @pytest.mark.parametrize(
        "fn, expected",
        [
            (api.extend_route, ["policy", "faults", "drift_limit"]),
            (api.prune_route, ["policy", "faults"]),
            (api.apply_churn, ["policy", "faults"]),
        ],
    )
    def test_churn_configuration_is_keyword_only(self, fn, expected):
        params = inspect.signature(fn).parameters
        for name in expected:
            assert name in params, f"{fn.__name__} lacks {name}="
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY

    # Since 5.0 FabricService is the one declaration of per-fabric
    # configuration; the cluster and both benches forward to it (an
    # unknown keyword still fails there: see REMOVED_KEYWORDS).
    @pytest.mark.parametrize("keyword", sorted(_FABRIC_KEYWORDS))
    @pytest.mark.parametrize("owner", sorted(_FORWARDERS))
    def test_forwarded_keyword_reaches_every_fabric(self, monkeypatch, owner, keyword):
        built = []
        init = api.FabricService.__init__

        def record(fabric, *args, **kwargs):
            init(fabric, *args, **kwargs)
            built.append(fabric)

        monkeypatch.setattr(api.FabricService, "__init__", record)
        value, read = _FABRIC_KEYWORDS[keyword]
        extra = {"capacity_model": "buffered"} if keyword == "perf" else {}
        _FORWARDERS[owner](**{keyword: value}, **extra)
        assert len(built) == (1 if owner == "serve_bench" else 2)
        for fabric in built:
            assert read(fabric) == value


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
        assert api.API_VERSION == "7.0"
        assert repro.__version__ == "7.0.0"


class TestRemovedIn50:
    """The churn knobs and aliases the 5.0 API dropped fail loudly."""

    @pytest.mark.parametrize("keyword", ["max_taps_moved", "fallback"])
    def test_policy_keyword_gone(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            api.ChurnPolicy(**{keyword: 0})

    @pytest.mark.parametrize(
        "entry, keyword",
        [
            (api.extend_route, "max_taps_moved"),
            (api.extend_route, "fallback"),
            (api.prune_route, "max_taps_moved"),
            (api.prune_route, "fallback"),
            (api.prune_route, "drift_limit"),
        ],
    )
    def test_entry_keyword_gone(self, entry, keyword):
        net, route, _ = _churn_inputs()
        with pytest.raises(TypeError, match=keyword):
            entry(net, route, 2, **{keyword: 0})

    @pytest.mark.parametrize("name", ["ChurnLimitExceeded", "join_member", "leave_member"])
    def test_name_gone(self, name):
        import repro.core
        import repro.core.churn

        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)
        assert not hasattr(repro.core, name)
        assert not hasattr(repro.core.churn, name)


class TestRemovedIn60:
    """The tallies, verdicts and merge paths the 6.0 API dropped fail loudly."""

    @pytest.mark.parametrize("name", ["PlanStats", "SubmitOutcome"])
    def test_name_gone(self, name):
        import repro.core.healing
        import repro.protect.plans

        with pytest.raises(ImportError):
            exec(f"from repro import {name}", {})
        assert not hasattr(repro.protect.plans, name)
        assert not hasattr(repro.core.healing, name)

    @pytest.mark.parametrize(
        "owner, name",
        [
            (api.SLOEvaluator, "merge"),
            (api.SLOEvaluator, "snapshot"),
            (api.SLOSpec, "as_dict"),
            (api.DeliveryModel, "merge_summary"),
            (api.DeliveryModel, "merge_histogram"),
        ],
    )
    def test_removed_attribute_is_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_merge_snapshots_is_gone(self):
        import repro.obs.slo

        assert not hasattr(repro.obs.slo, "merge_snapshots")

    def test_plan_store_keeps_no_stats(self):
        store = api.BackupPlanStore(api.build("extra-stage-cube", 8))
        assert not hasattr(store, "stats")
        assert store.invalidate_links([(1, 0)]) is None

    @pytest.mark.parametrize("keyword", ["process", "horizon", "seed"])
    def test_fault_injector_takes_only_a_script(self, keyword):
        net = api.build("indirect-binary-cube", 8)
        with pytest.raises(TypeError, match=keyword):
            api.FaultInjector(net, **{keyword: None})

    @pytest.mark.parametrize("keyword", ["script", "protection"])
    def test_run_availability_keyword_gone(self, keyword):
        from repro.sim.scenarios import run_availability

        with pytest.raises(TypeError, match=keyword):
            run_availability("indirect-binary-cube", 8, duration=10.0, **{keyword: None})

    def test_submit_returns_nothing(self):
        healing = api.SelfHealingController(api.ConferenceNetwork.build("omega", 8), rng=0)
        assert healing.submit(api.EventLoop(), api.Conference.of([0, 1], 0)) is None
        assert healing.live_conferences == (0,)

    def test_batcher_execute_returns_the_report(self):
        from repro.serve.batcher import BatchReport, Batcher

        assert isinstance(Batcher().execute([], lambda request, seq: None, 0.0), BatchReport)


class TestRemovedIn70:
    """The members only their own tests reached, dropped by 7.0, fail loudly."""

    def test_versions(self):
        assert api.API_VERSION == "7.0"
        assert repro.__version__ == "7.0.0"

    @pytest.mark.parametrize("name", ["diurnal_load", "lurker_joins"])
    def test_churn_generator_gone(self, name):
        import repro.workloads
        import repro.workloads.churn

        with pytest.raises(AttributeError, match="no attribute"):
            getattr(repro, name)
        assert not hasattr(repro.workloads, name)
        assert not hasattr(repro.workloads.churn, name)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.core.routing", "combine_at_level"),
            ("repro.obs.trace", "NULL_TRACER"),
            ("repro.obs.metrics", "default_registry"),
            ("repro.obs.metrics", "collection_enabled"),
            ("repro.workloads.generators", "sample_stream"),
            ("repro.report.serialize", "conference_set_to_dict"),
            ("repro.report.serialize", "conference_set_from_dict"),
            ("repro.report.serialize", "load_conference_set"),
            ("repro.report.serialize", "route_to_dict"),
            ("repro.report.serialize", "conflict_report_to_dict"),
            ("repro.util.bits", "set_bit"),
            ("repro.util.bits", "flip_bit"),
            ("repro.util.bits", "popcount"),
            ("repro.util.bits", "iter_bits"),
            ("repro.util.bits", "common_suffix_len"),
            ("repro.util.bits", "aligned_block"),
            ("repro.parallel.seeds", "seed_fingerprint"),
        ],
    )
    def test_module_name_gone(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize(
        "owner, name",
        [
            (api.FaultInjector, "faults_at"),
            (api.EventLoop, "processed"),
            (api.AdmissionQueue, "drain_all"),
            (api.SessionTable, "in_state"),
            (api.SelfHealingController, "retry_policy"),
            (api.BackupPlanStore, "protected_points"),
            (api.PerfReport, "offered_throughput"),
            (api.Route, "members_at"),
            (api.Route, "stages_traversed"),
        ],
    )
    def test_removed_attribute_is_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_helper_attributes_gone(self):
        from repro.analysis.erlang import LinkLoadModel
        from repro.analysis.scheduling import ScheduleResult
        from repro.serve.batcher import Batcher
        from repro.sim.traffic import ConferenceTrafficSource

        assert not hasattr(Batcher, "batches_run")
        assert not hasattr(ConferenceTrafficSource, "live_calls")
        assert not hasattr(ScheduleResult, "conferences_in_slot")
        assert not hasattr(LinkLoadModel, "hottest_link_usage")

    def test_schedule_slots_takes_no_strategy(self):
        from repro.analysis.scheduling import schedule_slots

        with pytest.raises(TypeError, match="strategy"):
            schedule_slots([], strategy="DSATUR")
        assert not hasattr(schedule_slots([]), "strategy")

    def test_perf_report_dict_keeps_offered_throughput(self):
        net = api.build("indirect-binary-cube", 8)
        route = api.route_conference(net, api.Conference.of([0, 1], 0))
        report = api.simulate_delivery([route], cycles=20, offered_load=0.5)
        assert report.offered_packets > 0
        assert report.as_dict()["offered_throughput"] == report.offered_packets / report.cycles


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
