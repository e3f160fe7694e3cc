"""Tests of the aggregate counter surface ``repro.engine.stats``."""

import json

from repro.engine import ArtifactStore, stats


class TestStats:
    def test_empty_snapshot_has_all_keys(self):
        snapshot = stats()
        telemetry = snapshot.pop("telemetry")
        assert set(telemetry) == {"latency"}   # process-wide histograms, always present
        assert snapshot == {
            "store": {}, "pipeline": {}, "warmup": None, "cluster": None,
            "monitor": None,
        }

    def test_bare_store_positional(self):
        store = ArtifactStore()
        store.put_json("downstream", "k", {"v": 1})
        store.get_json("downstream", "k")
        store.get_json("downstream", "missing")
        snapshot = stats(store)
        assert snapshot["store"]["downstream"] == {
            "hits": 1, "misses": 1, "puts": 1, "preloads": 0, "corrupt": 0,
            "evictions": 0,
        }
        assert snapshot["store_persistent"] is False
        assert snapshot["store_tiers"] == []      # memory-only: no byte tiers
        assert snapshot["pipeline"] == {}

    def test_store_tiers_reported_per_tier(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json("measures", "k", {"eis": 0.5})
        snapshot = stats(store)
        (disk,) = snapshot["store_tiers"]
        assert disk["name"] == "disk" and disk["persistent"] is True
        assert disk["puts"] == 1
        assert disk["root"] == str(tmp_path)

    def test_pipeline_positional_implies_store(self):
        from repro.instability.pipeline import InstabilityPipeline

        pipeline = InstabilityPipeline()
        snapshot = stats(pipeline)
        assert snapshot["pipeline"] == {
            "corpus_build_count": 1,
            "embedding_train_count": 0,
            "downstream_train_count": 0,
        }
        assert "store_persistent" in snapshot

    def test_engine_positional_implies_pipeline_and_warmup(self):
        from repro.engine import GridEngine

        engine = GridEngine()
        snapshot = stats(engine)
        assert snapshot["pipeline"]["corpus_build_count"] == 1
        assert snapshot["warmup"] is None        # no parallel run yet

    def test_snapshot_is_json_serialisable(self):
        from repro.engine import GridEngine

        engine = GridEngine()
        json.dumps(stats(engine))


class TestClusterSection:
    def test_coordinator_snapshot_is_included_and_jsonable(self):
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.engine import plan_grid
        from repro.serving.api import quick_serve_config

        coordinator = ClusterCoordinator()
        coordinator.create_run(plan_grid(quick_serve_config(), with_measures=True))
        coordinator.lease("w1")
        snapshot = stats(coordinator=coordinator)
        cluster = snapshot["cluster"]
        assert cluster["counters"]["leases_issued"] == 1
        assert cluster["runs_active"] == 1
        assert "w1" in cluster["workers"]
        json.dumps(snapshot)


class TestMonitorSection:
    def test_monitor_snapshot_is_included_and_jsonable(self):
        import warnings

        from repro.monitor import InstabilityMonitor, MonitorConfig
        from repro.serving import StabilityService
        from repro.serving.api import quick_serve_config

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        try:
            monitor = InstabilityMonitor(service, MonitorConfig())
            snapshot = stats(monitor=monitor)
            section = snapshot["monitor"]
            assert section["version"] == 0
            assert section["counters"]["batches_ingested"] == 0
            assert section["last_report"] is None
            json.dumps(snapshot)
            monitor.close()
        finally:
            service.close()
