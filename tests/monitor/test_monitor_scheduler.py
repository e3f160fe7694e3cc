"""InstabilityMonitor: the ingest -> snapshot -> retrain -> drift loop.

Runs the monitor against a real :class:`StabilityService`, waiting for its
retrains with ``wait_idle()``, and pins the subsystem's core guarantees:
rolling retrains aggregate to exactly what an equivalent batch grid run
yields, unchanged corpora cut no new versions, and an already-measured
version pair answers warm -- no grid, no training.
"""

import errno
import threading
import types
import warnings

import pytest

from repro.corpus.snapshots import load_snapshot
from repro.engine import GridEngine, MemoryBackend
from repro.engine.store import ArtifactStore
from repro.instability.pipeline import InstabilityPipeline
from repro.monitor import DriftEvaluator, InstabilityMonitor, MonitorConfig
from repro.monitor import scheduler as scheduler_module
from repro.serving import StabilityService
from repro.serving.api import quick_serve_config


@pytest.fixture(scope="module")
def service():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config())
    yield service
    service.close()


@pytest.fixture(scope="module")
def token_documents(service):
    """The served synthetic corpus as token text -- the ingestable form."""
    corpus = service.pipeline.corpus_pair.base
    return [[corpus.word_list[i] for i in doc] for doc in corpus.documents]


@pytest.fixture(scope="module")
def monitored(service, token_documents):
    """One full monitored lifecycle: two batches, two versions, one retrain."""
    monitor = InstabilityMonitor(service, MonitorConfig(thresholds={"eis": 0.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        first = monitor.ingest(token_documents[:40])
        second = monitor.ingest(token_documents[40:])
        assert monitor.wait_idle(timeout=120)
    yield monitor, first, second
    monitor.close()


class TestRollingRetrain:
    def test_two_batches_cut_two_versions(self, monitored):
        monitor, first, second = monitored
        assert first["version"] == 1 and first["cut"]
        assert second["version"] == 2 and second["cut"]
        counters = monitor.counters()
        assert counters["snapshots_cut"] == 2
        assert counters["retrains_dispatched"] == 1
        assert counters["retrains_completed"] == 1
        assert counters["retrains_failed"] == 0
        # The one cold retrain fit two models per downstream cell.
        assert counters["retrain_records"] > 0
        assert counters["local_downstream_trainings"] == 2 * counters["retrain_records"]

    def test_event_narrative(self, monitored):
        monitor, _, _ = monitored
        kinds = [e["kind"] for e in monitor.events.events()]
        assert kinds == [
            "snapshot_cut", "snapshot_cut", "retrain_started",
            "measures_ready", "drift_alert",
        ]

    def test_report_aggregates_full_grid(self, monitored):
        monitor, _, _ = monitored
        report = monitor.drift.last_report
        assert report is not None
        assert report.cells == 4          # svd x dims(4,6) x precisions(1,32)
        assert report.drifted             # eis > 0.0 threshold
        assert report.base_version == 1 and report.version == 2

    def test_bit_identical_to_batch_grid_run(self, monitored, service):
        # An equivalent *batch* grid over the same snapshot pair -- through a
        # fresh pipeline on a FRESH store holding only the snapshots, so
        # every cell genuinely retrains -- must aggregate to the very same
        # report: same cells, bit-equal measure floats.
        from repro.corpus.snapshots import load_snapshot, store_snapshot
        from repro.engine.store import ArtifactStore

        monitor, _, _ = monitored
        report = monitor.drift.last_report
        config = monitor.retrain_config(*report.snapshot_pair)
        fresh_store = ArtifactStore()
        for key in report.snapshot_pair:
            store_snapshot(fresh_store, load_snapshot(service.store, key))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            records = GridEngine(
                InstabilityPipeline(config, store=fresh_store),
                coordinator_url="",
            ).run(with_measures=True)
        batch_report = DriftEvaluator(monitor.drift.thresholds).evaluate(
            records,
            base_version=report.base_version,
            version=report.version,
            snapshot_pair=report.snapshot_pair,
        )
        assert batch_report.measures == report.measures       # exact, not approx
        assert batch_report.disagreement == report.disagreement
        assert batch_report.alerts == report.alerts

    def test_warm_reevaluation_trains_nothing(self, monitored, service):
        # Re-evaluating the measured pair answers from the cached report:
        # zero new trainings, zero new grid dispatches.
        monitor, _, _ = monitored
        report = monitor.drift.last_report
        before = monitor.counters()
        key_pair = report.snapshot_pair
        warm = monitor.evaluate_pair(
            report.base_version, key_pair[0], report.version, key_pair[1]
        )
        after = monitor.counters()
        assert warm.measures == report.measures
        assert after["reports_warm"] == before["reports_warm"] + 1
        assert after["retrains_completed"] == before["retrains_completed"]
        assert after["local_embedding_trainings"] == before["local_embedding_trainings"]
        assert after["local_downstream_trainings"] == before["local_downstream_trainings"]
        # Warm path narrates measures_ready (warm) + the still-standing
        # drift alert, but never a retrain_started.
        events = monitor.events.events()
        assert [e["kind"] for e in events[-2:]] == ["measures_ready", "drift_alert"]
        assert events[-2]["warm"] is True
        assert "retrain_started" not in [e["kind"] for e in events[-2:]]

    def test_unchanged_corpus_skips_snapshot(self, monitored):
        monitor, _, _ = monitored
        before = monitor.counters()
        result = monitor.cut_snapshot()           # nothing ingested since v2
        assert result["cut"] is False
        assert result["version"] == 2
        after = monitor.counters()
        assert after["snapshots_cut"] == before["snapshots_cut"]
        assert after["snapshots_skipped"] == before["snapshots_skipped"] + 1
        assert after["retrains_dispatched"] == before["retrains_dispatched"]

    def test_snapshot_monitor_section(self, monitored, service):
        monitor, _, _ = monitored
        snapshot = monitor.snapshot()
        assert snapshot["version"] == 2
        assert len(snapshot["versions"]) == 2
        assert snapshot["last_report"]["drifted"] is True
        assert snapshot["ingest"]["documents"] == 60
        # Attaching the monitor surfaces it in the service's metrics.
        service.monitor = monitor
        try:
            assert service.metrics()["monitor"]["version"] == 2
        finally:
            service.monitor = None


class TestConfigValidation:
    def test_bad_knobs(self):
        with pytest.raises(ValueError):
            MonitorConfig(snapshot_every_batches=0)
        with pytest.raises(ValueError):
            MonitorConfig(cadence_seconds=-1)
        with pytest.raises(ValueError):
            MonitorConfig(thresholds={"eis": float("nan")})

    def test_enable_monitor_idempotent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        try:
            config = MonitorConfig()
            monitor = service.enable_monitor(config)
            assert service.enable_monitor() is monitor
            assert service.enable_monitor(config) is monitor
            with pytest.raises(ValueError):
                service.enable_monitor(MonitorConfig(snapshot_every_batches=4))
        finally:
            service.close()


class TestBatchCadence:
    def test_snapshot_every_n_batches(self, service, token_documents):
        monitor = InstabilityMonitor(service, MonitorConfig(snapshot_every_batches=2))
        try:
            first = monitor.ingest(token_documents[:10])
            assert first["snapshot"] is None           # 1 of 2 batches
            second = monitor.ingest(token_documents[10:20])
            assert second["cut"] and second["version"] == 1
        finally:
            monitor.close()

    def test_explicit_cut_override(self, service, token_documents):
        monitor = InstabilityMonitor(service, MonitorConfig(snapshot_every_batches=5))
        try:
            forced = monitor.ingest(token_documents[:10], cut=True)
            assert forced["cut"] and forced["version"] == 1
            suppressed = monitor.ingest(token_documents[10:20], cut=False)
            assert suppressed["snapshot"] is None
        finally:
            monitor.close()


class FullOnce(MemoryBackend):
    """A store tier whose first write fails as on a full disk."""

    def __init__(self) -> None:
        super().__init__()
        self.full = True

    def _put(self, kind, name, payload):
        if self.full:
            self.full = False
            raise OSError(errno.ENOSPC, "No space left on device")
        super()._put(kind, name, payload)


class TestConcurrentCuts:
    def test_versions_follow_the_corpus_they_froze(
        self, service, token_documents, monkeypatch
    ):
        # Ingest A freezes 20 documents and stalls in the store write while
        # ingest B adds 20 more and cuts.  Cuts that overlap would let B
        # take version 1 with 40 documents and A version 2 with 20, yet
        # record 40 for it.
        monitor = InstabilityMonitor(service)
        real_store_snapshot = scheduler_module.store_snapshot
        a_frozen, b_done = threading.Event(), threading.Event()

        def stalling_store_snapshot(store, corpus):
            if len(corpus.documents) == 20:
                a_frozen.set()
                b_done.wait(timeout=2.0)     # B cuts first unless cuts serialise
            return real_store_snapshot(store, corpus)

        monkeypatch.setattr(scheduler_module, "store_snapshot", stalling_store_snapshot)
        ingest_a = threading.Thread(target=monitor.ingest, args=(token_documents[:20],))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                ingest_a.start()
                assert a_frozen.wait(timeout=30)
                ingest_b = threading.Thread(
                    target=lambda: (monitor.ingest(token_documents[20:40]), b_done.set())
                )
                ingest_b.start()
                ingest_a.join(timeout=30)
                ingest_b.join(timeout=30)
                assert monitor.wait_idle(timeout=120)
            versions = monitor.snapshot()["versions"]
            assert [v["version"] for v in versions] == [1, 2]
            assert [v["documents"] for v in versions] == [20, 40]
            for version in versions:
                frozen = load_snapshot(service.store, version["snapshot"])
                assert version["documents"] == len(frozen.documents)
                assert version["tokens"] == frozen.num_tokens
            assert monitor.counters()["retrains_completed"] == 1
        finally:
            monitor.close()


class TestCadenceFailures:
    def test_a_failed_cut_is_counted_and_the_next_tick_cuts(self, token_documents):
        store = ArtifactStore(backends=[FullOnce()])
        monitor = InstabilityMonitor(types.SimpleNamespace(store=store))
        try:
            monitor.ingest(token_documents[:10], cut=False)
            monitor._cadence_tick()               # the snapshot write raises
            counters = monitor.counters()
            assert (counters["snapshots_failed"], counters["snapshots_cut"]) == (1, 0)
            monitor._cadence_tick()               # still due: it cuts
            counters = monitor.counters()
            assert (counters["snapshots_failed"], counters["snapshots_cut"]) == (1, 1)
            monitor._cadence_tick()               # nothing new: no cut
            assert monitor.counters()["snapshots_cut"] == 1
        finally:
            monitor.close()
