"""Stability-service tests: warm-cache behaviour, coalescing, selection.

Acceptance bar: a warm service answers a repeated /measure query with zero
new trainings and zero measure batches (counted), and N
identical concurrent queries collapse into one computation.
"""

import gc
import threading
import warnings
import weakref

import pytest

from repro.engine import stats
from repro.instability import pipeline as pipeline_module
from repro.serving import ServiceConfig, StabilityService
from repro.serving.api import quick_serve_config


@pytest.fixture(scope="module")
def service():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        svc = StabilityService(quick_serve_config())
        yield svc
        svc.close()


@pytest.fixture()
def fresh_service():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        with StabilityService(quick_serve_config()) as svc:
            yield svc


def _quiet_measure(svc, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return svc.measure(*args, **kwargs)


class TestMeasure:
    def test_measure_payload_shape(self, service):
        out = _quiet_measure(service, "svd", 4, 1)
        assert out["algorithm"] == "svd"
        assert out["memory_bits_per_word"] == 4
        assert set(out["measures"]) == {
            "eis", "1-knn", "pip", "1-eigenspace-overlap", "semantic-displacement"
        }
        assert isinstance(out["artifact_key"], str)

    def test_warm_repeat_trains_and_decomposes_nothing(self, service, monkeypatch):
        """The acceptance criterion: a repeated query is pure cache."""
        _quiet_measure(service, "svd", 4, 1)          # ensure warm
        batches = []
        batch = pipeline_module.compute_measure_batch

        def counted(*args, **kwargs):
            batches.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "compute_measure_batch", counted)
        before = stats(engine=service.engine)

        repeat = _quiet_measure(service, "svd", 4, 1)

        after = stats(engine=service.engine)
        assert repeat["measures"] == _quiet_measure(service, "svd", 4, 1)["measures"]
        # Zero new trainings...
        assert after["pipeline"]["embedding_train_count"] == before["pipeline"]["embedding_train_count"]
        assert after["pipeline"]["downstream_train_count"] == before["pipeline"]["downstream_train_count"]
        # ... zero measure batches, so zero decompositions (the store served
        # the final values) ...
        assert batches == []
        # ... and no store misses or writes for the repeated lookup.
        assert after["store"]["measures"]["misses"] == before["store"]["measures"]["misses"]
        assert after["store"]["measures"]["puts"] == before["store"]["measures"]["puts"]

    def test_measure_batches_release_their_decompositions(self, fresh_service, monkeypatch):
        """No decomposition cache outlives the measure batch that built it:
        a later batch aligns its pair into new arrays, so a cache kept
        across requests would only pin memory."""
        caches = []
        batch = pipeline_module.compute_measure_batch

        def tracked(*args, **kwargs):
            result = batch(*args, **kwargs)
            caches.append(weakref.ref(result.cache))
            return result

        monkeypatch.setattr(pipeline_module, "compute_measure_batch", tracked)
        _quiet_measure(fresh_service, "svd", 4, 1)
        gc.collect()
        assert len(caches) == 1
        assert [ref() for ref in caches] == [None]

    def test_identical_concurrent_requests_coalesce(self, fresh_service):
        """N identical in-flight queries -> exactly one computation."""
        service = fresh_service
        n_requests = 4
        release = threading.Event()
        entered = threading.Event()
        compute_calls = []
        original = service.pipeline.compute_measures

        def gated_compute(*args, **kwargs):
            compute_calls.append(args)
            entered.set()
            release.wait(timeout=30)
            return original(*args, **kwargs)

        service.pipeline.compute_measures = gated_compute
        try:
            results, errors = [], []

            def query():
                try:
                    results.append(_quiet_measure(service, "svd", 4, 1))
                except Exception as error:  # pragma: no cover - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=query) for _ in range(n_requests)]
            threads[0].start()
            assert entered.wait(timeout=30)       # first request is computing
            for t in threads[1:]:
                t.start()
            # Followers are registered as coalesced before the gate opens.
            deadline = threading.Event()
            for _ in range(200):
                if service.metrics()["serving"]["coalesced_total"] >= n_requests - 1:
                    break
                deadline.wait(0.02)
            release.set()
            for t in threads:
                t.join(timeout=60)
        finally:
            service.pipeline.compute_measures = original
            release.set()

        assert not errors
        assert len(compute_calls) == 1            # exactly one computation
        assert len(results) == n_requests
        assert all(r == results[0] for r in results)
        metrics = service.metrics()["serving"]
        assert metrics["coalesced_total"] == n_requests - 1
        assert metrics["requests_measure"] == n_requests
        # One artifact was written: the single shared computation's.
        assert service.pipeline.store.stat("measures").puts == 1

    def test_distinct_requests_do_not_coalesce(self, service):
        before = service.metrics()["serving"]["coalesced_total"]
        _quiet_measure(service, "svd", 4, 1)
        _quiet_measure(service, "svd", 6, 1)
        assert service.metrics()["serving"]["coalesced_total"] == before


class TestSelect:
    def test_select_returns_feasible_best(self, service):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            out = service.select(128)
        assert out["criterion"] == "eis"
        assert out["selected"]["memory_bits_per_word"] <= 128
        assert out["n_feasible"] >= 2
        assert out["n_candidates"] == 4           # 2 dims x 2 precisions

    def test_select_respects_tight_budget(self, service):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            out = service.select(6)
        # Only dim=4/precision=1 (4 bits/word) and dim=6/precision=1 (6) fit.
        assert out["selected"]["memory_bits_per_word"] <= 6

    def test_select_infeasible_budget_raises(self, service):
        with pytest.raises(ValueError, match="fits"):
            service.select(1)

    def test_naive_criterion_needs_no_measures(self, fresh_service):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            out = fresh_service.select(1000, criterion="high-precision")
        assert out["selected"]["precision"] == 32
        # No measures were computed for a naive criterion.
        assert fresh_service.pipeline.store.stat("measures").lookups == 0

    def test_oracle_criterion_rejected(self, service):
        with pytest.raises(ValueError, match="oracle"):
            service.select(128, criterion="oracle")

    def test_unknown_criterion_rejected(self, service):
        with pytest.raises(ValueError, match="unknown selection criterion"):
            service.select(128, criterion="vibes")


class TestGridStream:
    def test_grid_iter_validates_axes_eagerly(self, service):
        # Errors surface at call time, before any record is produced -- the
        # HTTP layer relies on this to reject bad requests with a clean 400.
        with pytest.raises(KeyError, match="unknown embedding algorithm"):
            service.grid_iter(algorithms=("nope",))
        with pytest.raises(KeyError, match="unknown task"):
            service.grid_iter(tasks=("nope",))
        with pytest.raises(ValueError, match="duplicate"):
            service.grid_iter(dimensions=(4, 4))

    def test_grid_iter_matches_engine_run(self, service):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            streamed = list(service.grid_iter(with_measures=True))
            batch = service.engine.run(with_measures=True)
        assert streamed == batch
        assert service.metrics()["serving"]["records_streamed"] >= len(streamed)


class TestObservability:
    def test_healthz_shape(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["vocab_words"] > 0
        assert health["algorithms"] == ["svd"]
        assert not health["store_persistent"]

    def test_metrics_has_all_surfaces(self, service):
        _quiet_measure(service, "svd", 4, 1)
        metrics = service.metrics()
        assert set(metrics) >= {"store", "pipeline", "warmup", "serving"}
        assert metrics["pipeline"]["corpus_build_count"] == 1
        assert "measures" in metrics["store"]
        assert metrics["serving"]["inflight_now"] == 0

    def test_service_config_validation(self):
        with pytest.raises(ValueError, match="max_concurrency"):
            ServiceConfig(max_concurrency=0)
