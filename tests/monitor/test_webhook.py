"""Drift-alert webhook delivery: payload shape, retries, and counters."""

import json
import warnings

import pytest

from repro.monitor import InstabilityMonitor, MonitorConfig
from repro.monitor import scheduler as scheduler_module
from repro.serving import StabilityService
from repro.serving.api import quick_serve_config

HOOK = "http://alerts.invalid/drift"


@pytest.fixture(scope="module")
def service():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config())
    yield service
    service.close()


@pytest.fixture(scope="module")
def token_documents(service):
    corpus = service.pipeline.corpus_pair.base
    return [[corpus.word_list[i] for i in doc] for doc in corpus.documents]


def make_monitor(service, posts, statuses):
    """A monitor whose webhook POST is captured, not sent."""
    monitor = InstabilityMonitor(
        service, MonitorConfig(thresholds={"eis": 0.0}, webhook_url=HOOK)
    )

    def fake_post(url, body):
        posts.append((url, json.loads(body)))
        outcome = statuses[min(len(posts), len(statuses)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monitor._webhook_post = fake_post
    return monitor


class TestDelivery:
    def test_drift_alert_posts_payload_and_counts(self, service, token_documents):
        posts = []
        monitor = make_monitor(service, posts, statuses=[200])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                monitor.ingest(token_documents[:40])
                monitor.ingest(token_documents[40:])
                assert monitor.wait_idle(timeout=120)
        finally:
            monitor.close()

        assert len(posts) == 1
        url, payload = posts[0]
        assert url == HOOK
        assert payload["event"] == "drift_alert"
        assert payload["base_version"] == 1
        assert payload["version"] == 2
        assert len(payload["snapshot_pair"]) == 2
        assert payload["alerts"]                  # eis > 0.0 threshold fired
        counters = monitor.counters()
        assert counters["webhook_delivered"] == 1
        assert counters["webhook_failed"] == 0
        # The webhook mirrors (never replaces) the in-process event stream.
        assert "drift_alert" in [e["kind"] for e in monitor.events.events()]

    def test_no_webhook_configured_posts_nothing(self, service, token_documents):
        monitor = InstabilityMonitor(service, MonitorConfig(thresholds={"eis": 0.0}))
        posted = []
        monitor._webhook_post = lambda url, body: posted.append(url) or 200
        try:
            monitor._deliver_webhook({"event": "drift_alert"})
        finally:
            monitor.close()
        assert posted == []
        assert monitor.counters()["webhook_delivered"] == 0

    def test_snapshot_reports_the_url(self, service):
        monitor = make_monitor(service, [], statuses=[200])
        try:
            assert monitor.snapshot()["webhook"] == HOOK
        finally:
            monitor.close()


class TestRetries:
    def test_transient_failure_retries_then_delivers(self, service):
        posts = []
        monitor = make_monitor(service, posts, statuses=[ConnectionError("down"), 200])
        try:
            monitor._deliver_webhook({"event": "drift_alert"})
        finally:
            monitor.close()
        assert len(posts) == 2
        counters = monitor.counters()
        assert counters["webhook_delivered"] == 1
        assert counters["webhook_failed"] == 0

    def test_exhausted_retries_count_one_failure(self, service, monkeypatch):
        monkeypatch.setattr(scheduler_module, "WEBHOOK_RETRIES", 1)
        posts = []
        monitor = make_monitor(service, posts, statuses=[503])
        try:
            monitor._deliver_webhook({"event": "drift_alert"})
        finally:
            monitor.close()
        assert len(posts) == 2                    # initial try + 1 retry
        counters = monitor.counters()
        assert counters["webhook_delivered"] == 0
        assert counters["webhook_failed"] == 1

    def test_zero_retries_means_single_attempt(self, service, monkeypatch):
        monkeypatch.setattr(scheduler_module, "WEBHOOK_RETRIES", 0)
        posts = []
        monitor = make_monitor(service, posts, statuses=[RuntimeError("boom")])
        try:
            monitor._deliver_webhook({"event": "drift_alert"})
        finally:
            monitor.close()
        assert len(posts) == 1
        assert monitor.counters()["webhook_failed"] == 1
