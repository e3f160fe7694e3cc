"""HTTP surface of the online monitor: ingest, status, events, metrics."""

import http.client
import json
import warnings

import pytest

from repro.monitor import MonitorConfig
from repro.serving import StabilityService
from repro.serving.api import StabilityAPIServer, quick_serve_config

from tests.serving.test_api import get_json, live_server, request


@pytest.fixture(scope="module")
def monitored_server():
    """A live server whose service has a monitor with a hot threshold."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config())
        service.enable_monitor(MonitorConfig(thresholds={"eis": 0.0}))
    with live_server(service) as api:
        yield api, service
    service.close()


@pytest.fixture(scope="module")
def documents(monitored_server):
    _, service = monitored_server
    corpus = service.pipeline.corpus_pair.base
    return [[corpus.word_list[i] for i in doc] for doc in corpus.documents]


@pytest.fixture(scope="module")
def ingested(monitored_server, documents):
    """Two batches POSTed over HTTP: two snapshots, one retrain."""
    api, service = monitored_server
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        status1, first = get_json(
            api, "/monitor/ingest", method="POST", body={"documents": documents[:40]}
        )
        status2, second = get_json(
            api, "/monitor/ingest", method="POST", body={"documents": documents[40:]}
        )
        assert service.monitor.wait_idle(timeout=120)
    assert status1 == 200 and status2 == 200
    return first, second


def stream_events(api, query=""):
    conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=120)
    conn.request("GET", f"/monitor/events{query}")
    response = conn.getresponse()
    assert response.status == 200
    assert response.getheader("Content-Type") == "application/x-ndjson"
    lines = [json.loads(line) for line in response.read().decode().strip().splitlines()]
    conn.close()
    return lines


class TestIngest:
    def test_two_batches_two_versions(self, ingested):
        first, second = ingested
        assert first["version"] == 1
        assert second["version"] == 2
        assert second["ingested"]["documents"] == 60

    def test_string_documents_are_split(self, monitored_server, ingested):
        api, service = monitored_server
        # Strings split on whitespace; suppress the cut so this probe batch
        # doesn't advance the version history the other tests pin.
        words = service.pipeline.corpus_pair.base.word_list
        status, payload = get_json(
            api, "/monitor/ingest", method="POST",
            body={"documents": [" ".join(words[:5])], "cut": False},
        )
        assert status == 200
        assert payload["ingested"]["batch_tokens"] == 5
        assert payload["snapshot"] is None

    def test_get_is_405(self, monitored_server):
        api, _ = monitored_server
        status, payload = get_json(api, "/monitor/ingest")
        assert status == 405

    def test_bad_documents_400(self, monitored_server):
        api, _ = monitored_server
        for bad in ({}, {"documents": []}, {"documents": [[]]}, {"documents": [[1, 2]]}):
            status, payload = get_json(
                api, "/monitor/ingest", method="POST", body=bad
            )
            assert status == 400, payload


class TestStatusAndMetrics:
    def test_status_snapshot(self, monitored_server, ingested):
        api, _ = monitored_server
        status, payload = get_json(api, "/monitor/status")
        assert status == 200
        assert payload["version"] >= 2
        assert payload["counters"]["retrains_completed"] >= 1
        assert payload["last_report"]["drifted"] is True

    def test_metrics_monitor_section(self, monitored_server, ingested):
        api, _ = monitored_server
        status, payload = get_json(api, "/metrics")
        assert status == 200
        monitor = payload["monitor"]
        assert monitor is not None
        assert monitor["counters"]["snapshots_cut"] >= 2
        assert monitor["counters"]["drift_alerts"] >= 1


class TestEvents:
    def test_replay_buffered_events(self, monitored_server, ingested):
        api, _ = monitored_server
        events = stream_events(api)
        kinds = [e["kind"] for e in events]
        assert "snapshot_cut" in kinds
        assert "retrain_started" in kinds
        assert "measures_ready" in kinds
        assert "drift_alert" in kinds
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_since_filters(self, monitored_server, ingested):
        api, _ = monitored_server
        events = stream_events(api)
        later = stream_events(api, f"?since={events[1]['seq']}")
        assert [e["seq"] for e in later] == [e["seq"] for e in events[2:]]

    def test_follow_streams_live_events(self, monitored_server, ingested, documents):
        api, service = monitored_server
        monitor = service.monitor
        last = monitor.events.last_seq
        conn = http.client.HTTPConnection("127.0.0.1", api.port, timeout=120)
        conn.request("GET", f"/monitor/events?follow=true&since={last}")
        response = conn.getresponse()
        assert response.status == 200
        # A forced no-op cut is skipped silently... so emit through the log
        # directly: the tail must deliver it while the connection is open.
        monitor.events.emit("snapshot_cut", version=99, probe=True)
        line = response.fp.readline()         # chunk size line
        payload = response.fp.readline()      # the NDJSON event
        event = json.loads(payload)
        assert event["kind"] == "snapshot_cut" and event.get("probe") is True
        conn.close()


class TestDisabled:
    def test_503_when_monitor_not_enabled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        try:
            with live_server(service) as api:
                for path, method, body in (
                    ("/monitor/status", "GET", None),
                    ("/monitor/ingest", "POST", {"documents": [["a", "b"]]}),
                    ("/monitor/events", "GET", None),
                ):
                    status, payload = get_json(api, path, method=method, body=body)
                    assert status == 503, (path, payload)
                    assert "monitor" in payload["error"]
        finally:
            service.close()
