"""HTTP-level telemetry: trace-id echo, /trace endpoints, Prometheus
exposition, and the structured access log — against a live server."""

import json
import re
import warnings

import pytest

from repro.serving import StabilityService
from repro.serving.api import quick_serve_config

from tests.serving.test_api import get_json, live_server, request
from tests.serving.test_framing import connect, read_responses


@pytest.fixture(scope="module")
def server():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config())
    with live_server(service) as api:
        yield api
    service.close()


class TestTraceHeaders:
    def test_every_response_carries_a_trace_id(self, server):
        response, _ = request(server, "/healthz")
        trace_id = response.getheader("X-Trace-Id")
        assert trace_id and re.fullmatch(r"[0-9a-f]{32}", trace_id)

    def test_warm_hits_without_an_inbound_id_get_distinct_ids(self, server):
        # Not the cell test_measure_trace_contains_pipeline_spans needs cold.
        path = "/measure?algorithm=svd&dim=6&precision=32"
        request(server, path)                     # stores the answer
        batch = f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode() * 500
        ids = []
        sock = connect(server)
        for _ in range(20):
            sock.sendall(batch)
            ids += [headers["X-Trace-Id"] for _, headers, _ in read_responses(sock, 500)]
        sock.close()
        assert len(set(ids)) == len(ids) == 10_000
        assert all(re.fullmatch(r"[0-9a-f]{32}", trace_id) for trace_id in ids)

    def test_inbound_trace_id_is_honoured_and_echoed(self, server):
        response, _ = request(
            server, "/healthz", headers={"X-Trace-Id": "cafe" * 8}
        )
        assert response.getheader("X-Trace-Id") == "cafe" * 8

    def test_request_id_header_is_a_fallback(self, server):
        response, _ = request(
            server, "/healthz", headers={"X-Request-Id": "beef" * 8}
        )
        assert response.getheader("X-Trace-Id") == "beef" * 8

    def test_error_responses_also_echo(self, server):
        response, _ = request(
            server, "/measure?algorithm=svd&dim=4",     # missing precision: 400
            headers={"X-Trace-Id": "dead" * 8},
        )
        assert response.status == 400
        assert response.getheader("X-Trace-Id") == "dead" * 8


class TestTraceEndpoints:
    def test_measure_trace_contains_pipeline_spans(self, server):
        # No other test of this module computes this cell: it is cold here.
        path = "/measure?algorithm=svd&dim=4&precision=1&seed=0"
        trace_id = "ab" * 16
        response, _ = request(server, path, headers={"X-Trace-Id": trace_id})
        assert response.status == 200
        response, body = request(server, f"/trace/{trace_id}")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("application/x-ndjson")
        rows = [json.loads(line) for line in body.decode().strip().splitlines()]
        names = {row["name"] for row in rows}
        assert "GET /measure" in names
        # The cold answer is computed by one uncoalesced service call.
        assert {name for name in names if name.startswith("service.")} == {
            "service.ancestry_wait"
        }
        assert "pipeline.measures" in names
        by_id = {row["span_id"]: row for row in rows}
        root = next(r for r in rows if r["parent_id"] is None)
        assert "cached" not in root["attrs"]
        for row in rows:
            if row is not root and row["parent_id"] is not None:
                assert row["parent_id"] in by_id or row["parent_id"] == root["span_id"]
        assert all(row["trace_id"] == trace_id for row in rows)

        # The warm repeat is written from the stored bytes: its trace is the
        # root span alone, marked cached.
        warm_id = "cd" * 16
        response, _ = request(server, path, headers={"X-Trace-Id": warm_id})
        assert response.status == 200
        _, body = request(server, f"/trace/{warm_id}")
        (row,) = [json.loads(line) for line in body.decode().strip().splitlines()]
        assert row["name"] == "GET /measure" and row["parent_id"] is None
        assert row["attrs"]["cached"] is True

    def test_recent_lists_newest_first_with_counters(self, server):
        request(server, "/healthz", headers={"X-Trace-Id": "11" * 16})
        status, payload = get_json(server, "/trace/recent?limit=100")
        assert status == 200
        assert any(t["trace_id"] == "11" * 16 for t in payload["traces"])
        assert payload["counters"]["started"] >= 1
        assert payload["counters"]["slow_ms"] == 500.0

    def test_unknown_trace_is_404(self, server):
        status, payload = get_json(server, "/trace/ffffffffffffffff")
        assert status == 404
        assert "no retained trace" in payload["error"]

    def test_trace_endpoints_are_get_only(self, server):
        status, payload = get_json(server, "/trace/recent", method="POST", body={})
        assert status == 405

    def test_metrics_exposes_trace_counters(self, server):
        status, payload = get_json(server, "/metrics")
        assert status == 200
        traces = payload["telemetry"]["traces"]
        assert traces["started"] >= 1
        latency = payload["telemetry"]["latency"]
        assert "request" in latency
        assert any(op.startswith("/") for op in latency["request"])


_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$")


class TestPrometheusEndpoint:
    def test_exposition_is_valid_and_covers_counters(self, server):
        request(server, "/healthz")
        response, body = request(server, "/metrics?format=prometheus")
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain")
        text = body.decode("utf-8")
        assert text.endswith("\n")
        names = set()
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert _SAMPLE.match(line), f"malformed sample: {line!r}"
            names.add(line.split("{", 1)[0].split(" ", 1)[0])
        assert "repro_latency_ms_bucket" in names
        assert "repro_latency_ms_count" in names
        # Existing serving counters ride along as flattened gauges.
        assert any(name.startswith("repro_serving") for name in names)

    def test_unknown_format_is_400(self, server):
        status, payload = get_json(server, "/metrics?format=xml")
        assert status == 400
        assert "format" in payload["error"]


class TestAccessLog:
    def test_one_json_line_per_request_when_enabled(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        try:
            with live_server(service, access_log=True) as api:
                request(api, "/healthz", headers={"X-Trace-Id": "ba" * 16})
                request(api, "/nope")
            lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("{")
            ]
        finally:
            service.close()
        by_path = {entry["path"]: entry for entry in lines}
        health = by_path["/healthz"]
        assert health["method"] == "GET"
        assert health["status"] == 200
        assert health["trace_id"] == "ba" * 16
        assert health["duration_ms"] >= 0
        assert by_path["/nope"]["status"] == 404

    def test_stored_measure_answer_is_flagged_cached(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        try:
            with live_server(service, access_log=True) as api:
                for _ in range(2):
                    request(api, "/measure?algorithm=svd&dim=4&precision=1")
            lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("{")
            ]
        finally:
            service.close()
        computed, stored = [entry for entry in lines if entry["path"] == "/measure"]
        assert "cached" not in computed
        assert stored["cached"] is True

    def test_silent_by_default(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        try:
            with live_server(service) as api:
                request(api, "/healthz")
            out = capsys.readouterr().out
        finally:
            service.close()
        assert not any(line.startswith("{") for line in out.splitlines())
