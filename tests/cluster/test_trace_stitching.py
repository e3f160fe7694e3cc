"""Distributed trace stitching over live HTTP.

Pins the observability acceptance criterion: a distributed ``/grid``
request against a live coordinator with polling workers yields ONE
stitched trace — the coordinator's root span, the per-group lease-wait
spans, the worker-side execution spans (training, measure evaluation,
artifact pushes to the coordinator) shipped back over the completion
RPC, and the coordinator's own spans of those pushes — all under the
trace id the client sent in ``X-Trace-Id``.
"""

import http.client
import json
import time

import pytest

from tests.live import live_cluster

TRACE_ID = "feed" * 8


@pytest.fixture(scope="module")
def cluster():
    """A live coordinator plus two polling workers."""
    with live_cluster() as running:
        yield running


def stream_grid(port: int, headers: dict) -> list[dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    conn.request("GET", "/grid?distributed=true", headers=headers)
    response = conn.getresponse()
    assert response.status == 200
    rows = [json.loads(line) for line in response.read().decode().strip().splitlines()]
    conn.close()
    return rows


def fetch_trace(port: int, trace_id: str) -> list[dict] | None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", f"/trace/{trace_id}")
    response = conn.getresponse()
    body = response.read()
    conn.close()
    if response.status != 200:
        return None
    return [json.loads(line) for line in body.decode().strip().splitlines()]


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", path)
    payload = json.loads(conn.getresponse().read())
    conn.close()
    return payload


class TestDistributedStitching:
    def test_grid_produces_one_cluster_wide_trace(self, cluster):
        api, url, workers = cluster

        rows = stream_grid(api.port, {"X-Trace-Id": TRACE_ID})
        assert len(rows) == 4           # quick grid: 2 dims x 2 precisions

        # The root trace finishes when the stream ends; worker spans ride
        # the completion RPCs which land before the final record is pushed,
        # but the last lease's spans may still be milliseconds behind the
        # client's read of the stream tail.  Poll briefly.
        def remote_puts(spans):
            return [
                row for row in spans
                if row["name"] == "store.put" and row["attrs"].get("tier") == "remote"
            ]

        deadline = time.monotonic() + 10.0
        spans = fetch_trace(api.port, TRACE_ID) or []
        while time.monotonic() < deadline:
            names = {row["name"] for row in spans}
            if "worker.group" in names and remote_puts(spans):
                break
            time.sleep(0.1)
            spans = fetch_trace(api.port, TRACE_ID) or []
        names = {row["name"] for row in spans}

        # One trace covering the whole distributed execution: root request,
        # coordinator-side lease wait, worker-side train/measure/push.
        assert "GET /grid" in names
        assert "cluster.lease_wait" in names
        assert "worker.group" in names
        assert "pipeline.train" in names        # cold run: training happened
        assert "pipeline.measures" in names     # measure evaluation
        assert remote_puts(spans)               # artifacts pushed to coordinator
        # The pushes carried the lease's trace context, so the coordinator's
        # spans of handling them joined this trace too.
        assert any(name.startswith("PUT /artifacts/") for name in names)
        assert all(row["trace_id"] == TRACE_ID for row in spans)

        # The tree is stitched, not a bag of orphans: every worker.group
        # span hangs off the coordinator root, and pipeline spans hang off
        # a worker.group span.
        by_id = {row["span_id"]: row for row in spans}
        root = next(row for row in spans if row["parent_id"] is None)
        assert root["name"] == "GET /grid"
        group_ids = set()
        for row in spans:
            if row["name"] == "worker.group":
                assert row["parent_id"] == root["span_id"]
                group_ids.add(row["span_id"])
        assert group_ids, "no worker spans were stitched in"
        for row in spans:
            if row["name"].startswith("pipeline."):
                parent = by_id[row["parent_id"]]
                assert parent["span_id"] in group_ids or parent["name"].startswith(
                    ("pipeline.", "worker.")
                )

        # Both sides kept count: workers shipped spans, the sink ingested
        # every one of them.
        assert sum(w.stats()["spans_shipped"] for w in workers) > 0
        counters = get_json(api.port, "/trace/recent")["counters"]
        assert counters["spans_ingested"] > 0
        assert counters["spans_dropped"] == 0

    def test_worker_attrs_identify_the_executors(self, cluster):
        api, url, workers = cluster
        spans = fetch_trace(api.port, TRACE_ID) or []
        executors = {
            row["attrs"]["worker"]
            for row in spans
            if row["name"] == "worker.group"
        }
        assert executors <= {"worker-0", "worker-1"}
        assert executors, "worker.group spans carry no worker attribution"
        waits = [row for row in spans if row["name"] == "cluster.lease_wait"]
        assert all(row["attrs"]["worker"] in executors for row in waits)
