"""End-to-end HTTP tests of the serving API: a real asyncio server on an
ephemeral port, exercised through ``http.client`` -- all five endpoints,
NDJSON streaming, and error mapping."""

import http.client
import json
import socket
import threading
import warnings

import numpy as np
import pytest

from repro.serving import StabilityService
from repro.serving import api as api_module
from repro.serving.api import quick_serve_config

from tests.live import live_server


@pytest.fixture(scope="module")
def server():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config())
    with live_server(service) as api:
        yield api
    service.close()


def request(server, path, *, method="GET", body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    headers = dict(headers or {})
    payload = None
    if body is not None:
        payload = json.dumps(body)
        headers["Content-Type"] = "application/json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
    conn.close()
    return response, data


def get_json(server, path, **kwargs):
    response, data = request(server, path, **kwargs)
    return response.status, json.loads(data)


class TestHealthz:
    def test_ok(self, server):
        status, payload = get_json(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["algorithms"] == ["svd"]


class TestMeasure:
    def test_get_query_params(self, server):
        status, payload = get_json(server, "/measure?algorithm=svd&dim=4&precision=1")
        assert status == 200
        assert payload["dim"] == 4 and payload["precision"] == 1
        assert set(payload["measures"]) == {
            "eis", "1-knn", "pip", "1-eigenspace-overlap", "semantic-displacement"
        }

    def test_post_json_body_equals_get(self, server):
        _, via_get = get_json(server, "/measure?algorithm=svd&dim=4&precision=1")
        status, via_post = get_json(
            server, "/measure", method="POST",
            body={"algorithm": "svd", "dim": 4, "precision": 1},
        )
        assert status == 200
        assert via_post == via_get         # bit-identical, served from cache

    def test_missing_parameter_is_400(self, server):
        status, payload = get_json(server, "/measure?algorithm=svd&dim=4")
        assert status == 400
        assert "precision" in payload["error"]

    def test_unknown_algorithm_is_400(self, server):
        status, payload = get_json(server, "/measure?algorithm=nope&dim=4&precision=1")
        assert status == 400
        assert "nope" in payload["error"]

    @pytest.mark.parametrize("names", ["bogus", "eis,bogus"])
    def test_unknown_measure_name_is_400(self, server, names):
        puts = server.service.store.stat("measures").puts
        status, payload = get_json(
            server, f"/measure?algorithm=svd&dim=4&precision=1&measures={names}"
        )
        assert status == 400
        assert "bogus" in payload["error"] and "known" in payload["error"]
        assert server.service.store.stat("measures").puts == puts


class TestSelect:
    def test_recommendation(self, server):
        status, payload = get_json(server, "/select?budget=128")
        assert status == 200
        assert payload["criterion"] == "eis"
        assert payload["selected"]["memory_bits_per_word"] <= 128

    def test_explicit_axes(self, server):
        status, payload = get_json(
            server, "/select?budget=1000&criterion=high-precision&dims=4&precisions=1,32"
        )
        assert status == 200
        assert payload["selected"] == {
            "dim": 4, "precision": 32, "memory_bits_per_word": 128,
            "score": -32.0,
        }

    def test_infeasible_budget_is_400(self, server):
        status, payload = get_json(server, "/select?budget=1")
        assert status == 400
        assert "fits" in payload["error"]


class TestGridStreaming:
    def test_ndjson_stream_matches_engine_batch(self, server):
        response, data = request(server, "/grid?dims=4,6&precisions=1,32")
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = data.decode("utf-8").strip().splitlines()
        rows = [json.loads(line) for line in lines]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = server.service.engine.run(with_measures=True)
        assert rows == [record.to_row() for record in expected]

    def test_bad_axis_is_400(self, server):
        status, payload = get_json(server, "/grid?dims=four")
        assert status == 400
        assert "dims" in payload["error"]

    def test_unknown_algorithm_is_400_not_a_broken_stream(self, server):
        # Axis validation is eager: the 400 lands *before* the streaming 200
        # is committed, so scripts checking the status code see the failure.
        status, payload = get_json(server, "/grid?algorithms=nope")
        assert status == 400
        assert "nope" in payload["error"]

    def test_duplicate_axis_values_are_400(self, server):
        status, payload = get_json(server, "/grid?dims=4,4")
        assert status == 400
        assert "duplicate" in payload["error"]


class TestKeepAlive:
    def test_connection_reused_across_requests(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("GET", "/healthz")
        first = conn.getresponse()
        first.read()
        assert first.getheader("Connection") == "keep-alive"
        sock = conn.sock
        conn.request("GET", "/metrics")
        second = conn.getresponse()
        second.read()
        assert second.status == 200
        assert conn.sock is sock, "server closed a keep-alive connection"
        conn.close()

    def test_connection_close_is_honoured(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("GET", "/healthz", headers={"Connection": "close"})
        response = conn.getresponse()
        response.read()
        assert response.getheader("Connection") == "close"
        conn.close()


class TestArtifactsEndpoint:
    def test_put_head_get_delete_round_trip(self, server):
        payload = b'{"eis": 0.5}'
        # PUT carries raw bytes, not JSON: drive http.client directly.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("PUT", "/artifacts/testkind/cafe0123.json", body=payload,
                     headers={"Content-Type": "application/octet-stream"})
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["bytes"] == len(payload)

        conn.request("HEAD", "/artifacts/testkind/cafe0123.json")
        head = conn.getresponse()
        head.read()
        assert head.status == 200

        conn.request("GET", "/artifacts/testkind/cafe0123.json")
        got = conn.getresponse()
        data = got.read()
        assert got.status == 200
        assert got.getheader("Content-Type") == "application/octet-stream"
        # A memory-only node decodes peer payloads into its object tier and
        # re-encodes on the way out: equality is semantic, not byte-exact
        # (disk-backed nodes serve byte-exact copies; see test_peer_store).
        assert json.loads(data) == json.loads(payload)

        conn.request("DELETE", "/artifacts/testkind/cafe0123.json")
        deleted = conn.getresponse()
        deleted.read()
        assert deleted.status == 200

        conn.request("GET", "/artifacts/testkind/cafe0123.json")
        missing = conn.getresponse()
        missing.read()
        assert missing.status == 404
        conn.close()

    def test_serves_memory_only_artifacts(self, server):
        # The module server has no disk tier; /measure artifacts live only in
        # the object memory tier and are encoded on the fly for peers.
        get_json(server, "/measure?algorithm=svd&dim=4&precision=1")
        store = server.service.store
        key = next(iter(store.memory_entries("measures")))
        response, data = request(server, f"/artifacts/measures/{key}.json")
        assert response.status == 200
        assert json.loads(data).keys() == {
            "eis", "1-knn", "pip", "1-eigenspace-overlap", "semantic-displacement"
        }

    def test_traversal_and_junk_names_are_404(self, server):
        for path in (
            "/artifacts/..%2F..%2Fetc/passwd.json",
            "/artifacts/kind/key.tmp",
            "/artifacts/kind/.hidden.json",
            "/artifacts/kind/sub%2Fdir.json",
            "/artifacts/kind",
        ):
            status, payload = get_json(server, path)
            assert status == 404, path

    def test_put_without_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("PUT", "/artifacts/testkind/feed0123.json")
        response = conn.getresponse()
        response.read()
        assert response.status == 400
        conn.close()


class TestReadBounds:
    """Slow and excess clients are dropped instead of pinning the server."""

    def test_trickled_request_is_dropped_after_read_timeout(self, server, monkeypatch):
        # A client that sends a request line plus a huge Content-Length and
        # then stalls must be disconnected once the read timeout expires --
        # without the bound it would pin the buffered bytes and the
        # connection task forever.
        monkeypatch.setattr(api_module, "_READ_TIMEOUT", 0.3)
        with live_server(server.service) as api:
            sock = socket.create_connection(("127.0.0.1", api.port), timeout=30)
            sock.sendall(
                b"PUT /artifacts/kind/aaaa.npz HTTP/1.1\r\n"
                b"Content-Length: 1000000\r\n\r\npartial"
            )
            sock.settimeout(30)
            # EOF (or a reset) with no response bytes: the server dropped
            # the connection instead of waiting for the rest of the body.
            try:
                data = sock.recv(1024)
            except ConnectionResetError:
                data = b""
            assert data == b""
            sock.close()

    def test_connections_beyond_the_cap_get_503(self, server, monkeypatch):
        monkeypatch.setattr(api_module, "_MAX_CONNECTIONS", 1)
        with live_server(server.service) as api:
            # One idle connection occupies the single slot...
            first = socket.create_connection(("127.0.0.1", api.port), timeout=30)
            try:
                deadline = 30.0
                # ...so the next connection must be turned away with a 503.
                # Poll briefly: the first handler task registers on accept.
                import time

                status = None
                start = time.monotonic()
                while time.monotonic() - start < deadline:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", api.port, timeout=30
                    )
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                    conn.close()
                    if status == 503:
                        break
                    time.sleep(0.05)
                assert status == 503
            finally:
                first.close()


class TestMetricsAndErrors:
    def test_metrics_counts_the_traffic(self, server):
        status, payload = get_json(server, "/metrics")
        assert status == 200
        serving = payload["serving"]
        assert serving["requests_measure"] >= 1
        assert serving["requests_select"] >= 1
        assert serving["requests_grid"] >= 1
        assert serving["records_streamed"] >= 4
        assert "store" in payload and "measures" in payload["store"]
        assert payload["pipeline"]["corpus_build_count"] == 1

    def test_store_gauge_counts_pair_and_array_bytes(self, server, embedding_pair):
        store = server.service.store
        before = store.bytes_in_memory()
        assert get_json(server, "/metrics")[1]["store_io"]["bytes_in_memory"] == before
        arrays = {"P": np.ones((6, 3)), "Ra": np.arange(3.0)}
        store.put_embedding_pair("gauge-pair", "a" * 24, embedding_pair)
        store.put_arrays("gauge-arrays", "a" * 24, arrays)
        added = sum(emb.vectors.nbytes for emb in embedding_pair) + sum(
            array.nbytes for array in arrays.values()
        )
        assert store.bytes_in_memory() == before + added
        status, metrics = get_json(server, "/metrics")
        assert status == 200
        assert metrics["store_io"] == {"bytes_in_memory": before + added}

    def test_unknown_path_is_404(self, server):
        status, payload = get_json(server, "/nope")
        assert status == 404
        assert "/measure" in payload["paths"]

    def test_unsupported_method_is_405(self, server):
        status, payload = get_json(server, "/healthz", method="PUT")
        assert status == 405

    def test_malformed_json_body_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/measure", body="{not json", headers={})
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_malformed_content_length_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.putrequest("GET", "/healthz", skip_accept_encoding=True)
        conn.putheader("Content-Length", "abc")
        conn.endheaders()
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_headers_are_431(self, server):
        # A fast client streaming endless header lines must be cut off at
        # the header-size cap, not buffered until the read timeout.
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        filler = b"x-filler: " + b"a" * 1000 + b"\r\n"
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            for _ in range(20):                    # ~20 KB > 16 KB cap
                sock.sendall(filler)
        except (BrokenPipeError, ConnectionResetError):
            pass                                   # server already answered
        sock.settimeout(30)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
        assert b" 431 " in data.split(b"\r\n", 1)[0]
        sock.close()


class TestClusterEndpoints:
    """HTTP surface of the coordinator (full protocol in tests/cluster/)."""

    def test_lease_answers_idle_without_runs(self, server):
        status, payload = get_json(
            server, "/cluster/lease", method="POST", body={"worker": "w1"}
        )
        assert status == 200
        assert payload == {"status": "idle"}

    def test_lease_without_worker_is_400(self, server):
        status, payload = get_json(server, "/cluster/lease", method="POST", body={})
        assert status == 400
        assert "worker" in payload["error"]

    def test_heartbeat_for_unknown_lease_is_gone(self, server):
        status, payload = get_json(
            server, "/cluster/heartbeat", method="POST",
            body={"worker": "w1", "lease_id": "nope"},
        )
        assert status == 200 and payload["status"] == "gone"

    def test_complete_for_unknown_run_is_reported(self, server):
        status, payload = get_json(
            server, "/cluster/complete", method="POST",
            body={"worker": "w1", "lease_id": "x", "run_id": "run-9999",
                  "group_index": 0, "records": []},
        )
        assert status == 200 and payload["status"] == "unknown-run"

    def test_status_snapshot_and_unknown_run_404(self, server):
        status, payload = get_json(server, "/cluster/status")
        assert status == 200
        assert "counters" in payload and "workers" in payload
        status, _ = get_json(server, "/cluster/status?run_id=run-9999")
        assert status == 404

    def test_grid_config_requires_distributed(self, server):
        status, payload = get_json(
            server, "/grid", method="POST",
            body={"config": {"algorithms": ["svd"]}, "distributed": False},
        )
        assert status == 400
        assert "distributed" in payload["error"]

    def test_grid_config_must_be_an_object(self, server):
        status, payload = get_json(server, "/grid?distributed=true&config=notjson")
        assert status == 400
        assert "config" in payload["error"]

    def test_grid_bad_config_field_is_400(self, server):
        # Retired fields (now module constants) are unknown fields too.
        for field in ("not_a_field", "eis_alpha", "anchor_dim"):
            status, payload = get_json(
                server, "/grid", method="POST",
                body={"distributed": True, "config": {field: 1}},
            )
            assert status == 400
            assert field in payload["error"]


class TestAbandonedGridCancellation:
    """A client hanging up mid-/grid stops the computation (ROADMAP item)."""

    def test_socket_close_cancels_the_stream_at_a_record_boundary(
        self, server, monkeypatch
    ):
        import time as time_module

        from repro.instability.grid import GridRecord

        total = 500
        produced: list[int] = []
        closed = threading.Event()

        def fake_run_iter(**kwargs):
            def gen():
                try:
                    for index in range(total):
                        produced.append(index)
                        yield GridRecord(
                            algorithm="svd", task="sst2", dim=4, precision=1,
                            seed=index, disagreement=0.1,
                            accuracy_a=0.9, accuracy_b=0.9, measures={},
                        )
                        time_module.sleep(0.02)
                finally:
                    closed.set()
            return gen()

        monkeypatch.setattr(server.service.engine, "run_iter", fake_run_iter)
        before = server.service.metrics()["serving"]["grids_cancelled"]

        sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        sock.sendall(b"GET /grid?dims=4&precisions=1 HTTP/1.1\r\nHost: t\r\n\r\n")
        sock.settimeout(30)
        data = b""
        while b"\r\n\r\n" not in data or b"algorithm" not in data:
            data += sock.recv(4096)              # headers + at least one record
        sock.close()                             # abandon the stream

        # The EOF watchdog cancels the grid: the producer stops at the next
        # record boundary and the generator's cleanup runs -- long before all
        # 500 paced records (10s of compute) would have been produced.
        assert closed.wait(timeout=15), "record generator was never closed"
        assert len(produced) < total
        serving = server.service.metrics()["serving"]
        assert serving["grids_cancelled"] == before + 1
        assert serving["grids_inflight"] == 0

    def test_completed_stream_is_not_counted_cancelled(self, server):
        before = server.service.metrics()["serving"]["grids_cancelled"]
        response, data = request(server, "/grid?dims=4&precisions=1")
        assert response.status == 200
        assert data.decode().strip().splitlines()
        assert server.service.metrics()["serving"]["grids_cancelled"] == before


class TestMeasureFastAndETag:
    def test_if_none_match_revalidates_304(self, server):
        path = "/measure?algorithm=svd&dim=4&precision=1&measures=pip,eis"
        first, _ = request(server, path)
        etag = first.getheader("ETag")
        second, body = request(server, path, headers={"If-None-Match": etag})
        assert second.status == 304
        assert body == b""
        assert second.getheader("ETag") == etag

    def test_exact_mode_304_too(self, server):
        path = "/measure?algorithm=svd&dim=4&precision=1"
        first, _ = request(server, path)
        etag = first.getheader("ETag")
        second, body = request(server, path, headers={"If-None-Match": etag})
        assert second.status == 304 and body == b""

    def test_stale_etag_still_answers_200(self, server):
        path = "/measure?algorithm=svd&dim=4&precision=1"
        response, data = request(server, path, headers={"If-None-Match": '"stale"'})
        assert response.status == 200
        assert json.loads(data)["measures"]
