"""HTTP caching of /artifacts: ETag, immutable Cache-Control, 304 validation.

Artifact names are content hashes, so the serving layer advertises every
payload as immutable and honours ``If-None-Match`` -- a CDN or browser cache
in front of a repro-serve node never needs to re-download a byte it has.
"""

import json
import warnings

import pytest

from repro.serving import StabilityService
from repro.serving.api import quick_serve_config

from tests.live import live_server

IMMUTABLE = "public, max-age=31536000, immutable"


@pytest.fixture(scope="module")
def server():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config())
    # One known artifact to probe against.
    service.store.put_json("cache-probe", "a" * 24, {"x": 1})
    with live_server(service) as api:
        yield api
    service.close()


NAME = "a" * 24 + ".json"
PATH = f"/artifacts/cache-probe/{NAME}"


def fetch(server, path, method="GET", headers=None):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    conn.request(method, path, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response, data


class TestCacheHeaders:
    def test_get_carries_etag_and_immutable_cache_control(self, server):
        response, data = fetch(server, PATH)
        assert response.status == 200
        assert response.getheader("ETag") == f'"{NAME}"'
        assert response.getheader("Cache-Control") == IMMUTABLE
        assert json.loads(data) == {"x": 1}

    def test_head_carries_cache_headers(self, server):
        response, data = fetch(server, PATH, method="HEAD")
        assert response.status == 200
        assert response.getheader("ETag") == f'"{NAME}"'
        assert response.getheader("Cache-Control") == IMMUTABLE
        assert data == b""

    def test_missing_artifact_has_no_cache_headers(self, server):
        response, _ = fetch(server, "/artifacts/cache-probe/" + "f" * 24 + ".json")
        assert response.status == 404
        assert response.getheader("ETag") is None


class TestIfNoneMatch:
    def test_matching_etag_is_304_with_empty_body(self, server):
        response, data = fetch(
            server, PATH, headers={"If-None-Match": f'"{NAME}"'}
        )
        assert response.status == 304
        assert data == b""
        assert response.getheader("ETag") == f'"{NAME}"'
        assert response.getheader("Content-Length") == "0"

    def test_unquoted_and_weak_validators_match(self, server):
        for header in (NAME, f'W/"{NAME}"', f'w/"{NAME}"'):
            response, data = fetch(server, PATH, headers={"If-None-Match": header})
            assert response.status == 304, header

    def test_candidate_list_matches(self, server):
        header = f'"zzz.json", "{NAME}"'
        response, _ = fetch(server, PATH, headers={"If-None-Match": header})
        assert response.status == 304

    def test_wildcard_matches(self, server):
        response, _ = fetch(server, PATH, headers={"If-None-Match": "*"})
        assert response.status == 304

    def test_stale_etag_serves_full_payload(self, server):
        response, data = fetch(
            server, PATH, headers={"If-None-Match": '"other.json"'}
        )
        assert response.status == 200
        assert json.loads(data) == {"x": 1}

    def test_head_honours_if_none_match(self, server):
        response, data = fetch(
            server, PATH, method="HEAD", headers={"If-None-Match": f'"{NAME}"'}
        )
        assert response.status == 304
        assert data == b""

    def test_if_none_match_on_missing_artifact_is_404(self, server):
        response, _ = fetch(
            server, "/artifacts/cache-probe/" + "e" * 24 + ".json",
            headers={"If-None-Match": "*"},
        )
        assert response.status == 404

    def test_conditional_fetch_keeps_connection_reusable(self, server):
        # A 304 must frame correctly on a keep-alive connection: a second
        # request on the same socket still answers.
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        conn.request("GET", PATH, headers={"If-None-Match": f'"{NAME}"'})
        first = conn.getresponse()
        assert first.status == 304
        first.read()
        conn.request("GET", PATH)
        second = conn.getresponse()
        assert second.status == 200
        assert json.loads(second.read()) == {"x": 1}
        conn.close()
