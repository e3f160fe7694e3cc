"""Warm /measure answers written from stored bytes.

A server keeps each computed /measure 200 body under its ETag and writes a
repeat from those bytes.  Pinned here: a repeat is byte-identical to the
computed answer, a hit calls no service method yet counts as the computed
answer did, the table is bounded, errors and 304s are never stored,
identical cold requests still coalesce, and a request carrying ``fast=`` or
``tolerance=`` gets the exact answer.
"""

import json
import threading
import time
import warnings

import pytest

from repro.serving import StabilityService
from repro.serving import api as api_module
from repro.serving.api import quick_serve_config

from tests.live import live_server
from tests.serving.test_api import request

CELL = "/measure?algorithm=svd&dim=4&precision=1"
#: CELL, and CELL with ``fast=`` and ``tolerance=``: /measure does not read
#: them, so every path names CELL's one exact answer.
PATHS = {
    "exact": CELL,
    "fast": CELL + "&fast=true&tolerance=10",
    "escalated": CELL + "&fast=true&tolerance=1e-12",
    "nan": CELL + "&fast=true&tolerance=nan",
}


def _quiet_service() -> StabilityService:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return StabilityService(quick_serve_config())


@pytest.fixture(scope="module")
def service():
    svc = _quiet_service()
    yield svc
    svc.close()


@pytest.fixture()
def server(service):
    """A new server, and so an empty body table, over the module's service."""
    with live_server(service) as api:
        yield api


@pytest.fixture()
def measure_calls(monkeypatch):
    """Every ``StabilityService.measure`` call made while the test runs."""
    calls = []
    original = StabilityService.measure

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StabilityService, "measure", counting)
    return calls


def _serving(server) -> dict:
    return server.service.metrics()["serving"]


class TestByteIdentity:
    @pytest.mark.parametrize("mode", sorted(PATHS))
    def test_repeat_equals_the_computed_answer(self, server, mode):
        first, computed = request(server, PATHS[mode])
        hits = _serving(server)["measure_body_hits"]
        again, stored = request(server, PATHS[mode])
        assert _serving(server)["measure_body_hits"] == hits + 1
        assert first.status == again.status == 200
        assert stored == computed
        assert again.getheader("ETag") == first.getheader("ETag")
        assert again.getheader("Content-Type") == "application/json"

    def test_post_body_equals_get(self, server):
        _, via_get = request(server, PATHS["fast"])
        response, via_post = request(
            server, "/measure", method="POST",
            body={"algorithm": "svd", "dim": 4, "precision": 1,
                  "fast": True, "tolerance": 10},
        )
        assert response.status == 200
        assert via_post == via_get


class TestHit:
    @pytest.mark.parametrize("mode", sorted(PATHS))
    def test_a_hit_calls_nothing_and_counts_as_computed(
        self, server, measure_calls, mode
    ):
        request(server, PATHS[mode])                 # computed and stored
        calls = len(measure_calls)
        lookups = server.service.store.stat("measures").lookups
        before = _serving(server)
        response, _ = request(server, PATHS[mode])
        after = _serving(server)
        assert response.status == 200
        assert len(measure_calls) == calls
        assert server.service.store.stat("measures").lookups == lookups
        assert after["requests_measure"] == before["requests_measure"] + 1
        assert after["measure_body_hits"] == before["measure_body_hits"] + 1

    def test_revalidation_is_a_304_not_a_hit(self, server, measure_calls):
        path = "/measure?algorithm=svd&dim=6&precision=1"
        first, _ = request(server, path)
        etag = first.getheader("ETag")
        hits = _serving(server)["measure_body_hits"]
        response, body = request(server, path, headers={"If-None-Match": etag})
        assert response.status == 304 and body == b""
        assert response.getheader("ETag") == etag
        assert _serving(server)["measure_body_hits"] == hits
        assert len(measure_calls) == 1

    def test_a_304_is_never_stored(self, service, measure_calls):
        path = "/measure?algorithm=svd&dim=6&precision=32"
        with live_server(service) as first_server:
            etag = request(first_server, path)[0].getheader("ETag")
        with live_server(service) as server:
            response, _ = request(server, path, headers={"If-None-Match": etag})
            assert response.status == 304
            response, body = request(server, path)
        assert response.status == 200 and json.loads(body)["measures"]
        assert len(measure_calls) == 2               # the 304 left no body behind


class TestFastParameters:
    @pytest.mark.parametrize("mode", sorted(PATHS))
    def test_the_answer_is_cells(self, service, mode):
        with live_server(service) as first_server:
            cell, cell_body = request(first_server, CELL)
        puts = {kind: stat.puts for kind, stat in service.store.stats.items()}
        with live_server(service) as server:
            response, body = request(server, PATHS[mode])
            etag = response.getheader("ETag")
            revalidated, _ = request(
                server, PATHS[mode], headers={"If-None-Match": cell.getheader("ETag")}
            )
        assert response.status == cell.status == 200
        assert etag == cell.getheader("ETag")
        assert body == cell_body
        assert revalidated.status == 304
        assert {kind: stat.puts for kind, stat in service.store.stats.items()} == puts


class TestBound:
    def test_the_least_recently_used_body_is_evicted(
        self, server, measure_calls, monkeypatch
    ):
        monkeypatch.setattr(api_module, "_MEASURE_BODY_ENTRIES", 2)
        first, second, third = cells = [
            f"/measure?algorithm=svd&dim={dim}&precision={precision}"
            for dim, precision in ((4, 1), (4, 32), (6, 1))
        ]
        bodies = {path: request(server, path)[1] for path in cells}
        assert len(measure_calls) == 3               # the third evicted the first

        def served(path: str) -> int:
            """Service calls the request made; its body must not change."""
            calls = len(measure_calls)
            assert request(server, path)[1] == bodies[path]
            return len(measure_calls) - calls

        assert served(second) == 0                   # now the most recent
        assert served(first) == 1                    # recomputed; evicts the third
        assert served(second) == 0
        assert served(third) == 1


class TestErrors:
    @pytest.mark.parametrize("query", [
        "algorithm=nope&dim=4&precision=1",
        "algorithm=svd&dim=4&precision=1&measures=bogus",
    ])
    def test_errors_are_never_stored(self, server, measure_calls, query):
        hits = _serving(server)["measure_body_hits"]
        for _ in range(2):
            response, body = request(server, f"/measure?{query}")
            assert response.status == 400
            assert json.loads(body)["error"]
        assert len(measure_calls) == 2
        assert _serving(server)["measure_body_hits"] == hits


class TestCoalescing:
    def test_concurrent_identical_cold_requests_compute_once(self):
        """N identical cold HTTP requests in flight share one computation."""
        service = _quiet_service()
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
        bodies, errors = [], []
        try:
            with live_server(service) as server:

                def query() -> None:
                    try:
                        response, body = request(server, CELL)
                        assert response.status == 200
                        bodies.append(body)
                    except Exception as error:  # pragma: no cover - surfaced below
                        errors.append(error)

                threads = [threading.Thread(target=query) for _ in range(n_requests)]
                threads[0].start()
                assert entered.wait(timeout=30)      # the first request computes
                for thread in threads[1:]:
                    thread.start()
                # Followers are registered as coalesced before the gate opens.
                for _ in range(500):
                    if _serving(server)["coalesced_total"] >= n_requests - 1:
                        break
                    time.sleep(0.02)
                release.set()
                for thread in threads:
                    thread.join(timeout=60)
                trainings = service.pipeline.embedding_train_count
                repeat = request(server, CELL)[1]
                metrics = _serving(server)
        finally:
            release.set()
            service.pipeline.compute_measures = original
            service.close()

        assert not errors
        assert len(compute_calls) == 1               # exactly one computation
        assert len(bodies) == n_requests and set(bodies) == {repeat}
        assert metrics["coalesced_total"] == n_requests - 1
        assert metrics["requests_measure"] == n_requests + 1
        assert metrics["measure_body_hits"] == 1
        assert service.pipeline.store.stat("measures").puts == 1
        # Every embedding pair the cell needs was trained once, and the
        # stored repeat trained nothing.
        assert trainings == len(service.store.memory_entries("embedding_pair")) > 0
        assert service.pipeline.embedding_train_count == trainings
