"""End-to-end distributed execution: a live coordinator + two workers.

Boots the real serving API on an ephemeral port, runs two in-process
:class:`~repro.cluster.worker.ClusterWorker` loops against it over real HTTP,
and pins the acceptance criteria: a two-worker distributed grid is
bit-identical to the serial ``GridEngine.run()``, a warm rerun trains
nothing anywhere in the cluster, and no embedding pair is ever trained
twice cluster-wide (the ancestry gate).  Worker mechanics that need no
sockets (error reporting, heartbeats, idle exit) run against a scripted
client.
"""

import asyncio
import contextlib
import http.client
import json
import threading
import time
import warnings

import pytest

from repro.cluster import ClusterWorker, CoordinatorClient, config_wire_payload
from repro.cluster import worker as worker_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.engine import GridEngine, RemoteBackend, plan_grid
from repro.engine import store as store_module
from repro.serving import ServiceConfig, StabilityService
from repro.serving.api import StabilityAPIServer, quick_serve_config


@contextlib.contextmanager
def live_api(service):
    """``service`` behind a real HTTP server on an ephemeral port."""
    api = StabilityAPIServer(service, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run_server() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(api.start())
        started.set()
        loop.run_forever()

    server_thread = threading.Thread(target=run_server, daemon=True)
    server_thread.start()
    assert started.wait(timeout=30), "server failed to start"
    try:
        yield api
    finally:
        asyncio.run_coroutine_threadsafe(api.stop(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        server_thread.join(timeout=10)
        loop.close()


@contextlib.contextmanager
def live_cluster():
    """A live coordinator (real HTTP server) plus two polling workers."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config(), config=ServiceConfig(lease_ttl=30))
    with live_api(service) as api:
        url = f"http://127.0.0.1:{api.port}"
        workers = [
            ClusterWorker(url, worker_id=f"worker-{index}", poll_interval=0.05)
            for index in range(2)
        ]
        threads = [threading.Thread(target=worker.run, daemon=True) for worker in workers]
        for thread in threads:
            thread.start()
        try:
            yield api, url, workers
        finally:
            for worker in workers:
                worker.stop()
            for thread in threads:
                thread.join(timeout=30)
    service.close()


@pytest.fixture(scope="module")
def cluster():
    with live_cluster() as running:
        yield running


def stream_grid(port: int, query: str = "") -> list[dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    conn.request("GET", f"/grid?distributed=true{query}")
    response = conn.getresponse()
    assert response.status == 200
    rows = [json.loads(line) for line in response.read().decode().strip().splitlines()]
    conn.close()
    return rows


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("GET", path)
    payload = json.loads(conn.getresponse().read())
    conn.close()
    return payload


def total_trainings(workers) -> tuple[int, int]:
    embedding = sum(w.stats()["embedding_train_count"] for w in workers)
    downstream = sum(w.stats()["downstream_train_count"] for w in workers)
    return embedding, downstream


class TestDistributedGrid:
    def test_two_workers_bit_identical_and_warm_rerun_trains_nothing(self, cluster):
        api, url, workers = cluster

        # Cold distributed run, leased to the two-worker fleet.
        rows = stream_grid(api.port)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = GridEngine(quick_serve_config()).run(with_measures=True)
        assert rows == [record.to_row() for record in expected]

        # Zero duplicate trainings cluster-wide: the quick grid has exactly
        # two unique embedding pairs (dims 4 and 6); the ancestry gate plus
        # the coordinator store tier guarantee each is trained exactly once
        # across both workers, no matter who got which lease.
        embedding_cold, downstream_cold = total_trainings(workers)
        assert embedding_cold == 2
        assert downstream_cold == len(expected) * 2   # two models per cell, once

        # Warm rerun: bit-identical records, zero new trainings anywhere.
        warm_rows = stream_grid(api.port)
        assert warm_rows == rows
        assert total_trainings(workers) == (embedding_cold, downstream_cold)

        # The coordinator observed all of it.
        metrics = get_json(api.port, "/metrics")
        cluster_stats = metrics["cluster"]
        assert cluster_stats["counters"]["runs_completed"] >= 2
        assert cluster_stats["counters"]["duplicate_results"] == 0
        assert cluster_stats["counters"]["group_failures"] == 0
        reported = [
            row["reported"]["embedding_train_count"]
            for row in cluster_stats["workers"].values()
            if row["reported"] is not None
        ]
        assert sum(reported) == embedding_cold

    def test_engine_client_streams_bit_identical_records(self, cluster):
        api, url, workers = cluster
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = GridEngine(quick_serve_config()).run(with_measures=True)
            remote = GridEngine(quick_serve_config(), coordinator_url=url).run(
                with_measures=True
            )
        assert remote == expected

    def test_cluster_status_endpoint(self, cluster):
        api, url, workers = cluster
        status = get_json(api.port, "/cluster/status")
        assert status["counters"]["leases_issued"] >= 2
        assert set(status["workers"]) >= {"worker-0", "worker-1"}

    def test_two_seeds_lease_two_ancestries_each_pair_trained_once(self, cluster):
        # Two seeds are two independent ancestries the two workers can run
        # side by side; the records still equal the serial engine's.
        api, url, workers = cluster
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = GridEngine(quick_serve_config()).run(
                with_measures=True, seeds=(1, 2)
            )
        before = total_trainings(workers)[0]
        assert stream_grid(api.port, "&seeds=1,2") == [r.to_row() for r in expected]
        assert total_trainings(workers)[0] - before == 2 * 2


class TestUnderTheMemoryBound:
    """Ancestry gating on a memory-only coordinator whose object tier evicts.

    The quick grid leaves ~26 kB on the coordinator (2 pairs, anchor
    factors, 4 measure and 4 downstream values, run checkpoints), and each
    further seed ~25 kB.  Under a bound of twice the quick grid, LRU order
    alone must keep each anchor pair until its sibling group fetches it.
    """

    BOUND = 52 * 1024

    def test_each_pair_trains_once_and_a_warm_rerun_trains_nothing(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_TIER_BYTES", self.BOUND)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = [
                record.to_row()
                for record in GridEngine(quick_serve_config()).run(with_measures=True)
            ]
        with live_cluster() as (api, url, workers):
            store = api.service.store
            # Fill the coordinator past its bound with other seeds' artifacts.
            assert len(stream_grid(api.port, "&seeds=1,2,3")) == 3 * len(expected)
            assert total_trainings(workers)[0] == 3 * 2
            assert sum(stat.evictions for stat in store.stats.values()) > 0
            assert store.bytes_in_memory() <= self.BOUND

            assert stream_grid(api.port) == expected
            trained = total_trainings(workers)
            assert trained[0] == 4 * 2                  # seed 0's 2 pairs, once each
            assert stream_grid(api.port) == expected
            assert total_trainings(workers) == trained  # warm: nothing retrained


def count_handled(monkeypatch, api, route: str, worker: str) -> list[str]:
    """A list that grows by one each time the server handles ``worker``'s
    request on ``route``."""
    handled: list[str] = []
    handler = api._routes[route]

    async def counting(request):
        if request.params.get("worker") == worker:
            handled.append(route)
        return await handler(request)

    monkeypatch.setitem(api._routes, route, counting)
    return handled


class TestCoordinatorClient:
    """The worker's transport sends a POST again only if no answer came."""

    def test_a_non_200_answer_is_raised_not_posted_again(self, cluster, monkeypatch):
        api, url, workers = cluster
        handled = count_handled(monkeypatch, api, "/cluster/complete", "client-t")
        client = CoordinatorClient(url)
        try:
            with pytest.raises(ConnectionError, match="HTTP 400"):
                client.complete("client-t", "lease-0", "", 0, [])    # empty run_id
        finally:
            client.abort()
        assert handled == ["/cluster/complete"]

    def test_a_connection_the_server_closed_is_posted_once_more(
        self, cluster, monkeypatch
    ):
        api, url, workers = cluster
        handled = count_handled(monkeypatch, api, "/cluster/lease", "client-t")
        client = CoordinatorClient(url)
        try:
            assert "status" in client.lease("client-t")
            # The server drops its idle keep-alive connections, as its
            # keep-alive timeout would: the next POST gets no answer on the
            # pooled connection and goes out again on a fresh one.
            closed = threading.Event()

            def close_connections() -> None:
                for conn in list(api._connections):
                    conn.transport.close()
                closed.set()

            api._server.get_loop().call_soon_threadsafe(close_connections)
            assert closed.wait(timeout=10)
            time.sleep(0.1)
            assert "status" in client.lease("client-t")
        finally:
            client.abort()
        assert handled == ["/cluster/lease", "/cluster/lease"]

    def test_a_finished_heartbeat_thread_leaves_no_connection_open(self, cluster):
        api, url, workers = cluster
        client = CoordinatorClient(url)
        worker = ClusterWorker(url, worker_id="client-t", client=client)
        # An unknown lease: each thread beats once, hears "gone" and ends.
        lease = {"lease_id": "no-such-lease", "ttl": 0.15}
        threads = [
            threading.Thread(target=worker._heartbeat_loop, args=(lease, threading.Event()))
            for _ in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            still_open = [conn for conn in client._conns if conn.sock is not None]
            assert still_open == []
        finally:
            client.abort()


class TestWorkerConnections:
    def test_a_stopped_worker_leaves_no_connection_open(self):
        # The worker runs on this thread against a coordinator with no other
        # worker: it executes every group of one run, idles out and returns.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config(), config=ServiceConfig(lease_ttl=30))
        with live_api(service) as api:
            config = service.pipeline.config
            service.coordinator.create_run(
                plan_grid(config, precisions=(32,)), config_wire_payload(config)
            )
            worker = ClusterWorker(
                f"http://127.0.0.1:{api.port}", worker_id="closing-t",
                poll_interval=0.05, max_idle=0.2,
            )
            peers = []
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    worker.run()
                assert worker.groups_executed > 0
                peers = [
                    peer
                    for pipeline in worker._pipelines.values()
                    for peer in pipeline.store.remote_peers()
                ]
                assert peers
                assert worker.client._conns == set()
                assert [getattr(peer._local, "conn", None) for peer in peers] == [None] * len(peers)
            finally:
                worker.client.abort()
                for peer in peers:
                    peer.close()
        service.close()


class ScriptedClient:
    """In-memory stand-in for :class:`CoordinatorClient` (no sockets)."""

    def __init__(self, leases):
        self.leases = list(leases)
        self.completions = []
        self.heartbeats = []

    def lease(self, worker):
        return self.leases.pop(0) if self.leases else {"status": "idle"}

    def heartbeat(self, worker, lease_id):
        self.heartbeats.append(lease_id)
        return {"status": "ok", "ttl": 0.15}

    def complete(self, worker, lease_id, run_id, group_index, rows,
                 stats=None, error=None, spans=None):
        self.completions.append(
            {"lease_id": lease_id, "rows": rows, "stats": stats,
             "error": error, "spans": spans}
        )
        return {"status": "ok", "accepted": len(rows)}

    def release(self):
        pass


def scripted_lease(config_payload, *, ttl=30.0, group=None):
    return {
        "status": "lease",
        "lease_id": "run-0001-lease-0001",
        "run_id": "run-0001",
        "group_index": 0,
        "group": group or {
            "algorithm": "svd", "dim": 4, "seed": 0,
            "precisions": [1], "tasks": ["sst2"],
            "with_measures": False, "model_type": "bow",
        },
        "config": config_payload,
        "ttl": ttl,
    }


@pytest.fixture()
def slow_groups(monkeypatch):
    """Group execution that outlasts a 0.15 s lease's heartbeat interval.

    A quick group can finish before the first heartbeat is due on a fast
    machine; the sleep makes the heartbeat fire during execution anywhere.
    """
    evaluate_group = worker_module.evaluate_group

    def slow(pipeline, group):
        time.sleep(0.3)
        return evaluate_group(pipeline, group)

    monkeypatch.setattr(worker_module, "evaluate_group", slow)


class TestWorkerMechanics:
    def test_step_executes_a_lease_and_reports_rows_and_stats(self, slow_groups):
        payload = config_wire_payload(quick_serve_config())
        client = ScriptedClient([scripted_lease(payload, ttl=0.15)])
        worker = ClusterWorker("http://127.0.0.1:9", worker_id="t", client=client)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert worker.step() is True
        (completion,) = client.completions
        assert completion["error"] is None
        assert len(completion["rows"]) == 1
        assert completion["rows"][0]["algorithm"] == "svd"
        assert completion["stats"]["cells_executed"] == 1
        # The heartbeat thread renewed the short lease during execution.
        assert len(client.heartbeats) >= 1
        assert worker.step() is False            # queue drained -> idle

    def test_execution_failure_is_reported_not_swallowed(self):
        bad_config = {"algorithms": ["not-an-algorithm"]}
        client = ScriptedClient([scripted_lease(bad_config)])
        worker = ClusterWorker("http://127.0.0.1:9", worker_id="t", client=client)
        assert worker.step() is True
        (completion,) = client.completions
        assert completion["rows"] == []
        assert "not-an-algorithm" in completion["error"]

    def test_run_exits_after_max_idle(self):
        client = ScriptedClient([])
        worker = ClusterWorker(
            "http://127.0.0.1:9", worker_id="t", client=client,
            poll_interval=0.01, max_idle=0.05,
        )
        worker.run()                             # returns instead of spinning

    def test_pipeline_cache_is_lru_bounded_and_stats_survive_eviction(self, monkeypatch):
        from dataclasses import replace

        monkeypatch.setattr(worker_module, "MAX_PIPELINES", 2)

        base = quick_serve_config()
        payloads = [
            config_wire_payload(replace(base, embedding_epochs=epochs))
            for epochs in (1, 2, 3)
        ]
        leases = [
            dict(scripted_lease(payload), lease_id=f"l{i}", group_index=0)
            for i, payload in enumerate(payloads)
        ]
        client = ScriptedClient(leases)
        worker = ClusterWorker("http://127.0.0.1:9", worker_id="t", client=client)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for _ in payloads:
                assert worker.step() is True
        # Only the two most recent pipelines stay warm...
        assert len(worker._pipelines) == 2
        # ...but the reported counters keep the evicted pipeline's work.
        assert client.completions[-1]["stats"]["corpus_build_count"] == 3
        assert client.completions[-1]["stats"]["cells_executed"] == 3


class TestCompletionOrdering:
    def test_every_remote_put_is_readable_on_the_peer_before_complete(
        self, monkeypatch
    ):
        # Ancestry-gated dependants are leased the moment a completion lands
        # and must find their ancestors on the coordinator.  The peer's
        # slowed writes leave a push nobody waits for no chance to land
        # before the worker reports the group complete.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            service = StabilityService(quick_serve_config())
        peer = service.store
        store_bytes = peer.put_bytes

        def slow_put_bytes(kind, name, payload):
            time.sleep(0.2)
            store_bytes(kind, name, payload)

        monkeypatch.setattr(peer, "put_bytes", slow_put_bytes)
        pushed: list[tuple[str, str]] = []
        remote_put = RemoteBackend.put

        def recording_put(self, kind, name, payload):
            pushed.append((kind, name))
            remote_put(self, kind, name, payload)

        monkeypatch.setattr(RemoteBackend, "put", recording_put)

        class CheckingClient(ScriptedClient):
            def complete(self, worker, lease_id, run_id, group_index, rows, **kwargs):
                missing = [item for item in pushed if peer.get_bytes(*item) is None]
                assert pushed and not missing, f"completed before {missing} landed"
                return super().complete(
                    worker, lease_id, run_id, group_index, rows, **kwargs
                )

        client = CheckingClient([scripted_lease(config_wire_payload(quick_serve_config()))])
        try:
            with live_api(service) as api:
                worker = ClusterWorker(
                    f"http://127.0.0.1:{api.port}", worker_id="t", client=client
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    assert worker.step() is True
                for pipeline in worker._pipelines.values():
                    for remote in pipeline.store.remote_peers():
                        remote.close()
        finally:
            service.close()
        (completion,) = client.completions
        assert completion["error"] is None and len(completion["rows"]) == 1


class FlakySequenceClient:
    """Scripted lease answers where an Exception entry raises instead."""

    def __init__(self, answers):
        self.answers = list(answers)

    def lease(self, worker):
        if not self.answers:
            return {"status": "idle"}
        answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer

    def heartbeat(self, worker, lease_id):
        return {"status": "ok", "ttl": 30.0}

    def complete(self, worker, lease_id, run_id, group_index, rows,
                 stats=None, error=None, spans=None):
        return {"status": "ok", "accepted": len(rows)}

    def release(self):
        pass


class TestWorkerBackoff:
    """Satellite: exponential backoff with jitter on coordinator outages."""

    @pytest.fixture(autouse=True)
    def _backoff_cap(self, monkeypatch):
        monkeypatch.setattr(worker_module, "BACKOFF_MAX", 2.0)

    def _worker(self, client, **kwargs):
        import random

        defaults = dict(
            worker_id="t", client=client, poll_interval=0.1, rng=random.Random(0),
        )
        defaults.update(kwargs)
        return ClusterWorker("http://127.0.0.1:9", **defaults)

    def test_connection_errors_back_off_exponentially_then_reset(self):
        # Seven straight outages, then a clean idle poll.  The run loop must
        # sleep 0.1, 0.2, 0.4, ... seconds (jittered down by at most half,
        # capped at BACKOFF_MAX) and reset the streak on the first success.
        client = FlakySequenceClient([ConnectionError("down")] * 7)
        worker = self._worker(client)
        delays = []

        def observing_sleep(seconds):
            delays.append(seconds)
            if len(delays) >= 8:                 # 7 outages + 1 idle poll
                worker.stop()

        worker._sleep = observing_sleep
        worker.run()

        failure_delays, idle_delay = delays[:7], delays[7]
        for attempt, delay in enumerate(failure_delays, start=1):
            raw = min(2.0, 0.1 * 2.0 ** (attempt - 1))
            assert raw / 2.0 <= delay <= raw, (attempt, delay)
        # The streak capped: attempts 6 and 7 both saw the 2s ceiling.
        assert failure_delays[5] >= 1.0 and failure_delays[6] >= 1.0
        # The successful idle poll reset the failure streak and its sleep
        # fell back to the (jittered) poll interval, not the backoff.
        assert worker._failures == 0
        assert 0.05 <= idle_delay <= 0.1

    def test_idle_delay_is_the_jittered_poll_interval(self):
        # The coordinator's own idle, wait and drain answers, and the same
        # answers carrying made-up hints, all sleep the jittered poll
        # interval: an idle fleet notices a new grid within poll_interval.
        coordinator = ClusterCoordinator(clock=lambda: 1.0)
        answers = [coordinator.lease("w0")]
        coordinator.create_run(plan_grid(
            quick_serve_config(), dimensions=(4, 6), seeds=(0,), with_measures=True
        ))
        assert coordinator.lease("w0")["status"] == "lease"   # the anchor group
        answers.append(coordinator.lease("w1"))              # its sibling is gated
        coordinator.drain()
        answers.append(coordinator.lease("w1"))
        assert [answer["status"] for answer in answers] == ["idle", "wait", "drain"]
        answers += [
            {**answer, **hint}
            for answer in answers
            for hint in ({"delay": 5.0}, {"delay": 0.0}, {"sleep_s": 60})
        ]
        worker = self._worker(FlakySequenceClient(answers))
        for _ in answers:
            worked, delay = worker._poll()
            assert not worked and 0.05 <= delay <= 0.1, delay
        for _ in range(20):
            assert 1.0 <= worker._backoff_delay(50) <= 2.0    # deep streaks stay capped


class BlockedHeartbeatClient(ScriptedClient):
    """A heartbeat that hangs in I/O until ``abort()`` cuts the connection."""

    def __init__(self, leases):
        super().__init__(leases)
        self.unblock = threading.Event()
        self.abort_called = threading.Event()

    def heartbeat(self, worker, lease_id):
        self.unblock.wait(timeout=10.0)
        return super().heartbeat(worker, lease_id)

    def abort(self):
        self.abort_called.set()
        self.unblock.set()


class TestHeartbeatShutdown:
    def test_stuck_heartbeat_is_aborted_not_awaited_forever(self, slow_groups, monkeypatch):
        # The short TTL makes the heartbeat fire during execution and hang;
        # the bounded join must give up and abort the client's connections
        # instead of blocking the lease (and the whole worker) for 10s.
        monkeypatch.setattr(worker_module, "HEARTBEAT_JOIN_TIMEOUT", 0.2)
        payload = config_wire_payload(quick_serve_config())
        client = BlockedHeartbeatClient([scripted_lease(payload, ttl=0.15)])
        worker = ClusterWorker("http://127.0.0.1:9", worker_id="t", client=client)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert worker.step() is True
        assert client.abort_called.is_set()
        (completion,) = client.completions
        assert completion["error"] is None and len(completion["rows"]) == 1
