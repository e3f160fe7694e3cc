"""Chaos tests: the grid survives replica loss with bit-identical results.

Two layers of violence:

* **in-process** -- a :class:`~repro.engine.faults.FaultyBackend` partitions
  one of two store replicas *mid* ``GridEngine.run_iter``; the run must
  finish bit-identical to a fault-free serial run, the surviving replica
  must hold every artifact (zero loss), and read-repair must restore the
  recovered replica to full coverage;
* **live HTTP** -- a real coordinator plus storage-peer ``repro-serve``
  replicas and in-process cluster workers mounted on the replica fabric;
  one storage peer dies and the fleet keeps serving warm, then an empty
  replacement peer is healed back to full coverage by read-repair.
"""

import contextlib
import http.client
import json
import threading
import warnings

import pytest

from repro.cluster import ClusterWorker
from repro.engine import GridEngine
from repro.engine.backends import DiskBackend, ReplicatedBackend
from repro.engine.faults import FaultyBackend
from repro.engine.store import ArtifactStore
from repro.serving import ServiceConfig, StabilityService
from repro.serving.api import quick_serve_config

from tests.live import live_server


def reference_run():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GridEngine(quick_serve_config()).run(with_measures=True)


def replicated_engine(replicas):
    store = ArtifactStore(backends=[ReplicatedBackend(replicas)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GridEngine(quick_serve_config(), store=store)


class DiesMidRun(FaultyBackend):
    """A replica that partitions itself after its Nth write.

    The serial scheduler commits every artifact before streaming records, so
    a record-triggered kill would land after the write stream ended; dying
    on a write count guarantees the loss happens *mid-run*, with artifacts
    still in flight.
    """

    def __init__(self, inner, *, die_after_puts: int) -> None:
        super().__init__(inner)
        self.die_after_puts = die_after_puts

    def _put(self, kind, name, payload) -> None:
        super()._put(kind, name, payload)
        if self.stats.puts >= self.die_after_puts and not self.partitioned:
            self.partition()


class TestGridSurvivesReplicaLoss:
    def test_partition_mid_run_bit_identical_zero_loss_then_repair(self, tmp_path):
        dir_a, dir_b = tmp_path / "replica-a", tmp_path / "replica-b"
        faulty_a = DiesMidRun(DiskBackend(dir_a), die_after_puts=5)
        engine = replicated_engine([faulty_a, DiskBackend(dir_b)])
        replicated = engine.store.tiers[0]

        # Stream the grid; replica A dies after its fifth write, so the rest
        # of the run writes into a degraded fabric.
        records = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for record in engine.run_iter(with_measures=True):
                records.append(record)

        # Bit-identical to a fault-free serial run; nothing raised.
        assert records == reference_run()
        assert faulty_a.partitioned  # the kill actually happened mid-run
        # Writes aimed at the dead replica were hinted, not lost.
        assert replicated.hints_queued > 0

        # Zero artifact loss: the SURVIVING replica alone serves a warm rerun
        # without a single retraining.
        survivor = replicated_engine([DiskBackend(dir_b)])
        assert survivor.run(with_measures=True) == records
        assert survivor.pipeline.embedding_train_count == 0
        assert survivor.pipeline.downstream_train_count == 0

        # Recovery: replica A comes back (empty of everything written while
        # partitioned).  A warm reader over [A, B] read-repairs A on every
        # miss and still trains nothing.
        healed = replicated_engine([DiskBackend(dir_a), DiskBackend(dir_b)])
        healed_tier = healed.store.tiers[0]
        assert healed.run(with_measures=True) == records
        assert healed.pipeline.embedding_train_count == 0
        assert healed_tier.repairs > 0

        # Read-repair restored A to full coverage: A alone now serves the
        # whole grid warm.
        solo = replicated_engine([DiskBackend(dir_a)])
        assert solo.run(with_measures=True) == records
        assert solo.pipeline.embedding_train_count == 0

    def test_flaky_replica_never_poisons_results(self, tmp_path):
        # Probabilistic chaos: one replica fails ~30% of operations and
        # corrupts ~30% of the payloads it does return.  Validation turns
        # corrupt copies into repairable misses; results stay bit-identical.
        import random

        flaky = FaultyBackend(
            DiskBackend(tmp_path / "flaky"),
            error_rate=0.3,
            corrupt_rate=0.3,
            rng=random.Random(1234),
        )
        engine = replicated_engine([flaky, DiskBackend(tmp_path / "stable")])
        assert engine.run(with_measures=True) == reference_run()

        warm = replicated_engine([DiskBackend(tmp_path / "stable")])
        assert warm.run(with_measures=True) == reference_run()
        assert warm.pipeline.embedding_train_count == 0


# -- live-HTTP fleet chaos ------------------------------------------------------


def stream_grid(port: int) -> list[dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    conn.request("GET", "/grid?distributed=true")
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


def run_grid(api_port: int, url: str, replicas: list[str], worker_id: str):
    """Stream one distributed grid executed by a fresh (cold-memory) worker.

    A fresh worker per phase keeps the phases honest: nothing can be served
    from a previous worker's warm pipeline cache, only from the replica
    fabric under test.
    """
    worker = ClusterWorker(
        url, worker_id=worker_id, store_replicas=replicas, poll_interval=0.05
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        rows = stream_grid(api_port)
    finally:
        worker.stop()
        thread.join(timeout=60)
    return rows, worker


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    """A coordinator + two storage-peer servers, all live HTTP."""
    root = tmp_path_factory.mktemp("fabric")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        replica_a = StabilityService(
            quick_serve_config(), store=ArtifactStore(root / "replica-a")
        )
        replica_b = StabilityService(
            quick_serve_config(), store=ArtifactStore(root / "replica-b")
        )
    with contextlib.ExitStack() as stack, contextlib.ExitStack() as server_b:
        stack.enter_context(replica_a)
        stack.enter_context(replica_b)
        api_a = stack.enter_context(live_server(replica_a))
        api_b = server_b.enter_context(live_server(replica_b))
        url_a = f"http://127.0.0.1:{api_a.port}"
        url_b = f"http://127.0.0.1:{api_b.port}"

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            coordinator = StabilityService(
                quick_serve_config(),
                store=ArtifactStore(replicas=[url_a, url_b]),
                config=ServiceConfig(lease_ttl=30),
            )
        stack.enter_context(coordinator)
        api_c = stack.enter_context(live_server(coordinator))
        yield {
            "api": api_c, "url": f"http://127.0.0.1:{api_c.port}",
            "url_a": url_a, "url_b": url_b,
            "kill_b": server_b.close,
            "root": root,
        }


class TestClusterSurvivesStoragePeerDeath:
    def test_peer_death_recovery_and_read_repair(self, fabric):
        api, url = fabric["api"], fabric["url"]
        replicas = [fabric["url_a"], fabric["url_b"]]
        expected = [record.to_row() for record in reference_run()]

        # Phase 1: cold distributed run over the healthy fabric.
        rows, w1 = run_grid(api.port, url, replicas, "w1")
        assert rows == expected
        assert w1.stats()["embedding_train_count"] == 2  # one per dim, cold
        healthz = get_json(api.port, "/healthz")
        assert healthz["degraded"] is False
        assert {peer["url"] for peer in healthz["store_peers"]} == set(replicas)

        # Phase 2: replica B dies.  A fresh (cold-memory) worker mounted on
        # [A, B] still serves a warm rerun: every artifact comes from the
        # surviving replica, nothing retrains, records stay bit-identical.
        fabric["kill_b"]()
        warm_rows, w2 = run_grid(api.port, url, replicas, "w2")
        assert warm_rows == expected
        assert w2.stats()["embedding_train_count"] == 0
        assert w2.stats()["downstream_train_count"] == 0
        metrics = get_json(api.port, "/metrics")
        reported = metrics["cluster"]["workers"]["w2"]["reported"]
        assert reported["embedding_train_count"] == 0
        assert metrics["cluster"]["counters"]["duplicate_results"] == 0

        # The coordinator's own checkpoint writes hit the dead peer, so its
        # breaker opened and /healthz now advertises the degradation.
        healthz = get_json(api.port, "/healthz")
        assert healthz["degraded"] is True
        assert any(
            peer["url"] == fabric["url_b"] and peer["breaker_open"]
            for peer in healthz["store_peers"]
        )

        # Phase 3: an EMPTY replacement peer joins (listed first, so every
        # read probes it, misses, and read-repairs it from A).  The rerun
        # still trains nothing and the repair counters go nonzero.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            replacement = StabilityService(
                quick_serve_config(),
                store=ArtifactStore(fabric["root"] / "replica-c"),
            )
        with replacement, live_server(replacement) as api_r:
            url_r = f"http://127.0.0.1:{api_r.port}"
            repaired_rows, w3 = run_grid(
                api.port, url, [url_r, fabric["url_a"]], "w3"
            )
            assert repaired_rows == expected
            stats = w3.stats()
            assert stats["embedding_train_count"] == 0
            assert stats["store_repairs"] > 0
            # The coordinator's /metrics surfaces the repair activity too.
            metrics = get_json(api.port, "/metrics")
            assert metrics["cluster"]["workers"]["w3"]["reported"]["store_repairs"] > 0

            # Phase 4: the replacement alone now holds full coverage -- a
            # worker mounted ONLY on it serves the whole grid warm.
            solo_rows, w4 = run_grid(api.port, url, [url_r], "w4")
            assert solo_rows == expected
            assert w4.stats()["embedding_train_count"] == 0
