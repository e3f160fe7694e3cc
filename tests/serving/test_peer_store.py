"""Two-store peer tests: node B warm-serves artifacts node A computed.

Node A is a real ``repro-serve``-style server (asyncio API on an ephemeral
port) over a disk-backed store whose grid has been fully executed.  Node B
builds a fresh pipeline whose store uses A as a remote tier -- the
multi-host deployment the sharded/remote storage subsystem exists for --
and must reproduce A's records bit-identically with **zero retrainings and
zero new decompositions**, all artifacts flowing over ``/artifacts``.
"""

import warnings

import numpy as np
import pytest

from repro.engine import ArtifactStore, GridEngine, RemoteBackend
from repro.engine.codecs import ARRAYS_CODEC
from repro.engine import stats as engine_stats
from repro.serving import StabilityService
from repro.serving.api import quick_serve_config

from tests.live import live_server


@pytest.fixture(scope="module")
def peer(tmp_path_factory):
    """(server, warm grid records) -- node A, fully warmed, serving HTTP."""
    root = tmp_path_factory.mktemp("store-a")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        service = StabilityService(quick_serve_config(), store=ArtifactStore(root))
        records = service.engine.run(with_measures=True)
    with service, live_server(service) as api:
        yield api, records


def peer_url(api) -> str:
    return f"http://127.0.0.1:{api.port}"


@pytest.fixture()
def backend(peer):
    """A ``RemoteBackend`` on node A, closed after the test."""
    remote = RemoteBackend(peer_url(peer[0]))
    yield remote
    remote.close()


@pytest.fixture()
def node_b_store(peer):
    """Node B's stores: ``node_b_store(root)`` has node A as its remote
    tier.  Their connections close after the test."""
    stores = []

    def make(root=None) -> ArtifactStore:
        stores.append(ArtifactStore(root, remote_url=peer_url(peer[0])))
        return stores[-1]

    yield make
    for store in stores:
        for remote in store.remote_peers():
            remote.close()


class TestRemoteBackendAgainstLivePeer:
    def test_round_trip_and_contains(self, backend):
        backend.put("testkind", "abc123.json", b'{"x": 1}')
        assert backend.contains("testkind", "abc123.json")
        assert backend.get("testkind", "abc123.json") == b'{"x": 1}'
        backend.delete("testkind", "abc123.json")
        assert not backend.contains("testkind", "abc123.json")
        assert backend.get("testkind", "abc123.json") is None
        assert backend.stats.errors == 0

    def test_a_decomposition_sized_payload_round_trips_verbatim(self, backend):
        payload = ARRAYS_CODEC.encode(
            {"u": np.random.default_rng(0).standard_normal((64, 64))}
        )
        backend.put("testkind", "large.npz", payload)
        assert backend.get("testkind", "large.npz") == payload
        assert backend.stats.errors == 0

    def test_fetches_artifacts_the_peer_computed(self, peer, backend):
        api, _ = peer
        store_a = api.service.store
        kind = "measures"
        keys = list(store_a.memory_entries(kind))
        assert keys, "warm peer should hold measure artifacts"
        payload = backend.get(kind, f"{keys[0]}.json")
        assert payload is not None
        assert payload == store_a.get_bytes(kind, f"{keys[0]}.json")

    def test_many_gets_reuse_one_connection(self, backend):
        backend.put("testkind", "reuse.json", b"{}")
        sockets = set()
        for _ in range(5):
            assert backend.get("testkind", "reuse.json") == b"{}"
            sockets.add(id(backend.client._connection().sock))
        assert len(sockets) == 1, "keep-alive should reuse the TCP connection"


class TestPeerWarmGrid:
    def test_remote_tier_warm_rerun_is_bit_identical_with_zero_training(
        self, peer, node_b_store
    ):
        api, records_a = peer
        store_b = node_b_store()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine_b = GridEngine(quick_serve_config(), store=store_b)
            records_b = engine_b.run(with_measures=True)

        assert records_b == records_a          # dataclass equality: exact floats

        snapshot = engine_stats(engine_b)
        assert snapshot["pipeline"]["embedding_train_count"] == 0
        assert snapshot["pipeline"]["downstream_train_count"] == 0
        # Warm measures short-circuit before decompositions: none computed.
        assert snapshot["store"].get("decomposition", {}).get("puts", 0) == 0
        assert snapshot["store"].get("embedding_pair", {}).get("puts", 0) == 0
        assert snapshot["store"]["measures"]["puts"] == 0
        assert snapshot["store"]["measures"]["hits"] > 0
        (remote,) = snapshot["store_tiers"]
        assert remote["name"] == "remote" and remote["hits"] > 0
        assert remote["errors"] == 0

    def test_disk_plus_remote_promotes_peer_artifacts_to_disk(
        self, peer, node_b_store, tmp_path
    ):
        api, records_a = peer
        store = node_b_store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = GridEngine(quick_serve_config(), store=store)
            records = engine.run(with_measures=True)
        assert records == records_a
        assert engine.pipeline.embedding_train_count == 0

        # Promotion made the artifacts local: a disk-only store now serves the
        # whole grid without the peer (and without training).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            offline_engine = GridEngine(
                quick_serve_config(), store=ArtifactStore(tmp_path)
            )
            offline = offline_engine.run(with_measures=True)
        assert offline == records_a
        assert offline_engine.pipeline.embedding_train_count == 0

    def test_artifacts_computed_on_b_replicate_back_to_a(self, peer, node_b_store):
        api, _ = peer
        store_b = node_b_store()
        store_b.put_json("replication", "fresh-key", {"value": 42})
        # Node A's store now holds the payload (written through /artifacts).
        assert api.service.store.get_json("replication", "fresh-key") == {"value": 42}
