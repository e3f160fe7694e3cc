"""Tests for the content-addressed artifact store."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import store as store_module
from repro.engine.codecs import JSON_CODEC
from repro.engine.store import (
    ArtifactStore,
    config_hash,
    configure_default_store,
    default_store,
)


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_different_payloads_differ(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert config_hash({"a": 1}) != config_hash({"b": 1})

    def test_handles_numpy_and_dataclasses(self):
        from repro.corpus.synthetic import SyntheticCorpusConfig

        cfg = SyntheticCorpusConfig(vocab_size=10)
        key = config_hash({"cfg": cfg, "x": np.float64(1.5), "n": np.int64(3)})
        assert isinstance(key, str) and len(key) == 24
        assert key == config_hash({"cfg": cfg, "x": 1.5, "n": 3})

    def test_store_key_helper(self):
        store = ArtifactStore()
        assert store.key(a=1, b=2) == config_hash({"a": 1, "b": 2})


class TestMemoryTier:
    def test_json_round_trip_preserves_identity(self):
        store = ArtifactStore()
        store.put_json("downstream", "k", {"x": 1.25})
        assert store.get_json("downstream", "k") == {"x": 1.25}
        # The memory tier returns the stored object itself.
        assert store.get_json("downstream", "k") is store.get_json("downstream", "k")

    def test_miss_returns_none_and_counts(self):
        store = ArtifactStore()
        assert store.get_json("downstream", "absent") is None
        assert store.stat("downstream").misses == 1
        assert store.stat("downstream").hits == 0

    def test_hit_and_put_counters(self):
        store = ArtifactStore()
        store.put_json("measures", "k", {"eis": 0.5})
        store.get_json("measures", "k")
        store.get_json("measures", "k")
        stat = store.stat("measures")
        assert (stat.hits, stat.misses, stat.puts) == (2, 0, 1)
        assert stat.lookups == 2

    def test_kinds_are_isolated(self):
        store = ArtifactStore()
        store.put_json("a", "k", 1)
        assert store.get_json("b", "k") is None


class TestMemoryBound:
    """The object tier is one LRU bounded in bytes by MEMORY_TIER_BYTES."""

    @staticmethod
    def _arrays(n):
        return {"x": np.zeros(n // 8)}          # n bytes of float64

    def test_least_recently_used_entries_go_first_and_are_counted(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_TIER_BYTES", 3000)
        store = ArtifactStore()
        for key in "abc":
            store.put_arrays("d", key, self._arrays(1000))
        assert store.bytes_in_memory() == 3000
        store.get_arrays("d", "a")                # a becomes the most recent
        store.put_arrays("d", "e", self._arrays(1000))
        assert store.memory_entries("d").keys() == {"c", "a", "e"}
        assert store.bytes_in_memory() == 3000
        assert store.stat("d").evictions == 1
        assert store.get_arrays("d", "b") is None  # memory-only: gone for good

    def test_json_values_and_peer_payloads_are_charged(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_TIER_BYTES", 10**6)
        store = ArtifactStore()
        store.put_json("measures", "k", {"eis": 0.5})
        charged = len(JSON_CODEC.encode({"eis": 0.5}))
        assert store.bytes_in_memory() == charged
        payload = store.get_bytes("measures", "k.json")
        assert store.bytes_in_memory() == charged + len(payload)
        store.delete_bytes("measures", "k.json")
        assert store.bytes_in_memory() == 0 and len(store) == 0

    def test_an_evicted_artifact_is_re_read_from_a_lower_tier(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_TIER_BYTES", 1500)
        store = ArtifactStore(tmp_path)
        store.put_arrays("d", "a", self._arrays(1000))
        store.put_arrays("d", "b", self._arrays(1000))
        assert store.stat("d").evictions == 1 and len(store) == 1
        np.testing.assert_array_equal(store.get_arrays("d", "a")["x"], np.zeros(125))
        assert store.stat("d").hits == 1 and store.stat("d").evictions == 2

    def test_an_entry_larger_than_the_bound_stays_until_the_next(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_TIER_BYTES", 100)
        store = ArtifactStore()
        store.put_arrays("d", "big", self._arrays(800))
        assert store.get_arrays("d", "big") is not None
        store.put_json("m", "k", 1)
        assert store.memory_entries("d") == {}
        assert store.bytes_in_memory() == 1

    def test_the_running_total_survives_racing_threads(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEMORY_TIER_BYTES", 20_000)
        store = ArtifactStore()
        errors: list[Exception] = []

        def work(worker):
            try:
                for i in range(300):
                    key = f"{worker}-{i % 40}"
                    store.put_arrays("d", key, self._arrays(800))
                    store.get_bytes("d", f"{key}.npz")
                    store.put_json("m", key, i)
                    store.get_arrays("d", f"{worker}-{(i * 7) % 40}")
                    if i % 5 == 0:
                        store.delete_bytes("m", f"{key}.json")
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # A lost update of the running total would part it from the entries.
        charged = sum(entry.charge for entry in store._memory.values())
        assert store.bytes_in_memory() == charged <= 20_000


class _Finalized:
    def __del__(self):
        pass


class TestMemoryTierReadsUnderWrites:
    """Reads of the memory tier run while other threads write to it:
    ``/grid?workers=N`` takes ``memory_entries`` while ``/measure`` work
    stores artifacts, and every ``/metrics`` takes ``bytes_in_memory``
    while peer reads memoise payloads."""

    @staticmethod
    def _race(read, write, seconds=0.5):
        store = ArtifactStore()
        for i in range(2000):
            store.put_json("m", f"seed-{i}", i)
        stop = threading.Event()
        errors: list[RuntimeError] = []

        def writer():
            i = 0
            while not stop.is_set():
                write(store, i)
                # Cyclic garbage with a finalizer: a collection that starts
                # inside a read runs Python code, so threads can switch there.
                garbage = _Finalized()
                garbage.cycle = garbage
                i += 1

        thread = threading.Thread(target=writer, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            deadline = time.monotonic() + seconds
            while time.monotonic() < deadline and not errors:
                try:
                    read(store)
                except RuntimeError as error:   # dict changed size during iteration
                    errors.append(error)
        finally:
            stop.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []

    def test_memory_entries_during_puts(self):
        self._race(
            lambda store: store.memory_entries("m"),
            lambda store, i: store.put_json("m", f"w-{i}", i),
        )

    def test_bytes_in_memory_during_peer_reads(self):
        def put_then_serve(store, i):
            store.put_json("m", f"w-{i}", i)
            store.get_bytes("m", f"w-{i}.json")

        self._race(lambda store: store.bytes_in_memory(), put_then_serve)


class TestDiskTier:
    def test_json_survives_new_store(self, tmp_path):
        ArtifactStore(tmp_path).put_json("downstream", "k", {"acc": 0.75})
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_json("downstream", "k") == {"acc": 0.75}
        assert fresh.stat("downstream").hits == 1

    def test_arrays_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        P = np.arange(12, dtype=np.float64).reshape(4, 3)
        store.put_arrays("decomposition", "k", {"P": P, "S": np.ones(3)})
        loaded = ArtifactStore(tmp_path).get_arrays("decomposition", "k")
        np.testing.assert_array_equal(loaded["P"], P)
        np.testing.assert_array_equal(loaded["S"], np.ones(3))

    def test_embedding_pair_round_trip(self, tmp_path, embedding_pair):
        emb_a, emb_b = embedding_pair
        ArtifactStore(tmp_path).put_embedding_pair("embedding_pair", "k", (emb_a, emb_b))
        loaded_a, loaded_b = ArtifactStore(tmp_path).get_embedding_pair(
            "embedding_pair", "k"
        )
        assert loaded_a.vocab.words == emb_a.vocab.words
        assert loaded_b.vocab.words == emb_b.vocab.words
        np.testing.assert_array_equal(loaded_a.vectors, emb_a.vectors)
        np.testing.assert_array_equal(loaded_b.vectors, emb_b.vectors)
        assert loaded_a.metadata == emb_a.metadata

    def test_float_values_round_trip_exactly(self, tmp_path):
        # Bit-identical warm reruns require exact float round-trips via JSON.
        value = {"disagreement": 1.0 / 3.0, "accuracy_a": 0.1 + 0.2}
        ArtifactStore(tmp_path).put_json("downstream", "k", value)
        assert ArtifactStore(tmp_path).get_json("downstream", "k") == value

    def test_files_live_under_kind_directories(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json("downstream", "deadbeef", {})
        store.put_arrays("decomposition", "cafe", {"x": np.zeros(2)})
        assert (tmp_path / "downstream" / "deadbeef.json").exists()
        assert (tmp_path / "decomposition" / "cafe.npz").exists()
        # No stray temp files left behind by the atomic writes.
        assert not list(tmp_path.rglob("*.tmp"))


class TestCorruptArtifacts:
    """A torn or garbage payload must degrade to a counted cache miss."""

    def test_corrupt_json_is_a_miss(self, tmp_path):
        ArtifactStore(tmp_path).put_json("downstream", "k", {"acc": 0.5})
        (tmp_path / "downstream" / "k.json").write_bytes(b'{"acc": 0.')
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_json("downstream", "k") is None
        stat = fresh.stat("downstream")
        assert stat.corrupt == 1 and stat.misses == 1 and stat.hits == 0

    def test_truncated_npz_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_arrays("decomposition", "k", {"P": np.eye(3)})
        path = tmp_path / "decomposition" / "k.npz"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_arrays("decomposition", "k") is None
        assert fresh.stat("decomposition").corrupt == 1

    def test_corrupt_embedding_pair_is_a_miss(self, tmp_path, embedding_pair):
        store = ArtifactStore(tmp_path)
        store.put_embedding_pair("embedding_pair", "k", embedding_pair)
        (tmp_path / "embedding_pair" / "k.npz").write_bytes(b"not an npz at all")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_embedding_pair("embedding_pair", "k") is None
        assert fresh.stat("embedding_pair").corrupt == 1

    def test_corrupt_upper_tier_falls_through_to_lower(self, tmp_path):
        from repro.engine.backends import DiskBackend

        upper_dir, lower_dir = tmp_path / "upper", tmp_path / "lower"
        ArtifactStore(lower_dir).put_json("downstream", "k", {"acc": 0.5})
        upper = DiskBackend(upper_dir)
        upper.put("downstream", "k.json", b"garbage")
        store = ArtifactStore(backends=[upper, DiskBackend(lower_dir)])
        # The lower tier's intact copy wins, and repairs the upper tier.
        assert store.get_json("downstream", "k") == {"acc": 0.5}
        assert store.stat("downstream").corrupt == 1
        assert store.stat("downstream").hits == 1
        assert upper.get("downstream", "k.json") != b"garbage"

    def test_rerun_after_corruption_recomputes_and_repairs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json("downstream", "k", {"acc": 0.5})
        (tmp_path / "downstream" / "k.json").write_bytes(b"junk")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get_json("downstream", "k") is None      # recompute path
        fresh.put_json("downstream", "k", {"acc": 0.5})       # overwrite repairs
        assert ArtifactStore(tmp_path).get_json("downstream", "k") == {"acc": 0.5}


class TestPickleSafety:
    """Decode paths reachable from the network must never unpickle.

    /artifacts feeds peer-supplied bytes into the npz codecs; ``np.load``
    with ``allow_pickle=True`` would turn any reachable store port into
    arbitrary code execution.  A payload carrying pickled object arrays must
    be rejected as corrupt, never loaded.
    """

    @staticmethod
    def _pickled_npz() -> bytes:
        import io

        buffer = io.BytesIO()
        np.savez(
            buffer,
            vectors_a=np.zeros((1, 1)),
            vectors_b=np.zeros((1, 1)),
            metadata=np.array([{"x": 1}], dtype=object),   # forces pickling
        )
        return buffer.getvalue()

    def test_pair_payloads_contain_no_object_arrays(self, embedding_pair):
        import io

        from repro.engine.codecs import EMBEDDING_PAIR_CODEC

        payload = EMBEDDING_PAIR_CODEC.encode(embedding_pair)
        with np.load(io.BytesIO(payload)) as data:         # allow_pickle=False
            assert data.files
            assert all(data[name].dtype != object for name in data.files)

    def test_embedding_pair_codec_rejects_pickled_payloads(self):
        from repro.engine.codecs import EMBEDDING_PAIR_CODEC

        with pytest.raises(ValueError):
            EMBEDDING_PAIR_CODEC.decode(self._pickled_npz())

    def test_put_bytes_drops_pickled_peer_payload(self):
        store = ArtifactStore()      # memory-only: decodes peer payloads
        store.put_bytes("embedding_pair", "evil.npz", self._pickled_npz())
        assert store.get_bytes("embedding_pair", "evil.npz") is None
        assert store.stat("embedding_pair").corrupt == 1

    def test_pickled_disk_artifact_is_a_counted_miss(self, tmp_path):
        (tmp_path / "embedding_pair").mkdir()
        (tmp_path / "embedding_pair" / "k.npz").write_bytes(self._pickled_npz())
        store = ArtifactStore(tmp_path)
        assert store.get_embedding_pair("embedding_pair", "k") is None
        assert store.stat("embedding_pair").corrupt == 1


class TestByteAccess:
    """The byte-level view the /artifacts peer API is built on."""

    def test_get_bytes_from_disk_tier(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json("measures", "k", {"eis": 0.5})
        payload = store.get_bytes("measures", "k.json")
        assert payload == (tmp_path / "measures" / "k.json").read_bytes()

    def test_get_bytes_encodes_memory_only_artifacts(self):
        store = ArtifactStore()                      # no byte tiers at all
        store.put_json("measures", "k", {"eis": 0.5})
        payload = store.get_bytes("measures", "k.json")
        assert payload is not None
        import json as json_module

        assert json_module.loads(payload) == {"eis": 0.5}
        # Suffix mismatches never mis-encode: a JSON object is not an npz.
        assert store.get_bytes("measures", "k.npz") is None

    def test_get_bytes_encodes_memory_only_pairs(self, embedding_pair):
        store = ArtifactStore()
        store.put_embedding_pair("embedding_pair", "k", embedding_pair)
        payload = store.get_bytes("embedding_pair", "k.npz")
        from repro.engine.codecs import EMBEDDING_PAIR_CODEC

        dec_a, _ = EMBEDDING_PAIR_CODEC.decode(payload)
        np.testing.assert_array_equal(dec_a.vectors, embedding_pair[0].vectors)

    def test_put_bytes_round_trips_through_typed_get(self, tmp_path):
        source = ArtifactStore()
        source.put_json("measures", "k", {"eis": 0.5})
        payload = source.get_bytes("measures", "k.json")

        target = ArtifactStore(tmp_path)
        target.put_bytes("measures", "k.json", payload)
        assert target.get_json("measures", "k") == {"eis": 0.5}

    def test_byte_api_never_touches_remote_tiers(self, tmp_path):
        # Serving a peer must not fan out to this node's own peers: two
        # symmetrically-configured nodes would otherwise recurse on every
        # miss.  A slow unreachable remote makes the leak observable as time.
        store = ArtifactStore(tmp_path, remote_url="http://127.0.0.1:9")
        import time

        start = time.perf_counter()
        assert store.get_bytes("measures", "absent.json") is None
        assert not store.contains_bytes("measures", "absent.json")
        store.put_bytes("measures", "peer.json", b"{}")
        store.delete_bytes("measures", "peer.json")
        assert time.perf_counter() - start < 1.0, "byte API hit the remote tier"
        remote = store.tiers[-1]
        assert remote.name == "remote" and remote.stats.errors == 0

    def test_byte_api_excludes_remotes_nested_in_replicated_tiers(self):
        from repro.engine.backends import RemoteBackend, ReplicatedBackend

        replicated = ReplicatedBackend([RemoteBackend("http://127.0.0.1:9")])
        assert replicated.remote_capable
        store = ArtifactStore(backends=[replicated])
        assert store.get_bytes("measures", "absent.json") is None
        assert not store.contains_bytes("measures", "absent.json")
        assert replicated.replicas[0].stats.errors == 0, "byte API reached a nested peer"

    def test_contains_bytes_respects_codec_suffix(self):
        # HEAD 200 must imply GET 200: a memory-only JSON artifact does not
        # "exist" under an .npz name.
        store = ArtifactStore()
        store.put_json("measures", "k", {"eis": 0.5})
        assert store.contains_bytes("measures", "k.json")
        assert not store.contains_bytes("measures", "k.npz")

    def test_memory_only_empty_arrays_serve_under_their_npz_name(self):
        # The codec is recorded at put time: by type alone an empty dict is
        # ambiguous (empty JSON object vs empty arrays npz), and the byte
        # view must agree with the name a disk tier would have stored.
        from repro.engine.codecs import ARRAYS_CODEC

        store = ArtifactStore()
        store.put_arrays("decomposition", "k", {})
        assert store.contains_bytes("decomposition", "k.npz")
        assert not store.contains_bytes("decomposition", "k.json")
        payload = store.get_bytes("decomposition", "k.npz")
        assert payload is not None and ARRAYS_CODEC.decode(payload) == {}

        store.put_json("measures", "e", {})
        assert store.contains_bytes("measures", "e.json")
        assert not store.contains_bytes("measures", "e.npz")

    def test_contains_and_delete_bytes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_json("measures", "k", {"eis": 0.5})
        assert store.contains_bytes("measures", "k.json")
        store.delete_bytes("measures", "k.json")
        assert not store.contains_bytes("measures", "k.json")
        assert store.get_json("measures", "k") is None


class TestDefaultStore:
    def test_unconfigured_default_is_memory_only(self):
        store = default_store()
        assert not store.persistent

    def test_configured_default_persists(self, tmp_path):
        configure_default_store(tmp_path)
        try:
            store = default_store()
            assert store.persistent and store.root == tmp_path
        finally:
            configure_default_store(None)
        assert not default_store().persistent

    def test_configured_default_disk_and_remote(self, tmp_path):
        configure_default_store(tmp_path, remote_url="http://127.0.0.1:1")
        try:
            store = default_store()
            assert [tier.name for tier in store.tiers] == ["disk", "remote"]
        finally:
            configure_default_store(None)
        assert default_store().tiers == []
