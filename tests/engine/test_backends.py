"""Unit tests of the storage backends, codecs, and the store's tier stack."""

import errno
import threading

import numpy as np
import pytest

from repro.engine.backends import (
    FAILURE_COOLDOWN,
    DiskBackend,
    MemoryBackend,
    RemoteBackend,
    StoreBackend,
    backend_from_spec,
)
from repro.engine.codecs import (
    ARRAYS_CODEC,
    EMBEDDING_PAIR_CODEC,
    JSON_CODEC,
    codec_for_value,
)
from repro.engine.store import ArtifactStore


class RecordingBackend(StoreBackend):
    """Dict-backed backend that logs every operation (order assertions)."""

    persistent = False

    def __init__(self, name: str, log: list) -> None:
        super().__init__()
        self.name = name
        self.log = log
        self.data: dict[tuple[str, str], bytes] = {}

    def _get(self, kind, name):
        self.log.append((self.name, "get", name))
        return self.data.get((kind, name))

    def _put(self, kind, name, payload):
        self.log.append((self.name, "put", name))
        self.data[(kind, name)] = payload

    def _contains(self, kind, name):
        return (kind, name) in self.data

    def _delete(self, kind, name):
        self.data.pop((kind, name), None)


class TestCodecs:
    def test_json_round_trip(self):
        value = {"acc": 0.1 + 0.2, "n": 3}
        assert JSON_CODEC.decode(JSON_CODEC.encode(value)) == value

    def test_arrays_round_trip(self):
        arrays = {"P": np.arange(12.0).reshape(3, 4), "S": np.ones(4)}
        decoded = ARRAYS_CODEC.decode(ARRAYS_CODEC.encode(arrays))
        np.testing.assert_array_equal(decoded["P"], arrays["P"])
        np.testing.assert_array_equal(decoded["S"], arrays["S"])

    def test_embedding_pair_round_trip(self, embedding_pair):
        emb_a, emb_b = embedding_pair
        dec_a, dec_b = EMBEDDING_PAIR_CODEC.decode(
            EMBEDDING_PAIR_CODEC.encode((emb_a, emb_b))
        )
        assert dec_a.vocab.words == emb_a.vocab.words
        np.testing.assert_array_equal(dec_a.vectors, emb_a.vectors)
        np.testing.assert_array_equal(dec_b.vectors, emb_b.vectors)
        assert dec_b.metadata == emb_b.metadata

    def test_codec_for_value_dispatch(self, embedding_pair):
        assert codec_for_value({"x": 1}) is JSON_CODEC
        assert codec_for_value({"x": np.zeros(2)}) is ARRAYS_CODEC
        assert codec_for_value(embedding_pair) is EMBEDDING_PAIR_CODEC
        assert codec_for_value([1, 2, 3]) is JSON_CODEC


class TestMemoryBackend:
    def test_round_trip_and_counters(self):
        backend = MemoryBackend()
        assert backend.get("k", "a.json") is None
        backend.put("k", "a.json", b"payload")
        assert backend.get("k", "a.json") == b"payload"
        assert backend.contains("k", "a.json")
        backend.delete("k", "a.json")
        assert not backend.contains("k", "a.json")
        assert (backend.stats.hits, backend.stats.misses) == (1, 1)
        assert (backend.stats.puts, backend.stats.deletes) == (1, 1)


class TestDiskBackend:
    def test_layout_matches_store_convention(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("measures", "deadbeef.json", b"{}")
        assert (tmp_path / "measures" / "deadbeef.json").read_bytes() == b"{}"
        # Durable atomic writes leave no temp files behind.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_get_missing_is_none(self, tmp_path):
        assert DiskBackend(tmp_path).get("measures", "nope.json") is None

    def test_delete(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("k", "a.json", b"x")
        backend.delete("k", "a.json")
        assert not backend.contains("k", "a.json")
        backend.delete("k", "a.json")      # idempotent


class TestRemoteBackendOffline:
    def test_unreachable_peer_degrades_to_miss(self):
        backend = RemoteBackend("http://127.0.0.1:9")
        assert backend.get("measures", "abc.json") is None
        backend.put("measures", "abc.json", b"{}")     # must not raise
        assert not backend.contains("measures", "abc.json")
        assert backend.stats.errors >= 2

    def test_circuit_breaker_skips_timeouts_while_cooling_down(self):
        import time

        backend = RemoteBackend("http://127.0.0.1:9")
        assert backend.get("measures", "abc.json") is None   # pays the probe
        start = time.perf_counter()
        for _ in range(20):
            assert backend.get("measures", "abc.json") is None
        elapsed = time.perf_counter() - start
        # Cooling down: 20 lookups answer instantly instead of 20 timeouts.
        assert elapsed < 0.2, f"circuit breaker did not engage ({elapsed:.2f}s)"
        assert backend.stats.errors >= 21

    def test_url_normalisation_and_validation(self):
        assert RemoteBackend("localhost:8732").url == "http://localhost:8732"
        with pytest.raises(ValueError):
            RemoteBackend("ftp://host/")
        with pytest.raises(ValueError, match="remote store URL has no host"):
            RemoteBackend("http:///path")


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FailingConnection:
    """Stand-in for ``http.client.HTTPConnection`` that always errors.

    Counts connection *attempts* so the breaker tests can assert exactly how
    many requests were let through to the (dead) peer; ``gate`` optionally
    blocks inside the attempt so a second thread can race the half-open slot
    deterministically.
    """

    def __init__(self, attempts: list, gate: threading.Event | None = None) -> None:
        self.attempts = attempts
        self.gate = gate

    def request(self, *args, **kwargs) -> None:
        self.attempts.append(threading.current_thread().name)
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        raise ConnectionError("synthetic failure")

    def close(self) -> None:
        pass


class TestRemoteBackendHalfOpenProbe:
    """Fake-clock pins of the breaker's half-open behaviour."""

    def make_backend(self, clock, attempts, gate=None):
        backend = RemoteBackend("http://127.0.0.1:9", clock=clock)
        backend.client.connect = lambda: FailingConnection(attempts, gate)  # type: ignore[method-assign]
        return backend

    def test_cooldown_blocks_then_admits_exactly_one_probe(self):
        clock = FakeClock()
        attempts: list = []
        backend = self.make_backend(clock, attempts)
        # Initial failure opens the breaker (2 attempts: request + reconnect).
        assert backend.get("measures", "a.json") is None
        assert len(attempts) == 2
        # During the cooldown nothing reaches the peer.
        for _ in range(5):
            assert backend.get("measures", "a.json") is None
        assert len(attempts) == 2
        # Cooldown elapsed: the next call is the single half-open probe...
        clock.advance(FAILURE_COOLDOWN + 1.0)
        assert backend.get("measures", "a.json") is None
        assert len(attempts) == 4
        # ...whose failure restarts the cooldown.
        assert backend.get("measures", "a.json") is None
        assert len(attempts) == 4

    def test_concurrent_callers_do_not_pile_onto_the_probe(self):
        clock = FakeClock()
        attempts: list = []
        gate = threading.Event()
        backend = self.make_backend(clock, attempts)
        assert backend.get("measures", "a.json") is None      # open the breaker
        attempts.clear()
        clock.advance(FAILURE_COOLDOWN + 1.0)
        # Thread A becomes the probe and blocks inside the connection...
        blocked_backend_gate = gate
        backend.client.connect = lambda: FailingConnection(attempts, blocked_backend_gate)  # type: ignore[method-assign]
        prober = threading.Thread(
            target=lambda: backend.get("measures", "a.json"), name="prober"
        )
        prober.start()
        deadline = threading.Event()
        for _ in range(100):
            if attempts:
                break
            deadline.wait(0.01)
        assert attempts == ["prober"]
        # ...while a concurrent caller fails fast without a second attempt.
        assert backend.get("measures", "b.json") is None
        assert attempts == ["prober"]
        gate.set()
        prober.join(timeout=30)
        # The probe's two attempts are both the prober's; nobody piled on.
        assert set(attempts) == {"prober"} and len(attempts) == 2

    def test_successful_probe_closes_the_breaker(self):
        clock = FakeClock()
        backend = RemoteBackend("http://127.0.0.1:9", clock=clock)

        class HappyConnection:
            def request(self, *args, **kwargs):
                pass

            def getresponse(self):
                class R:
                    status = 404

                    def read(self):
                        return b""

                return R()

        attempts: list = []
        backend.client.connect = lambda: FailingConnection(attempts)  # type: ignore[method-assign]
        assert backend.get("measures", "a.json") is None      # open
        clock.advance(FAILURE_COOLDOWN + 1.0)
        backend.client.connect = lambda: HappyConnection()  # type: ignore[method-assign]
        assert backend.get("measures", "a.json") is None      # probe: 404 = miss
        assert backend._down_until == 0.0                     # breaker closed
        assert not backend._probing


class TestSpecs:
    def test_backend_spec_round_trips(self, tmp_path):
        for backend in (
            MemoryBackend(),
            DiskBackend(tmp_path),
            RemoteBackend("http://127.0.0.1:1"),
        ):
            rebuilt = backend_from_spec(backend.spec())
            assert type(rebuilt) is type(backend)
            assert rebuilt.spec() == backend.spec()

    def test_store_spec_rebuilds_tiers(self, tmp_path):
        store = ArtifactStore(tmp_path, remote_url="http://127.0.0.1:1")
        clone = ArtifactStore.from_spec(store.spec())
        assert [tier.name for tier in clone.tiers] == ["disk", "remote"]
        assert clone.root == tmp_path

    def test_store_spec_accepts_bare_root(self, tmp_path):
        store = ArtifactStore.from_spec(tmp_path)
        assert store.persistent and store.root == tmp_path
        assert not ArtifactStore.from_spec(None).persistent

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            backend_from_spec({"backend": "tape"})


class TestTierStack:
    def test_write_back_hits_every_tier_in_order(self):
        log: list = []
        upper, lower = RecordingBackend("upper", log), RecordingBackend("lower", log)
        store = ArtifactStore(backends=[upper, lower])
        store.put_json("measures", "k", {"eis": 0.5})
        assert log == [("upper", "put", "k.json"), ("lower", "put", "k.json")]
        assert upper.stats.puts == lower.stats.puts == 1

    def test_a_full_disk_write_is_neither_counted_nor_memoized(self):
        # The tier's write raises ENOSPC: the put raises, the tier counts an
        # error and no put, and no later lookup hits a copy that never
        # reached the tier.
        class FullBackend(RecordingBackend):
            def _put(self, kind, name, payload):
                raise OSError(errno.ENOSPC, "No space left on device")

        full = FullBackend("full", [])
        store = ArtifactStore(backends=[full])
        with pytest.raises(OSError):
            store.put_json("measures", "k", {"eis": 0.5})
        assert store.stat("measures").puts == 0
        assert (full.stats.puts, full.stats.errors) == (0, 1)
        assert store.get_json("measures", "k") is None
        assert store.stat("measures").hits == 0

    def test_a_full_upper_disk_fails_a_put_but_not_a_read_through(self):
        # Promoting a lower-tier hit into a full upper tier counts an error
        # there, and the read still answers, counts a hit and memoizes the
        # value; a put the caller asked for into that tier still raises.
        class FullBackend(RecordingBackend):
            def _put(self, kind, name, payload):
                raise OSError(errno.ENOSPC, "No space left on device")

        full, lower = FullBackend("full", []), MemoryBackend()
        ArtifactStore(backends=[lower]).put_json("measures", "k", {"eis": 0.5})
        store = ArtifactStore(backends=[full, lower])
        assert store.get_json("measures", "k") == {"eis": 0.5}
        assert (full.stats.puts, full.stats.errors) == (0, 1)
        assert (store.stat("measures").hits, store.stat("measures").misses) == (1, 0)
        assert store.get_json("measures", "k") == {"eis": 0.5}   # memoized
        assert lower.stats.hits == 1
        with pytest.raises(OSError):
            store.put_json("measures", "k2", {"eis": 0.25})

    def test_read_through_promotes_into_upper_tiers(self):
        log: list = []
        upper, lower = RecordingBackend("upper", log), RecordingBackend("lower", log)
        seed = ArtifactStore(backends=[lower])
        seed.put_json("measures", "k", {"eis": 0.5})

        store = ArtifactStore(backends=[upper, lower])
        assert store.get_json("measures", "k") == {"eis": 0.5}
        # The lower-tier hit was copied into the upper tier...
        assert upper.contains("measures", "k.json")
        assert upper.stats.misses == 1 and lower.stats.hits == 1
        # ...and a fresh store over the upper tier alone now hits it.
        assert ArtifactStore(backends=[upper]).get_json("measures", "k") == {"eis": 0.5}

    def test_memory_tier_short_circuits_byte_tiers(self):
        log: list = []
        upper = RecordingBackend("upper", log)
        store = ArtifactStore(backends=[upper])
        store.put_json("measures", "k", {"eis": 0.5})
        log.clear()
        store.get_json("measures", "k")    # decoded-object tier answers
        assert log == []

    def test_store_counters_unchanged_by_tier_shape(self, tmp_path):
        # The per-kind hit/miss contract is tier-agnostic: one lookup, one hit.
        for store in (
            ArtifactStore(),
            ArtifactStore(tmp_path / "plain"),
            ArtifactStore(replicas=[tmp_path / "r1", tmp_path / "r2"]),
            ArtifactStore(backends=[MemoryBackend(), MemoryBackend()]),
        ):
            store.put_json("measures", "k", {"eis": 0.5})
            store.get_json("measures", "k")
            store.get_json("measures", "missing")
            stat = store.stat("measures")
            assert (stat.hits, stat.misses, stat.puts) == (1, 1, 1)

    def test_explicit_backends_exclude_tier_flags(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, backends=[MemoryBackend()], remote_url="http://h:1")
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, backends=[MemoryBackend()], replicas=[tmp_path])
