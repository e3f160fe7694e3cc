"""Unit tests of the replicated artifact fabric.

Covers :class:`~repro.engine.backends.ReplicatedBackend` (fan-out writes,
first-success reads, read-repair, hinted handoff), payload integrity
validation, the :class:`~repro.engine.faults.FaultyBackend` injection
harness, the ``RemoteBackend`` put retry, and the ``ArtifactStore``
threading (``replicas=`` construction, spec round trip, peer health).
"""

import errno
import io
import random
import threading

import numpy as np
import pytest

from repro.engine.backends import (
    CircuitOpenError,
    DiskBackend,
    MemoryBackend,
    RemoteBackend,
    ReplicatedBackend,
    StoreBackend,
    backend_from_spec,
    payload_intact,
)
from repro.engine.faults import FaultyBackend
from repro.engine.store import ArtifactStore


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def npz_payload() -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, values=np.arange(6.0))
    return buffer.getvalue()


class TestPayloadIntact:
    def test_valid_json(self):
        assert payload_intact("a.json", b'{"x": [1, 2]}')

    def test_garbled_json(self):
        assert not payload_intact("a.json", b"\x84\x9b not json")

    def test_truncated_json(self):
        assert not payload_intact("a.json", b'{"x": [1,')

    def test_valid_npz(self):
        assert payload_intact("a.npz", npz_payload())

    def test_bitflipped_npz(self):
        payload = bytearray(npz_payload())
        payload[0] ^= 0xFF  # destroy the zip magic
        assert not payload_intact("a.npz", bytes(payload))

    def test_unknown_suffix_is_trusted(self):
        assert payload_intact("a.bin", b"\x00\x01\x02")


class TestReplicatedFanout:
    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError):
            ReplicatedBackend([])

    def test_put_lands_on_every_replica(self):
        a, b, c = MemoryBackend(), MemoryBackend(), MemoryBackend()
        replicated = ReplicatedBackend([a, b, c])
        replicated.put("measures", "k.json", b"{}")
        assert all(r.contains("measures", "k.json") for r in (a, b, c))

    def test_get_is_first_success(self):
        a, b = MemoryBackend(), MemoryBackend()
        replicated = ReplicatedBackend([a, b])
        replicated.put("measures", "k.json", b"{}")
        assert replicated.get("measures", "k.json") == b"{}"
        # The hit came from the first replica; the second was never probed.
        assert b.stats.hits == 0 and b.stats.misses == 0

    def test_contains_any(self):
        a, b = MemoryBackend(), MemoryBackend()
        b.put("measures", "k.json", b"{}")
        replicated = ReplicatedBackend([a, b])
        assert replicated.contains("measures", "k.json")
        assert not replicated.contains("measures", "missing.json")

    def test_delete_everywhere(self):
        a, b = MemoryBackend(), MemoryBackend()
        replicated = ReplicatedBackend([a, b])
        replicated.put("measures", "k.json", b"{}")
        replicated.delete("measures", "k.json")
        assert not a.contains("measures", "k.json")
        assert not b.contains("measures", "k.json")

    def test_flags_derive_from_children(self, tmp_path):
        local = ReplicatedBackend([MemoryBackend(), DiskBackend(tmp_path)])
        assert local.persistent and not local.remote_capable
        remote = ReplicatedBackend([RemoteBackend("http://127.0.0.1:9")])
        assert remote.persistent and remote.remote_capable


class TestReadRepair:
    def test_lagging_replica_is_repaired_from_a_healthy_one(self):
        lagging, healthy = MemoryBackend(), MemoryBackend()
        healthy.put("measures", "k.json", b'{"v": 1}')
        replicated = ReplicatedBackend([lagging, healthy])
        assert replicated.get("measures", "k.json") == b'{"v": 1}'
        assert replicated.repairs == 1
        assert lagging.get("measures", "k.json") == b'{"v": 1}'
        # The next read hits the repaired first replica and repairs nothing.
        assert replicated.get("measures", "k.json") == b'{"v": 1}'
        assert replicated.repairs == 1

    def test_corrupt_copy_is_repaired_and_counted(self):
        # Satellite: a replica holding a corrupt copy is repaired from a
        # healthy one, and the corrupt counter still increments.
        corrupt, healthy = MemoryBackend(), MemoryBackend()
        corrupt.put("measures", "k.json", b"\x84\x9b torn bytes")
        healthy.put("measures", "k.json", b'{"v": 1}')
        replicated = ReplicatedBackend([corrupt, healthy])
        assert replicated.get("measures", "k.json") == b'{"v": 1}'
        assert replicated.stats.corrupt == 1
        assert corrupt.stats.corrupt == 1
        assert replicated.repairs == 1
        assert corrupt.get("measures", "k.json") == b'{"v": 1}'

    def test_corrupt_npz_copy_is_repaired(self):
        payload = npz_payload()
        torn = bytearray(payload)
        torn[:4] = b"\x00\x00\x00\x00"
        corrupt, healthy = MemoryBackend(), MemoryBackend()
        corrupt.put("pairs", "k.npz", bytes(torn))
        healthy.put("pairs", "k.npz", payload)
        replicated = ReplicatedBackend([corrupt, healthy])
        assert replicated.get("pairs", "k.npz") == payload
        assert corrupt.get("pairs", "k.npz") == payload

    def test_every_copy_corrupt_is_a_miss(self):
        a, b = MemoryBackend(), MemoryBackend()
        a.put("measures", "k.json", b"\x84garbage")
        b.put("measures", "k.json", b"\x84garbage")
        replicated = ReplicatedBackend([a, b])
        assert replicated.get("measures", "k.json") is None
        assert replicated.stats.corrupt == 2
        assert replicated.stats.misses == 1

    def test_repair_of_unavailable_replica_queues_a_hint(self):
        dead = FaultyBackend(MemoryBackend())
        healthy = MemoryBackend()
        healthy.put("measures", "k.json", b"{}")
        replicated = ReplicatedBackend([dead, healthy])
        dead.partition()
        assert replicated.get("measures", "k.json") == b"{}"
        assert replicated.repairs == 0
        assert replicated.hints_queued == 1
        dead.heal()
        assert replicated.drain_hints() == 1
        assert dead.inner.contains("measures", "k.json")

    def test_erroring_replica_is_repaired(self):
        flaky = FaultyBackend(MemoryBackend())
        healthy = MemoryBackend()
        healthy.put("measures", "k.json", b"{}")
        replicated = ReplicatedBackend([flaky, healthy])
        flaky.fail_next("get")
        assert replicated.get("measures", "k.json") == b"{}"
        assert replicated.repairs == 1
        assert flaky.inner.contains("measures", "k.json")


class TestHintedHandoff:
    def test_partitioned_replica_write_becomes_a_hint(self):
        dead = FaultyBackend(MemoryBackend())
        healthy = MemoryBackend()
        replicated = ReplicatedBackend([dead, healthy])
        dead.partition()
        replicated.put("measures", "k.json", b"{}")
        assert healthy.contains("measures", "k.json")
        assert not dead.inner.contains("measures", "k.json")
        assert replicated.hints_queued == 1
        assert replicated.hints_pending == 1

    def test_hints_drain_when_replica_heals(self):
        dead = FaultyBackend(MemoryBackend())
        healthy = MemoryBackend()
        replicated = ReplicatedBackend([dead, healthy])
        dead.partition()
        replicated.put("measures", "a.json", b"{}")
        replicated.put("measures", "b.json", b"{}")
        dead.heal()
        # Any subsequent operation drains opportunistically.
        replicated.put("measures", "c.json", b"{}")
        assert replicated.hints_drained == 2
        assert replicated.hints_pending == 0
        assert dead.inner.contains("measures", "a.json")
        assert dead.inner.contains("measures", "b.json")

    def test_failed_drain_requeues_and_skips_the_replica(self):
        dead = FaultyBackend(MemoryBackend())
        healthy = MemoryBackend()
        replicated = ReplicatedBackend([dead, healthy])
        dead.partition()
        replicated.put("measures", "a.json", b"{}")
        replicated.put("measures", "b.json", b"{}")
        dead.heal()
        dead.fail_next("put")  # first delivery attempt fails, replica skipped
        assert replicated.drain_hints() == 0
        assert replicated.hints_pending == 2
        assert replicated.drain_hints() == 2

    def test_scripted_put_failure_queues_a_hint(self):
        # An *available* replica whose put fails (detected via the errors
        # delta) must also fall back to a hint, not lose the write.
        flaky = FaultyBackend(MemoryBackend())
        healthy = MemoryBackend()
        replicated = ReplicatedBackend([flaky, healthy])
        flaky.fail_next("put")
        replicated.put("measures", "k.json", b"{}")
        assert replicated.hints_queued == 1
        assert replicated.drain_hints() == 1
        assert flaky.inner.contains("measures", "k.json")

    def test_a_raising_replica_counts_one_error(self):
        class FullBackend(MemoryBackend):
            def _put(self, kind, name, payload):
                raise OSError(errno.ENOSPC, "No space left on device")

        full = FullBackend()
        replicated = ReplicatedBackend([full, MemoryBackend()])
        replicated.put("measures", "k.json", b"{}")
        assert (full.stats.puts, full.stats.errors) == (0, 1)
        assert replicated.hints_queued == 1

    def test_hint_dedupe_keeps_latest_payload(self):
        dead = FaultyBackend(MemoryBackend())
        replicated = ReplicatedBackend([dead, MemoryBackend()])
        dead.partition()
        replicated.put("measures", "k.json", b'{"v": 1}')
        replicated.put("measures", "k.json", b'{"v": 2}')
        assert replicated.hints_queued == 1
        assert replicated.hints_pending == 1
        dead.heal()
        assert replicated.drain_hints() == 1
        assert dead.inner.get("measures", "k.json") == b'{"v": 2}'

    def test_hint_queue_overflow_drops_oldest_and_counts(self):
        dead = FaultyBackend(MemoryBackend())
        replicated = ReplicatedBackend([dead, MemoryBackend()], max_hints=2)
        dead.partition()
        replicated.put("measures", "a.json", b"{}")
        replicated.put("measures", "b.json", b"{}")
        replicated.put("measures", "c.json", b"{}")
        assert replicated.hints_queued == 3
        assert replicated.hints_dropped == 1
        assert replicated.hints_pending == 2
        assert dead.stats.dropped == 1
        dead.heal()
        assert replicated.drain_hints() == 2
        assert not dead.inner.contains("measures", "a.json")  # the dropped one
        assert dead.inner.contains("measures", "b.json")
        assert dead.inner.contains("measures", "c.json")

    def test_delete_purges_matching_hints(self):
        dead = FaultyBackend(MemoryBackend())
        replicated = ReplicatedBackend([dead, MemoryBackend()])
        dead.partition()
        replicated.put("measures", "k.json", b"{}")
        replicated.delete("measures", "k.json")
        assert replicated.hints_pending == 0
        dead.heal()
        assert replicated.drain_hints() == 0
        assert not dead.inner.contains("measures", "k.json")

    def test_describe_reports_replication_health(self):
        dead = FaultyBackend(MemoryBackend())
        replicated = ReplicatedBackend([dead, MemoryBackend()])
        dead.partition()
        replicated.put("measures", "k.json", b"{}")
        described = replicated.describe()
        assert described["name"] == "replicated"
        assert described["n_replicas"] == 2
        assert described["hints_queued"] == 1
        assert described["hints_pending"] == 1
        assert described["replicas"][0]["partitioned"] is True


class TestReplicatedSpec:
    def test_spec_round_trip(self, tmp_path):
        replicated = ReplicatedBackend(
            [
                DiskBackend(tmp_path / "a"),
                RemoteBackend("http://127.0.0.1:9"),
            ],
            max_hints=16,
        )
        spec = replicated.spec()
        rebuilt = backend_from_spec(spec)
        assert isinstance(rebuilt, ReplicatedBackend)
        assert rebuilt.spec() == spec
        assert rebuilt.max_hints == 16

    def test_spec_none_when_a_child_cannot_describe_itself(self):
        replicated = ReplicatedBackend([FaultyBackend(MemoryBackend())])
        assert replicated.spec() is None


class ScriptedConnection:
    """Connection whose per-request outcome comes from a shared script.

    Script entries: ``"fail"`` raises on request; an integer becomes the
    response status.  An exhausted script answers 200.
    """

    def __init__(self, script: list) -> None:
        self.script = script
        self._status = 200

    def request(self, *args, **kwargs) -> None:
        action = self.script.pop(0) if self.script else 200
        if action == "fail":
            raise ConnectionError("synthetic failure")
        self._status = action

    def getresponse(self):
        status = self._status

        class Response:
            def read(self):
                return b""

        Response.status = status
        return Response()

    def close(self) -> None:
        pass


class TestRemotePutRetry:
    """Satellite: RemoteBackend.put retries once with jitter on transient
    failures/5xx before counting a drop."""

    def make_backend(self, script, sleeps, clock=None):
        backend = RemoteBackend(
            "http://127.0.0.1:9",
            clock=clock or FakeClock(),
            rng=random.Random(0),
            sleep=sleeps.append,
        )
        backend.client.connect = lambda: ScriptedConnection(script)  # type: ignore[method-assign]
        return backend

    def test_connection_failure_retries_once_and_succeeds(self):
        sleeps: list = []
        # Both inner attempts of the first request fail (request + stale-
        # connection reconnect), then the deliberate retry succeeds.
        backend = self.make_backend(["fail", "fail", 200], sleeps)
        backend.put("measures", "k.json", b"{}")
        assert backend.stats.errors == 0
        assert len(sleeps) == 1
        assert 0.05 <= sleeps[0] <= 0.15  # jittered 50-150% of PUT_RETRY_DELAY

    def test_5xx_retries_once_and_succeeds(self):
        sleeps: list = []
        backend = self.make_backend([500, 200], sleeps)
        backend.put("measures", "k.json", b"{}")
        assert backend.stats.errors == 0
        assert len(sleeps) == 1

    def test_persistent_5xx_counts_one_error(self):
        sleeps: list = []
        backend = self.make_backend([500, 503], sleeps)
        backend.put("measures", "k.json", b"{}")
        assert backend.stats.errors == 1
        assert len(sleeps) == 1

    def test_4xx_is_not_retried(self):
        sleeps: list = []
        backend = self.make_backend([403], sleeps)
        backend.put("measures", "k.json", b"{}")
        assert backend.stats.errors == 1
        assert sleeps == []

    def test_open_breaker_fails_fast_without_retry(self):
        sleeps: list = []
        clock = FakeClock()
        # Four failures: initial request + reconnect, then the forced retry's
        # request + reconnect -- the put stays failed and opens the breaker.
        backend = self.make_backend(["fail", "fail", "fail", "fail"], sleeps, clock=clock)
        backend.put("measures", "a.json", b"{}")  # opens the breaker
        assert backend.stats.errors == 1 and backend.breaker_open
        sleeps.clear()
        backend.put("measures", "b.json", b"{}")  # CircuitOpenError path
        assert backend.stats.errors == 2
        assert sleeps == []  # fail-fast: no retry against an open breaker

    def test_breaker_open_property_tracks_cooldown(self):
        sleeps: list = []
        clock = FakeClock()
        backend = self.make_backend(["fail", "fail", "fail", "fail"], sleeps, clock=clock)
        assert backend.available
        backend.put("measures", "k.json", b"{}")
        assert backend.breaker_open and not backend.available
        clock.advance(31.0)
        assert not backend.breaker_open and backend.available


class TestFaultyBackend:
    def test_transparent_when_no_faults(self):
        backend = FaultyBackend(MemoryBackend())
        backend.put("measures", "k.json", b"{}")
        assert backend.get("measures", "k.json") == b"{}"
        assert backend.contains("measures", "k.json")
        backend.delete("measures", "k.json")
        assert not backend.contains("measures", "k.json")
        assert backend.stats.errors == 0

    def test_scripted_failures_target_one_op(self):
        backend = FaultyBackend(MemoryBackend())
        backend.put("measures", "k.json", b"{}")
        backend.fail_next("get", times=2)
        assert backend.get("measures", "k.json") is None
        assert backend.get("measures", "k.json") is None
        assert backend.get("measures", "k.json") == b"{}"
        assert backend.stats.errors == 2
        # A scripted get failure must not eat a put.
        backend.fail_next("get")
        backend.put("measures", "other.json", b"{}")
        assert backend.inner.contains("measures", "other.json")

    def test_wildcard_failure_hits_any_op(self):
        backend = FaultyBackend(MemoryBackend())
        backend.fail_next("*")
        backend.put("measures", "k.json", b"{}")
        assert not backend.inner.contains("measures", "k.json")

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            FaultyBackend(MemoryBackend()).fail_next("fetch")

    def test_probabilistic_errors_with_seeded_rng(self):
        backend = FaultyBackend(
            MemoryBackend(), error_rate=0.5, rng=random.Random(7)
        )
        outcomes = [backend.get("measures", f"{i}.json") for i in range(50)]
        # A seeded coin must fail some and pass some -- deterministic per seed.
        assert 0 < backend.stats.errors < 50
        assert all(value is None for value in outcomes)

    def test_partition_blocks_everything_and_flips_available(self):
        backend = FaultyBackend(MemoryBackend())
        backend.put("measures", "k.json", b"{}")
        backend.partition()
        assert not backend.available
        assert backend.get("measures", "k.json") is None
        assert not backend.contains("measures", "k.json")
        backend.heal()
        assert backend.available
        assert backend.get("measures", "k.json") == b"{}"

    def test_scripted_corruption_flips_payload(self):
        backend = FaultyBackend(MemoryBackend())
        backend.put("measures", "k.json", b'{"v": 1}')
        backend.corrupt_next()
        corrupted = backend.get("measures", "k.json")
        assert corrupted is not None and corrupted != b'{"v": 1}'
        assert not payload_intact("k.json", corrupted)
        assert backend.get("measures", "k.json") == b'{"v": 1}'  # one-shot

    def test_latency_uses_injected_sleep(self):
        naps: list = []
        backend = FaultyBackend(MemoryBackend(), latency=0.25, sleep=naps.append)
        backend.put("measures", "k.json", b"{}")
        backend.get("measures", "k.json")
        assert naps == [0.25, 0.25]

    def test_log_records_outcomes_with_injected_clock(self):
        clock = FakeClock(now=10.0)
        backend = FaultyBackend(MemoryBackend(), clock=clock)
        backend.put("measures", "k.json", b"{}")
        clock.advance(5.0)
        backend.partition()
        backend.get("measures", "k.json")
        assert backend.log[0] == (10.0, "put", "measures", "k.json", "ok")
        assert backend.log[1] == (15.0, "get", "measures", "k.json", "partitioned")

    def test_describe_nests_inner(self):
        backend = FaultyBackend(MemoryBackend())
        described = backend.describe()
        assert described["name"] == "faulty(memory)"
        assert described["inner"]["name"] == "memory"
        assert described["partitioned"] is False


class TestReplicatedStore:
    def test_replicas_construction_writes_everywhere(self, tmp_path):
        first, second = tmp_path / "r1", tmp_path / "r2"
        store = ArtifactStore(replicas=[first, second])
        store.put_json("results", "abc", {"v": 9})
        assert (first / "results" / "abc.json").exists()
        assert (second / "results" / "abc.json").exists()

    def test_read_repair_through_the_store(self, tmp_path):
        lagging, healthy = tmp_path / "r1", tmp_path / "r2"
        seed = ArtifactStore(replicas=[healthy])
        seed.put_json("results", "abc", {"v": 9})
        store = ArtifactStore(replicas=[lagging, healthy])
        assert store.get_json("results", "abc") == {"v": 9}
        assert store.replica_counters()["repairs"] == 1
        # The lagging replica alone can now serve the artifact.
        solo = ArtifactStore(replicas=[lagging])
        assert solo.get_json("results", "abc") == {"v": 9}

    def test_url_entries_become_remote_backends(self, tmp_path):
        store = ArtifactStore(
            replicas=["http://127.0.0.1:9", tmp_path / "local"]
        )
        replicated = store.tiers[0]
        assert isinstance(replicated, ReplicatedBackend)
        assert isinstance(replicated.replicas[0], RemoteBackend)
        assert isinstance(replicated.replicas[1], DiskBackend)
        # A replicated tier with a remote child must be excluded from the
        # byte API (peer recursion safety).
        assert store._local_tiers == []

    def test_replicas_and_remote_url_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(
                tmp_path, remote_url="http://127.0.0.1:9", replicas=["http://127.0.0.1:10"]
            )

    def test_spec_round_trip(self, tmp_path):
        store = ArtifactStore(
            tmp_path / "root", replicas=[tmp_path / "r1", tmp_path / "r2"]
        )
        store.put_json("results", "abc", {"v": 9})
        rebuilt = ArtifactStore.from_spec(store.spec())
        assert isinstance(rebuilt.tiers[1], ReplicatedBackend)
        assert rebuilt.get_json("results", "abc") == {"v": 9}

    def test_peer_health_and_degraded(self, tmp_path):
        clock = FakeClock()
        peer = RemoteBackend("http://127.0.0.1:9", clock=clock)
        store = ArtifactStore(
            backends=[ReplicatedBackend([peer, DiskBackend(tmp_path)])]
        )
        assert store.peer_health() == [
            {"url": "http://127.0.0.1:9", "breaker_open": False}
        ]
        assert not store.degraded
        # A failed read opens the peer's breaker; the store reports degraded.
        store.get_json("results", "missing")
        assert store.peer_health()[0]["breaker_open"]
        assert store.degraded
        clock.advance(31.0)
        assert not store.degraded

    def test_replica_counters_all_zero_without_replication(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.replica_counters() == {
            "repairs": 0,
            "hints_queued": 0,
            "hints_drained": 0,
            "hints_dropped": 0,
            "hints_pending": 0,
        }

    def test_engine_stats_surface_replica_counters(self, tmp_path):
        from repro.engine import stats

        lagging, healthy = tmp_path / "r1", tmp_path / "r2"
        seed = ArtifactStore(replicas=[healthy])
        seed.put_json("results", "abc", {"v": 9})
        store = ArtifactStore(replicas=[lagging, healthy])
        store.get_json("results", "abc")
        snapshot = stats(store)
        assert snapshot["store_replicas"]["repairs"] == 1
        assert snapshot["store_tiers"][0]["repairs"] == 1
        assert snapshot["store_peers"] == []
