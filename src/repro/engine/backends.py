"""Pluggable byte-level storage backends for the artifact store.

A backend stores opaque payloads under ``(kind, name)`` -- ``name`` is the
content-hash key plus the codec suffix (``<key>.json`` / ``<key>.npz``), so a
backend never needs to understand an artifact to move it.  The
:class:`~repro.engine.store.ArtifactStore` stacks backends into read-through /
write-through tiers; the codecs (:mod:`repro.engine.codecs`) translate at the
boundary.

Backends:

* :class:`MemoryBackend` -- in-process dict of payloads (a test double and
  benchmark baseline; the store's object tier holds the memory bound).
* :class:`DiskBackend` -- today's on-disk layout (``root/<kind>/<name>``),
  written via a durable atomic temp-file + ``os.replace`` + fsync protocol.
* :class:`RemoteBackend` -- an :class:`~repro.utils.http.HTTPClient`
  speaking the serving layer's ``/artifacts/<kind>/<name>`` endpoints; any
  running ``repro-serve`` instance is a valid peer.
* :class:`ReplicatedBackend` -- N-way replication over any mix of the above:
  writes fan out to every replica, reads are served first-success with
  **read-repair** (a hit found on one replica is written back to the
  replicas that missed or held a corrupt copy), and writes that cannot
  reach a replica are queued as **hinted handoff** entries, drained when
  the replica looks healthy again.

Every backend counts its traffic (:class:`TierStats`); the store surfaces the
counters through ``repro.engine.stats()`` as ``store_tiers``.
"""

from __future__ import annotations

import io
import json
import os
import random
import tempfile
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence
from urllib.parse import quote

from repro.utils.http import HTTPClient
from repro.utils.io import ensure_dir
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "CircuitOpenError",
    "TierStats",
    "StoreBackend",
    "MemoryBackend",
    "DiskBackend",
    "RemoteBackend",
    "ReplicatedBackend",
    "atomic_write_bytes",
    "backend_from_spec",
    "payload_intact",
]

#: Per-request socket timeout of a remote tier, in seconds.
SOCKET_TIMEOUT = 10.0

#: Seconds an open remote breaker fails fast before it half-opens.
FAILURE_COOLDOWN = 30.0

#: Base delay of a remote write's one retry (jittered to 50-150% of it).
PUT_RETRY_DELAY = 0.1


@dataclass
class TierStats:
    """Traffic counters of one storage tier."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    deletes: int = 0
    #: Backend I/O failures survived (network errors, unreadable files);
    #: the tier answered as a miss / best-effort write instead of raising.
    errors: int = 0
    #: Hinted-handoff writes discarded because a replicated tier's hint
    #: queue was full (see :class:`ReplicatedBackend`); the payload never
    #: reached this tier.
    dropped: int = 0
    #: Payloads that failed byte-level validation (unparsable JSON, zip CRC
    #: mismatch); the tier answered as a miss and the replication layer
    #: schedules a read-repair from a healthy replica.
    corrupt: int = 0


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Durably write ``payload`` via a sibling temp file + atomic rename.

    The temp file is fsynced before ``os.replace`` so a crash mid-write can
    never leave a torn artifact under the final name -- a peer fetching over
    ``/artifacts`` must either see the complete payload or nothing.  The
    directory entry is fsynced best-effort afterwards (some filesystems don't
    support opening directories).
    """
    ensure_dir(path.parent)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - filesystem dependent
        pass
    finally:
        os.close(dir_fd)


def payload_intact(name: str, payload: bytes) -> bool:
    """Cheap byte-level integrity check keyed off the codec suffix.

    ``.json`` payloads must parse; ``.npz`` payloads must be a valid zip
    whose member CRCs check out (``testzip``).  Unknown suffixes are trusted
    -- integrity validation exists to catch torn or bit-flipped replicas,
    not to gatekeep new codecs.
    """
    try:
        if name.endswith(".json"):
            json.loads(payload.decode("utf-8"))
        elif name.endswith(".npz"):
            with zipfile.ZipFile(io.BytesIO(payload)) as archive:
                if archive.testzip() is not None:
                    return False
        return True
    except Exception:
        return False


class StoreBackend:
    """Byte-level storage of ``(kind, name) -> payload`` with counters.

    Subclasses implement the raw ``_get``/``_put``/``_contains``/``_delete``;
    the public methods layer the :class:`TierStats` accounting on top.
    """

    name: str = "backend"
    #: Whether payloads survive this process (disk, remote).
    persistent: bool = False
    #: Whether any operation can reach another node (directly or through a
    #: child backend).  The serving layer's /artifacts handlers exclude such
    #: tiers so symmetric peer configurations can never recurse.
    remote_capable: bool = False

    def __init__(self) -> None:
        self.stats = TierStats()

    @property
    def available(self) -> bool:
        """Whether the backend is currently willing to accept operations.

        Local backends are always available; remote backends report their
        circuit-breaker state, and the replication layer uses this to queue
        hinted handoff instead of paying a known-doomed write.
        """
        return True

    # -- public API (counted) --------------------------------------------------

    def get(self, kind: str, name: str) -> bytes | None:
        payload = self._get(kind, name)
        if payload is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return payload

    def put(self, kind: str, name: str, payload: bytes) -> None:
        try:
            self._put(kind, name, payload)
        except Exception:
            self.stats.errors += 1
            raise
        self.stats.puts += 1

    def contains(self, kind: str, name: str) -> bool:
        return self._contains(kind, name)

    def delete(self, kind: str, name: str) -> None:
        self.stats.deletes += 1
        self._delete(kind, name)

    # -- raw operations --------------------------------------------------------

    def _get(self, kind: str, name: str) -> bytes | None:
        raise NotImplementedError

    def _put(self, kind: str, name: str, payload: bytes) -> None:
        raise NotImplementedError

    def _contains(self, kind: str, name: str) -> bool:
        raise NotImplementedError

    def _delete(self, kind: str, name: str) -> None:
        raise NotImplementedError

    # -- reconstruction / observability ---------------------------------------

    def spec(self) -> dict | None:
        """Picklable description to rebuild this backend in another process.

        ``None`` means the backend cannot be reconstructed from a description
        (custom in-test backends); the scheduler then falls back to whatever
        the spec does describe.
        """
        return None

    def describe(self) -> dict:
        """JSON-able counter snapshot for ``repro.engine.stats()``."""
        return {"name": self.name, "persistent": self.persistent, **asdict(self.stats)}


class MemoryBackend(StoreBackend):
    """In-process payload dict (unbounded: the store's object tier above
    holds the one memory bound)."""

    name = "memory"
    persistent = False

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[tuple[str, str], bytes] = {}
        self._lock = threading.Lock()

    def _get(self, kind: str, name: str) -> bytes | None:
        with self._lock:
            return self._data.get((kind, name))

    def _put(self, kind: str, name: str, payload: bytes) -> None:
        with self._lock:
            self._data[(kind, name)] = payload

    def _contains(self, kind: str, name: str) -> bool:
        with self._lock:
            return (kind, name) in self._data

    def _delete(self, kind: str, name: str) -> None:
        with self._lock:
            self._data.pop((kind, name), None)

    def __len__(self) -> int:
        return len(self._data)

    def spec(self) -> dict:
        return {"backend": "memory"}


class DiskBackend(StoreBackend):
    """Directory-tree backend: ``root/<kind>/<name>``, durable atomic writes.

    The layout is byte-compatible with the pre-refactor store's disk tier, so
    existing ``--cache-dir`` trees keep working unchanged.
    """

    name = "disk"
    persistent = True

    def __init__(self, root: str | Path) -> None:
        super().__init__()
        self.root = Path(root)
        ensure_dir(self.root)

    def _path(self, kind: str, name: str) -> Path:
        return self.root / kind / name

    def _get(self, kind: str, name: str) -> bytes | None:
        path = self._path(kind, name)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:  # pragma: no cover - environment dependent
            logger.warning("disk tier failed reading %s: %s", path, error)
            self.stats.errors += 1
            return None

    def _put(self, kind: str, name: str, payload: bytes) -> None:
        atomic_write_bytes(self._path(kind, name), payload)

    def _contains(self, kind: str, name: str) -> bool:
        return self._path(kind, name).exists()

    def _delete(self, kind: str, name: str) -> None:
        self._path(kind, name).unlink(missing_ok=True)

    def spec(self) -> dict:
        return {"backend": "disk", "root": str(self.root)}

    def describe(self) -> dict:
        return {**super().describe(), "root": str(self.root)}


class CircuitOpenError(ConnectionError):
    """Fail-fast rejection because a peer's circuit breaker is open.

    Distinguished from a real transport failure so retry logic never burns
    an attempt against a breaker that would reject it instantly anyway.
    """


class RemoteBackend(StoreBackend):
    """HTTP peer backend speaking the serving layer's ``/artifacts`` API.

    Any running ``repro-serve`` instance is a peer: ``GET`` fetches a
    payload, ``PUT`` replicates one, ``HEAD`` probes existence.  Requests go
    through ``client``, an :class:`~repro.utils.http.HTTPClient` with its
    per-thread connections and its resend and close rules.  A dead or
    unreachable peer degrades to cache misses and dropped best-effort
    writes (counted in ``errors``) -- remote tiers accelerate, they must
    never take the computation down.
    After a connection failure the backend cools down for
    ``FAILURE_COOLDOWN`` seconds, answering misses immediately instead of
    paying the full socket timeout on every subsequent operation.  Once the
    cooldown elapses the breaker goes **half-open**: exactly one request is
    let through to probe the peer while every other thread keeps failing
    fast; a successful probe closes the breaker, a failed one restarts the
    cooldown.  ``clock`` injects a monotonic time source for tests.
    """

    name = "remote"
    persistent = True
    remote_capable = True

    def __init__(
        self,
        url: str,
        *,
        clock=time.monotonic,
        rng: random.Random | None = None,
        sleep=time.sleep,
    ) -> None:
        super().__init__()
        self.client = HTTPClient(url, what="remote store", timeout=SOCKET_TIMEOUT)
        self.url = self.client.url
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._clock = clock
        #: Breaker state, guarded by ``_state_lock``: ``_down_until`` is the
        #: monotonic deadline of the cooldown (0.0 = closed, healthy), and
        #: ``_probing`` marks the single half-open probe in flight.
        self._state_lock = threading.Lock()
        self._down_until = 0.0
        self._probing = False

    def _request(
        self,
        method: str,
        kind: str,
        name: str,
        body: bytes | None = None,
        *,
        force: bool = False,
    ) -> tuple[int, bytes]:
        """One request through the client, gated by the circuit breaker.

        While the peer is cooling down after a failure, raise
        :class:`CircuitOpenError` immediately -- otherwise every lookup
        of a busy grid run would block for the full socket timeout against a
        dead peer.  When the cooldown has elapsed, exactly one caller is
        admitted as the half-open probe; concurrent callers keep failing fast
        until the probe settles, so a still-dead peer costs one socket
        timeout per cooldown window instead of one per thread.  ``force``
        bypasses the breaker gate (used by the single deliberate write
        retry); success still closes the breaker and failure re-arms it.
        """
        probing = False
        if not force:
            with self._state_lock:
                if self._down_until:
                    if self._clock() < self._down_until:
                        raise CircuitOpenError(
                            f"remote store {self.url} cooling down after a failure"
                        )
                    if self._probing:
                        raise CircuitOpenError(
                            f"remote store {self.url} half-open: probe already in flight"
                        )
                    self._probing = probing = True
        path = f"/artifacts/{quote(kind, safe='')}/{quote(name, safe='')}"
        headers = {"Content-Type": "application/octet-stream"} if body else {}
        try:
            answer = self.client.request(method, path, body, headers)
        except ConnectionError:
            with self._state_lock:
                # Re-arm the cooldown and release the probe slot in ONE critical
                # section: releasing first would let a concurrent caller slip in
                # as a second probe against the still-expired deadline.
                self._down_until = self._clock() + FAILURE_COOLDOWN
                if probing:
                    self._probing = False
            raise
        except BaseException:
            # Unexpected exit (KeyboardInterrupt mid-request): release the
            # probe slot without closing the breaker.
            if probing:
                with self._state_lock:
                    self._probing = False
            raise
        with self._state_lock:
            self._down_until = 0.0
            if probing:
                self._probing = False
        return answer

    # -- raw operations --------------------------------------------------------

    def _get(self, kind: str, name: str) -> bytes | None:
        try:
            status, payload = self._request("GET", kind, name)
        except ConnectionError as error:
            logger.warning("remote tier GET %s/%s failed: %s", kind, name, error)
            self.stats.errors += 1
            return None
        if status == 200:
            return payload
        if status != 404:
            logger.warning("remote tier GET %s/%s: HTTP %d", kind, name, status)
            self.stats.errors += 1
        return None

    def _put(self, kind: str, name: str, payload: bytes) -> None:
        """Best-effort replication write with one jittered retry.

        Transient failures -- a dropped connection or a 5xx from a peer that
        is restarting -- get a single retry after a short jittered sleep
        (breaker bypassed: this is the deliberate second attempt).  Breaker
        fail-fasts and 4xx responses are not retried; they would fail the
        same way again.  Only writes that stay failed count an error.
        """
        error_detail: object
        try:
            status, _ = self._request("PUT", kind, name, body=payload)
            if status < 300:
                return
            error_detail = f"HTTP {status}"
            transient = status >= 500
        except CircuitOpenError as error:
            logger.warning("remote tier PUT %s/%s failed: %s", kind, name, error)
            self.stats.errors += 1
            return
        except ConnectionError as error:
            error_detail = error
            transient = True
        if not transient:
            logger.warning("remote tier PUT %s/%s: %s", kind, name, error_detail)
            self.stats.errors += 1
            return
        self._sleep(PUT_RETRY_DELAY * (0.5 + self._rng.random()))
        try:
            status, _ = self._request("PUT", kind, name, body=payload, force=True)
        except ConnectionError as error:
            logger.warning(
                "remote tier PUT %s/%s failed after retry: %s", kind, name, error
            )
            self.stats.errors += 1
            return
        if status >= 300:
            logger.warning(
                "remote tier PUT %s/%s: HTTP %d after retry", kind, name, status
            )
            self.stats.errors += 1

    def _contains(self, kind: str, name: str) -> bool:
        try:
            status, _ = self._request("HEAD", kind, name)
        except ConnectionError:
            self.stats.errors += 1
            return False
        return status == 200

    def _delete(self, kind: str, name: str) -> None:
        try:
            self._request("DELETE", kind, name)
        except ConnectionError:
            self.stats.errors += 1

    def close(self) -> None:
        """Close every live thread's connection to the peer."""
        self.client.close()

    @property
    def breaker_open(self) -> bool:
        """Whether the circuit breaker currently rejects requests fast."""
        with self._state_lock:
            return bool(self._down_until) and self._clock() < self._down_until

    @property
    def available(self) -> bool:
        return not self.breaker_open

    def spec(self) -> dict:
        return {"backend": "remote", "url": self.url}

    def describe(self) -> dict:
        return {**super().describe(), "url": self.url, "breaker_open": self.breaker_open}


class ReplicatedBackend(StoreBackend):
    """N-way replication over child backends with read-repair and hints.

    Writes fan out to every replica.  Reads walk the replicas in order and
    return the first intact payload; replicas probed before the hit that
    missed, errored, or held a corrupt copy are **read-repaired** -- the
    healthy payload is written back to them so one surviving copy is enough
    to restore full coverage.  A write (or repair) aimed at a replica that
    is unavailable (circuit breaker open) or whose put fails is queued as a
    **hinted handoff** entry instead of being lost; hints are drained
    opportunistically on later operations once the replica looks healthy
    again, so a peer that restarts converges without operator action.

    Degraded-mode contract: as long as one replica answers, reads succeed
    and writes land somewhere -- replica loss never raises to the caller.
    The hint queue is bounded and deduplicated per ``(replica, kind,
    name)``; overflow drops the oldest hint and counts it (``dropped`` on
    the target replica, ``hints_dropped`` here), keeping degradation
    observable rather than unbounded.

    Every replica read is checked byte by byte (:func:`payload_intact`),
    turning a bit-flipped copy into a repairable miss instead of a poisoned
    artifact.
    """

    name = "replicated"

    def __init__(self, replicas: Sequence[StoreBackend], *, max_hints: int = 512) -> None:
        super().__init__()
        if not replicas:
            raise ValueError("ReplicatedBackend needs at least one replica")
        if max_hints < 1:
            raise ValueError(f"max_hints must be >= 1, got {max_hints}")
        self.replicas = list(replicas)
        self.max_hints = int(max_hints)
        self.persistent = any(replica.persistent for replica in self.replicas)
        self.remote_capable = any(replica.remote_capable for replica in self.replicas)
        self.repairs = 0
        self.hints_queued = 0
        self.hints_drained = 0
        self.hints_dropped = 0
        #: Pending handoff payloads keyed ``(replica_index, kind, name)``;
        #: insertion-ordered so overflow evicts the oldest hint first.
        self._hints: OrderedDict[tuple[int, str, str], bytes] = OrderedDict()
        self._hint_lock = threading.Lock()

    # -- hinted handoff --------------------------------------------------------

    def _queue_hint(self, index: int, kind: str, name: str, payload: bytes) -> None:
        key = (index, kind, name)
        with self._hint_lock:
            if key in self._hints:
                self._hints[key] = payload
                self._hints.move_to_end(key)
                return
            while len(self._hints) >= self.max_hints:
                (old_index, old_kind, old_name), _ = self._hints.popitem(last=False)
                self.hints_dropped += 1
                self.replicas[old_index].stats.dropped += 1
                logger.warning(
                    "hint queue full: dropped %s/%s for replica %d (%s)",
                    old_kind, old_name, old_index, self.replicas[old_index].name,
                )
            self._hints[key] = payload
            self.hints_queued += 1

    def drain_hints(self) -> int:
        """Deliver queued hints to replicas that look available again.

        Called opportunistically before every operation (cheap no-op while
        the queue is empty) and exposed publicly so tests and shutdown paths
        can force a drain.  A replica whose delivery fails gets its hint
        re-queued and is skipped for the rest of this pass -- the next
        successful breaker probe will trigger another attempt.
        """
        if not self._hints:
            return 0
        with self._hint_lock:
            batch = list(self._hints.items())
        drained = 0
        skipped: set[int] = set()
        for (index, kind, name), payload in batch:
            replica = self.replicas[index]
            if index in skipped or not replica.available:
                continue
            with self._hint_lock:
                if self._hints.pop((index, kind, name), None) is None:
                    continue  # another thread delivered it concurrently
            if self._safe_put(replica, kind, name, payload):
                drained += 1
                self.hints_drained += 1
            else:
                skipped.add(index)
                with self._hint_lock:
                    self._hints.setdefault((index, kind, name), payload)
        if drained:
            logger.info("hinted handoff drained %d write(s)", drained)
        return drained

    @property
    def hints_pending(self) -> int:
        return len(self._hints)

    # -- replica write with failure detection ----------------------------------

    def _safe_put(self, replica: StoreBackend, kind: str, name: str, payload: bytes) -> bool:
        """Write to one replica; ``False`` when the write did not land.

        Backends degrade silently (they count ``errors`` instead of
        raising), so failure is detected via the errors-counter delta; an
        exception from a custom backend is counted by :meth:`StoreBackend.put`
        and means the same.
        """
        before = replica.stats.errors
        try:
            replica.put(kind, name, payload)
        except Exception as error:
            logger.warning(
                "replica %s rejected write %s/%s: %s", replica.name, kind, name, error
            )
            return False
        return replica.stats.errors == before

    def _intact(self, replica: StoreBackend, name: str, payload: bytes) -> bool:
        if payload_intact(name, payload):
            return True
        replica.stats.corrupt += 1
        self.stats.corrupt += 1
        logger.warning("replica %s returned a corrupt copy of %s", replica.name, name)
        return False

    # -- raw operations --------------------------------------------------------

    def _get(self, kind: str, name: str) -> bytes | None:
        self.drain_hints()
        behind: list[int] = []
        for index, replica in enumerate(self.replicas):
            if not replica.available:
                behind.append(index)
                continue
            try:
                payload = replica.get(kind, name)
            except Exception as error:
                logger.warning(
                    "replica %s failed reading %s/%s: %s", replica.name, kind, name, error
                )
                replica.stats.errors += 1
                behind.append(index)
                continue
            if payload is None or not self._intact(replica, name, payload):
                behind.append(index)
                continue
            for lagging in behind:
                self._repair(lagging, kind, name, payload)
            return payload
        return None

    def _repair(self, index: int, kind: str, name: str, payload: bytes) -> None:
        """Write a healthy copy back to a replica that missed or was corrupt."""
        replica = self.replicas[index]
        if not replica.available:
            self._queue_hint(index, kind, name, payload)
            return
        if self._safe_put(replica, kind, name, payload):
            self.repairs += 1
            logger.info("read-repaired %s/%s onto replica %s", kind, name, replica.name)
        else:
            self._queue_hint(index, kind, name, payload)

    def _put(self, kind: str, name: str, payload: bytes) -> None:
        self.drain_hints()
        for index, replica in enumerate(self.replicas):
            if not replica.available:
                self._queue_hint(index, kind, name, payload)
                continue
            if not self._safe_put(replica, kind, name, payload):
                self._queue_hint(index, kind, name, payload)

    def _contains(self, kind: str, name: str) -> bool:
        self.drain_hints()
        for replica in self.replicas:
            if not replica.available:
                continue
            try:
                if replica.contains(kind, name):
                    return True
            except Exception:
                replica.stats.errors += 1
        return False

    def _delete(self, kind: str, name: str) -> None:
        for replica in self.replicas:
            try:
                replica.delete(kind, name)
            except Exception:
                replica.stats.errors += 1
        with self._hint_lock:
            for key in [k for k in self._hints if k[1] == kind and k[2] == name]:
                del self._hints[key]

    # -- reconstruction / observability ---------------------------------------

    def spec(self) -> dict | None:
        replica_specs = [replica.spec() for replica in self.replicas]
        if any(spec is None for spec in replica_specs):
            return None
        return {
            "backend": "replicated",
            "replicas": replica_specs,
            "max_hints": self.max_hints,
        }

    def describe(self) -> dict:
        return {
            **super().describe(),
            "n_replicas": len(self.replicas),
            "repairs": self.repairs,
            "hints_queued": self.hints_queued,
            "hints_drained": self.hints_drained,
            "hints_dropped": self.hints_dropped,
            "hints_pending": self.hints_pending,
            "replicas": [replica.describe() for replica in self.replicas],
        }


def backend_from_spec(spec: dict) -> StoreBackend:
    """Rebuild a backend from its :meth:`StoreBackend.spec` description."""
    backend = spec.get("backend")
    if backend == "memory":
        return MemoryBackend()
    if backend == "disk":
        return DiskBackend(spec["root"])
    if backend == "remote":
        return RemoteBackend(spec["url"])
    if backend == "replicated":
        return ReplicatedBackend(
            [backend_from_spec(child) for child in spec["replicas"]],
            max_hints=spec.get("max_hints", 512),
        )
    raise ValueError(f"unknown backend spec {spec!r}")
