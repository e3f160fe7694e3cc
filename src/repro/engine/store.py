"""Content-addressed artifact store: a tier stack over pluggable backends.

Every expensive artifact of the instability pipeline -- trained embedding
pairs, matrix decompositions, downstream results, measure values -- is keyed
by a hash of the configuration that produced it.  Repeated grid cells,
repeated experiments, and repeated *runs* then hit the cache instead of
recomputing.  (Quantized pairs are not stored: the pipeline derives them
from the stored full-precision pair in ~2.4 ms.)

The store is layered:

* an **object memory tier** (always on) holds decoded artifacts and preserves
  object identity within a process -- it also backs :meth:`preload` (worker
  warm-up) and :meth:`memory_entries`.  It is one LRU bounded in bytes by
  :data:`MEMORY_TIER_BYTES`, so a long-running server holds a working set,
  not everything it ever computed;
* below it, a **tier stack** of byte-level backends
  (:mod:`repro.engine.backends`): a local disk tree, a remote
  ``repro-serve`` peer, a replicated tier, or a combination.  Reads walk
  tiers top to bottom and promote hits into the tiers above (read-through);
  writes encode once and land in every tier, top to bottom, before the
  write returns (write-through).

``ArtifactStore(root)`` keeps the original behaviour and on-disk layout:
one memory tier plus one disk tier at ``root/<kind>/<key>.{json,npz}``.
``remote_url=...`` appends an HTTP peer tier;
``replicas=[...]`` appends an N-way replicated tier (first-success reads
with read-repair, fan-out writes with hinted handoff).  Because keys are
content hashes, they are location-independent: any tier on any host serves
the same bytes for the same key.

Per-kind hit/miss counters make cache behaviour testable ("a warm rerun
performs zero retrainings"); a corrupted or truncated payload in any tier is
logged, counted (``corrupt``) and treated as a miss instead of poisoning the
run.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
from collections import OrderedDict
from pathlib import Path
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.embeddings.base import Embedding
from repro.engine.backends import (
    DiskBackend,
    RemoteBackend,
    ReplicatedBackend,
    StoreBackend,
    backend_from_spec,
)
from repro.engine.codecs import (
    ARRAYS_CODEC,
    EMBEDDING_PAIR_CODEC,
    JSON_CODEC,
    ArtifactCodec,
    codec_for_value,
)
from repro.telemetry.trace import span
from repro.utils.io import to_jsonable
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "MEMORY_TIER_BYTES",
    "config_hash",
    "CacheStats",
    "ArtifactStore",
    "configure_default_store",
    "default_store",
]

#: Bytes the object memory tier holds before it evicts its least recently
#: used entries (charged as :func:`_array_bytes` says).
#:
#: The working sets it must hold, measured with this charging:
#:
#: * perfbench's cold grid-cold grid (cbow and mc x dims 8/16/32 x 5
#:   precisions x 2 tasks, measures on) ends holding 0.72 MB in 98 entries
#:   (2.52 MB when its 24 quantized pairs were stored too);
#: * one default-config ``/select`` ancestry (mc, 4 dims, its anchor
#:   decomposition and 20 measure values) holds 0.77 MB in 25 entries;
#: * a whole default-config grid (3 algorithms x 4 dims x 5 precisions x 3
#:   seeds x 3 tasks, measures on) holds ~7.0 MB: 6.93 MB of pairs, anchor
#:   factors and measure values, plus 540 downstream values of ~100 bytes.
#:
#: 32 MiB holds ~40 such ancestries, ~45 grid-cold grids or 4 whole default
#: grids, so every request and grid run keeps its own ancestry hot.  Evicting more costs only time: an
#: evicted artifact is re-read from a lower tier, or recomputed (a retrained
#: pair counts as a train).
#:
#: "Each pair trains once cluster-wide" rests on one condition when the
#: coordinator's store is memory-only: the bytes a run writes between an
#: anchor group's completion and its sibling groups' fetches of the anchor
#: pair stay under this bound.  A single default-config grid writes a
#: quarter of it; no pin protects a pair beyond it.  The same holds for the
#: artifacts a memory-only store cannot recompute (monitor corpus
#: snapshots, cluster-run checkpoints): they survive while the bytes
#: written after their last use stay under the bound.
MEMORY_TIER_BYTES = 32 * 2**20


def config_hash(payload: Any) -> str:
    """Stable content hash of a JSON-able configuration payload.

    Dataclasses, numpy scalars/arrays and nested mappings are canonicalised
    through :func:`repro.utils.io.to_jsonable`; key order does not matter.
    """
    canonical = json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


@dataclass
class CacheStats:
    """Hit/miss/write counters for one artifact kind."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Entries seeded into the memory tier from outside (worker warm-up);
    #: they are neither hits nor puts -- the store did not produce them.
    preloads: int = 0
    #: Payloads found in a tier but undecodable (truncated file, bad npz/json);
    #: each one is logged and treated as a miss for that tier.
    corrupt: int = 0
    #: Entries the object memory tier dropped to stay under
    #: :data:`MEMORY_TIER_BYTES`; a later lookup re-reads or recomputes them.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class _Entry:
    """One object-tier artifact, its codec and the bytes it is charged."""

    __slots__ = ("value", "codec", "nbytes", "payload")

    def __init__(self, value: Any, codec: ArtifactCodec | None, nbytes: int) -> None:
        self.value = value
        #: ``None`` for a :meth:`ArtifactStore.preload`-seeded entry, which
        #: arrives without byte-level provenance (its codec is type-inferred).
        self.codec = codec
        self.nbytes = nbytes
        #: Bytes encoded for peers by ``get_bytes``, kept so repeated fetches
        #: do not re-run ``savez_compressed``; charged with the entry.
        self.payload: bytes | None = None

    @property
    def charge(self) -> int:
        return self.nbytes + (len(self.payload) if self.payload is not None else 0)


def _array_bytes(value: Any) -> int:
    """Array bytes ``value`` holds: what the memory tier charges an array
    artifact (an embedding pair, a dict of arrays, a bare array).

    The tier charges a JSON value its encoded length instead, and a payload
    encoded for peers its length on top of its entry's charge (see
    :meth:`ArtifactStore._memoize`).  Vocabularies and metadata are not
    charged: the bound is on the large matrices, not a re-implementation of
    ``sys.getsizeof``.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, Embedding):
        return _array_bytes(value.vectors)
    if isinstance(value, tuple):
        return sum(_array_bytes(item) for item in value)
    if isinstance(value, Mapping):
        return sum(_array_bytes(item) for item in value.values())
    return 0


class ArtifactStore:
    """Tiered content-addressed artifact cache (memory + backend stack).

    Parameters
    ----------
    root:
        Local cache directory, laid out as ``root/<kind>/<key>.{json,npz}``.
        ``None`` keeps the store memory-only unless other tiers are given.
    backends:
        Explicit tier stack (upper tier first); overrides ``root``/
        ``remote_url``/``replicas`` construction.
    remote_url:
        A peer ``repro-serve`` base URL appended as the lowest tier; local
        misses are fetched from the peer and promoted into the tiers above.
    replicas:
        N replica targets appended as one
        :class:`~repro.engine.backends.ReplicatedBackend` tier below the
        root tier.  Each entry is either a peer base URL (contains
        ``://`` -> :class:`~repro.engine.backends.RemoteBackend`) or a
        local directory (:class:`~repro.engine.backends.DiskBackend`).
        Writes fan out to every replica; reads are first-success with
        read-repair and hinted handoff.  Mutually exclusive with
        ``remote_url``.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        backends: Sequence[StoreBackend] | None = None,
        remote_url: str | None = None,
        replicas: Sequence[str | Path] | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        if backends is not None:
            if remote_url or replicas:
                raise ValueError("pass either explicit backends or remote_url/replicas")
            self.tiers: list[StoreBackend] = list(backends)
        else:
            if remote_url and replicas:
                raise ValueError("pass either remote_url or replicas, not both")
            self.tiers = []
            if self.root is not None:
                self.tiers.append(DiskBackend(self.root))
            if remote_url:
                self.tiers.append(RemoteBackend(remote_url))
            if replicas:
                self.tiers.append(
                    ReplicatedBackend([self._replica_backend(entry) for entry in replicas])
                )
        #: The object memory tier, least recently used first.  Each entry
        #: keeps the codec it was stored or decoded with: the byte-level peer
        #: API encodes memory-only artifacts under the name a disk tier would
        #: use, and re-inferring it from the value's type is ambiguous (an
        #: empty dict could be JSON or an empty arrays npz).
        self._memory: OrderedDict[tuple[str, str], _Entry] = OrderedDict()
        #: Guards the tier's order and its running byte total.
        self._memory_lock = threading.Lock()
        self._memory_bytes = 0
        self.stats: dict[str, CacheStats] = {}

    # -- bookkeeping ---------------------------------------------------------

    def stat(self, kind: str) -> CacheStats:
        """The (auto-created) counter block of one artifact kind."""
        if kind not in self.stats:
            self.stats[kind] = CacheStats()
        return self.stats[kind]

    def reset_stats(self) -> None:
        self.stats = {}

    @property
    def persistent(self) -> bool:
        """Whether any tier outlives this process (disk or a peer)."""
        return any(tier.persistent for tier in self.tiers)

    def key(self, **fields: Any) -> str:
        """Content hash of keyword fields (convenience over :func:`config_hash`)."""
        return config_hash(fields)

    def preload(self, kind: str, key: str, value: Any) -> None:
        """Seed the memory tier with an externally-produced artifact.

        Used by the worker warm-up path: the pool initializer receives the
        trained pairs the parent's memory tier holds and preloads them,
        skipping recomputation without touching the byte tiers (the parent
        persists its own copies).
        """
        self._memoize(kind, key, value, None)
        self.stat(kind).preloads += 1

    def memory_entries(self, kind: str) -> dict[str, Any]:
        """Snapshot of the memory tier's entries of one artifact kind."""
        with self._memory_lock:
            return {
                key: entry.value for (k, key), entry in self._memory.items() if k == kind
            }

    def __len__(self) -> int:
        return len(self._memory)

    def _record(self, kind: str, found: bool) -> None:
        stat = self.stat(kind)
        if found:
            stat.hits += 1
        else:
            stat.misses += 1

    def tier_stats(self) -> list[dict]:
        """Per-tier counter snapshots, upper tier first (JSON-able)."""
        return [tier.describe() for tier in self.tiers]

    def bytes_in_memory(self) -> int:
        """Bytes the object memory tier is charged (see :func:`_array_bytes`);
        at most :data:`MEMORY_TIER_BYTES` unless one entry alone exceeds it."""
        return self._memory_bytes

    @staticmethod
    def _replica_backend(entry: str | Path) -> StoreBackend:
        """One ``replicas=`` entry: a peer URL or a local directory."""
        text = str(entry)
        if "://" in text:
            return RemoteBackend(text)
        return DiskBackend(entry)

    def _walk_tiers(self):
        """Every backend in the stack, depth-first through replicas."""
        def walk(backend: StoreBackend):
            yield backend
            for child in getattr(backend, "replicas", ()):
                yield from walk(child)
        for tier in self.tiers:
            yield from walk(tier)

    def remote_peers(self) -> "list[RemoteBackend]":
        """Every remote peer backend in the stack (direct or nested)."""
        return [b for b in self._walk_tiers() if isinstance(b, RemoteBackend)]

    def peer_health(self) -> list[dict]:
        """Breaker state per remote peer (the ``/healthz`` degraded signal)."""
        return [
            {"url": peer.url, "breaker_open": peer.breaker_open}
            for peer in self.remote_peers()
        ]

    @property
    def degraded(self) -> bool:
        """Whether any remote peer's circuit breaker is currently open."""
        return any(peer["breaker_open"] for peer in self.peer_health())

    def replica_counters(self) -> dict:
        """Replication health counters aggregated over replicated tiers.

        All-zero when the stack has no replicated tier, so consumers (worker
        stats, ``/metrics``) can read the keys unconditionally.
        """
        totals = {
            "repairs": 0,
            "hints_queued": 0,
            "hints_drained": 0,
            "hints_dropped": 0,
            "hints_pending": 0,
        }
        for backend in self._walk_tiers():
            if isinstance(backend, ReplicatedBackend):
                totals["repairs"] += backend.repairs
                totals["hints_queued"] += backend.hints_queued
                totals["hints_drained"] += backend.hints_drained
                totals["hints_dropped"] += backend.hints_dropped
                totals["hints_pending"] += backend.hints_pending
        return totals

    # -- reconstruction (scheduler workers) ----------------------------------

    def spec(self) -> dict:
        """Picklable description so worker processes can rebuild this store.

        Tiers that cannot describe themselves (custom backend objects) are
        dropped from the description; workers then reconstruct the closest
        expressible store (at worst ``root``-only, the old behaviour).
        """
        tier_specs = [tier.spec() for tier in self.tiers]
        return {
            "root": str(self.root) if self.root is not None else None,
            "tiers": [spec for spec in tier_specs if spec is not None],
        }

    @classmethod
    def from_spec(cls, spec: "dict | str | Path | None") -> "ArtifactStore":
        """Rebuild a store from :meth:`spec` (also accepts a bare root path)."""
        if spec is None:
            return cls()
        if isinstance(spec, (str, Path)):
            return cls(spec)
        tiers = [backend_from_spec(s) for s in spec.get("tiers", [])]
        if tiers:
            return cls(spec.get("root"), backends=tiers)
        return cls(spec.get("root"))

    # -- generic tiered read/write -------------------------------------------

    def _memory_get(self, kind: str, key: str) -> _Entry | None:
        """The object-tier entry of ``kind/key``, promoted to most recent."""
        with self._memory_lock:
            entry = self._memory.get((kind, key))
            if entry is not None:
                self._memory.move_to_end((kind, key))
            return entry

    def _get(self, kind: str, key: str, codec: ArtifactCodec) -> Any | None:
        entry = self._memory_get(kind, key)
        if entry is not None:
            self._record(kind, True)
            return entry.value
        name = key + codec.suffix
        for index, tier in enumerate(self.tiers):
            with span("store.get", metric="store", label=f"{tier.name}.get",
                      tier=tier.name, kind=kind) as tier_span:
                payload = tier.get(kind, name)
                tier_span.set(hit=payload is not None,
                              bytes=len(payload) if payload is not None else 0)
            if payload is None:
                continue
            try:
                value = codec.decode(payload)
            except Exception as error:
                logger.warning(
                    "corrupt %s artifact %s/%s in %s tier: %s; treating as a miss",
                    codec.name, kind, name, tier.name, error,
                )
                self.stat(kind).corrupt += 1
                continue
            # Read-through: promote the payload into every tier above the hit.
            # A promotion that fails (a full upper disk) is counted in that
            # tier's errors and must not fail the read: the value is in hand.
            for upper in self.tiers[:index]:
                try:
                    upper.put(kind, name, payload)
                except Exception as error:
                    logger.warning(
                        "could not promote %s/%s into %s tier: %s",
                        kind, name, upper.name, error,
                    )
            self._memoize(kind, key, value, codec, payload)
            self._record(kind, True)
            return value
        self._record(kind, False)
        return None

    def _memoize(
        self, kind: str, key: str, value: Any, codec: ArtifactCodec | None,
        payload: bytes | None = None,
    ) -> None:
        """Hold ``value`` as the most recent entry, then evict down to the bound.

        A JSON value is charged its encoded length (``payload`` when the
        caller already encoded it), any other value its array bytes.
        """
        if codec is JSON_CODEC:
            nbytes = len(payload if payload is not None else codec.encode(value))
        else:
            nbytes = _array_bytes(value)
        entry = _Entry(value, codec, nbytes)
        with self._memory_lock:
            old = self._memory.pop((kind, key), None)
            if old is not None:
                self._memory_bytes -= old.charge
            self._memory[(kind, key)] = entry
            self._memory_bytes += nbytes
            self._evict_locked()

    def _evict_locked(self) -> None:
        """Drop least recently used entries until the tier fits its bound.

        The newest entry stays even when it alone exceeds the bound.
        """
        while self._memory_bytes > MEMORY_TIER_BYTES and len(self._memory) > 1:
            (kind, _), entry = self._memory.popitem(last=False)
            self._memory_bytes -= entry.charge
            self.stat(kind).evictions += 1

    def _put(self, kind: str, key: str, value: Any, codec: ArtifactCodec) -> None:
        # Tiers first: a tier that raises (a full disk) leaves the value
        # unmemoized and uncounted, so no later lookup hits a copy that
        # never reached the tiers.
        payload = None
        if self.tiers:
            payload = codec.encode(value)
            name = key + codec.suffix
            for tier in self.tiers:
                with span("store.put", metric="store", label=f"{tier.name}.put",
                          tier=tier.name, kind=kind, bytes=len(payload)):
                    tier.put(kind, name, payload)
        self._memoize(kind, key, value, codec, payload)
        self.stat(kind).puts += 1

    # -- typed artifact families ---------------------------------------------

    def get_json(self, kind: str, key: str) -> Any | None:
        """Look up a JSON-able artifact; ``None`` on miss (counted)."""
        return self._get(kind, key, JSON_CODEC)

    def put_json(self, kind: str, key: str, value: Any) -> None:
        self._put(kind, key, to_jsonable(value), JSON_CODEC)

    def get_arrays(self, kind: str, key: str) -> dict[str, np.ndarray] | None:
        return self._get(kind, key, ARRAYS_CODEC)

    def put_arrays(self, kind: str, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        self._put(
            kind, key, {name: np.asarray(arr) for name, arr in arrays.items()},
            ARRAYS_CODEC,
        )

    def get_embedding_pair(self, kind: str, key: str) -> tuple[Embedding, Embedding] | None:
        """Look up a (base, drifted) embedding pair; ``None`` on miss."""
        return self._get(kind, key, EMBEDDING_PAIR_CODEC)

    def put_embedding_pair(
        self, kind: str, key: str, pair: tuple[Embedding, Embedding]
    ) -> None:
        self._put(kind, key, (pair[0], pair[1]), EMBEDDING_PAIR_CODEC)

    # -- byte-level access (the serving layer's /artifacts endpoints) ----------
    #
    # The byte API answers *peers*, so it deliberately touches only local
    # tiers: a node must never answer a peer's fetch by fetching from its own
    # peers (two symmetrically-configured nodes would recurse on every miss),
    # nor forward a peer's replication write back out to another peer.

    @property
    def _local_tiers(self) -> list[StoreBackend]:
        return [tier for tier in self.tiers if not tier.remote_capable]

    @staticmethod
    def _split_name(name: str) -> tuple[str, str] | None:
        for suffix in (".json", ".npz"):
            if name.endswith(suffix):
                return name[: -len(suffix)], suffix
        return None

    @staticmethod
    def _entry_codec(entry: _Entry) -> ArtifactCodec:
        """Codec of a memory entry: recorded at put/decode, else type-inferred
        (a :meth:`preload`-seeded entry)."""
        return entry.codec or codec_for_value(entry.value)

    def get_bytes(self, kind: str, name: str) -> bytes | None:
        """Raw payload of ``kind/name`` for serving to a peer (local tiers only).

        Walks the local byte tiers first; when the artifact lives only in
        the object memory tier (e.g. a serving node that trained it this
        process), it is encoded on the fly with the codec matching the
        object's type.  Not counted in the per-kind hit/miss stats -- peer
        traffic is accounted by the peer's own store.
        """
        for tier in self._local_tiers:
            payload = tier.get(kind, name)
            if payload is not None:
                return payload
        split = self._split_name(name)
        if split is None:
            return None
        key, suffix = split
        entry = self._memory_get(kind, key)
        if entry is None:
            return None
        codec = self._entry_codec(entry)
        if codec.suffix != suffix:
            return None
        payload = entry.payload
        if payload is None:
            payload = codec.encode(entry.value)
            with self._memory_lock:
                # Charged only while the entry is still the one held.
                if entry.payload is None and self._memory.get((kind, key)) is entry:
                    entry.payload = payload
                    self._memory_bytes += len(payload)
                    self._evict_locked()
        return payload

    def contains_bytes(self, kind: str, name: str) -> bool:
        if any(tier.contains(kind, name) for tier in self._local_tiers):
            return True
        split = self._split_name(name)
        if split is None:
            return False
        key, suffix = split
        entry = self._memory.get((kind, key))
        # Mirror get_bytes: a memory-only artifact only "exists" under the
        # name its codec would encode it as (HEAD 200 must imply GET 200).
        return entry is not None and self._entry_codec(entry).suffix == suffix

    def put_bytes(self, kind: str, name: str, payload: bytes) -> None:
        """Write a peer-provided payload into the local byte tiers (not decoded).

        A store with no local byte tiers (memory-only serving node) decodes
        the payload into its object tier instead, so replication to it still
        sticks; an undecodable payload is dropped and counted as corrupt.
        """
        local = self._local_tiers
        if not local:
            split = self._split_name(name)
            if split is None:
                return
            key, suffix = split
            try:
                value, codec = self._decode_payload(payload, suffix)
            except Exception as error:
                logger.warning(
                    "dropping corrupt peer payload %s/%s: %s", kind, name, error
                )
                self.stat(kind).corrupt += 1
            else:
                self._memoize(kind, key, value, codec, payload)
            return
        for tier in local:
            tier.put(kind, name, payload)

    @staticmethod
    def _decode_payload(payload: bytes, suffix: str) -> tuple[Any, ArtifactCodec]:
        """Decode a raw payload by suffix (npz family sniffed by field names)."""
        if suffix == ".json":
            return JSON_CODEC.decode(payload), JSON_CODEC
        # Never allow_pickle: the payload may come from an untrusted peer.
        with np.load(io.BytesIO(payload)) as data:
            files = set(data.files)
        if {"vectors_a", "vectors_b", "metadata"} <= files:
            return EMBEDDING_PAIR_CODEC.decode(payload), EMBEDDING_PAIR_CODEC
        return ARRAYS_CODEC.decode(payload), ARRAYS_CODEC

    def delete_bytes(self, kind: str, name: str) -> None:
        for tier in self._local_tiers:
            tier.delete(kind, name)
        split = self._split_name(name)
        if split is not None:
            with self._memory_lock:
                entry = self._memory.pop((kind, split[0]), None)
                if entry is not None:
                    self._memory_bytes -= entry.charge


# -- process-wide default store ------------------------------------------------
#
# The store flags of ``repro-serve`` and the runner (:mod:`repro.options`)
# configure the default construction here once, and every pipeline built
# afterwards without an explicit store uses it; the default without
# configuration stays a private in-memory store per pipeline.

_DEFAULT_ROOT: Path | None = None
_DEFAULT_REMOTE_URL: str | None = None
_DEFAULT_REPLICAS: tuple[str, ...] | None = None


def configure_default_store(
    root: str | Path | None,
    *,
    remote_url: str | None = None,
    replicas: Sequence[str] | None = None,
) -> None:
    """Set (or clear, with all-``None``) the process-wide store construction."""
    global _DEFAULT_ROOT, _DEFAULT_REMOTE_URL, _DEFAULT_REPLICAS
    _DEFAULT_ROOT = Path(root) if root is not None else None
    _DEFAULT_REMOTE_URL = remote_url
    _DEFAULT_REPLICAS = tuple(replicas) if replicas else None
    if _DEFAULT_ROOT is not None or remote_url is not None or replicas:
        logger.info(
            "default artifact store: root=%s remote=%s replicas=%s",
            _DEFAULT_ROOT, remote_url, _DEFAULT_REPLICAS,
        )


def default_store() -> ArtifactStore:
    """A store built from the configured defaults, or a fresh in-memory store."""
    return ArtifactStore(
        _DEFAULT_ROOT, remote_url=_DEFAULT_REMOTE_URL, replicas=_DEFAULT_REPLICAS
    )
