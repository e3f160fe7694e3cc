"""Content-addressed artifact store: a tier stack over pluggable backends.

Every expensive artifact of the instability pipeline -- trained embedding
pairs, quantized pairs, matrix decompositions, downstream results, measure
values -- is keyed by a hash of the configuration that produced it.  Repeated
grid cells, repeated experiments, and repeated *runs* then hit the cache
instead of recomputing.

The store is layered:

* an **object memory tier** (always on) holds decoded artifacts and preserves
  object identity within a process -- it also backs :meth:`preload` (worker
  warm-up) and :meth:`memory_entries`;
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
    "config_hash",
    "CacheStats",
    "ArtifactStore",
    "configure_default_store",
    "default_store",
]


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

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def _array_bytes(value: Any) -> int:
    """Array bytes ``value`` holds.

    Understands the store's artifact families: embedding pairs, dicts of
    arrays, bare arrays.  JSON-able values count zero -- the gauge exists to
    show where the large matrices live, not to re-implement ``sys.getsizeof``.
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
        self._memory: dict[tuple[str, str], Any] = {}
        #: Codec each memory entry was stored/decoded with.  The byte-level
        #: peer API needs it to encode memory-only artifacts under the same
        #: name a disk tier would use; re-inferring from the value's type is
        #: ambiguous (an empty dict could be JSON or an empty arrays npz).
        self._memory_codecs: dict[tuple[str, str], ArtifactCodec] = {}
        #: Byte payloads get_bytes encoded on the fly for peers, memoised so
        #: repeated fetches of the same memory-only artifact don't re-run
        #: savez_compressed; invalidated whenever the entry changes.
        self._encoded: dict[tuple[str, str], bytes] = {}
        #: Array bytes each memory-tier entry holds; feeds the
        #: ``bytes_in_memory`` gauge.
        self._memory_bytes: dict[tuple[str, str], int] = {}
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
        self._memory[(kind, key)] = value
        self._memory_bytes[(kind, key)] = _array_bytes(value)
        self._encoded.pop((kind, key), None)
        self.stat(kind).preloads += 1

    def memory_entries(self, kind: str) -> dict[str, Any]:
        """Snapshot of the memory tier's entries of one artifact kind."""
        # ``copy()`` snapshots the dict in one C call that allocates nothing
        # per entry, so neither a put on another thread nor a garbage
        # collection (which can run Python code) interleaves with it.
        entries = self._memory.copy()
        return {key: value for (k, key), value in entries.items() if k == kind}

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
        """Bytes the object memory tier holds: each entry's array bytes plus
        any byte payloads memoised for peer serving."""
        # Snapshots taken in one C call each, allocating nothing per entry:
        # /metrics reads this while puts and peer reads fill both dicts on
        # other threads.
        sizes = list(self._memory_bytes.values())
        payloads = list(self._encoded.values())
        return sum(sizes) + sum(len(payload) for payload in payloads)

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

    def _get(self, kind: str, key: str, codec: ArtifactCodec) -> Any | None:
        memo = self._memory.get((kind, key))
        if memo is not None:
            self._record(kind, True)
            return memo
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
            for upper in self.tiers[:index]:
                upper.put(kind, name, payload)
            self._memoize(kind, key, value, codec)
            self._record(kind, True)
            return value
        self._record(kind, False)
        return None

    def _memoize(self, kind: str, key: str, value: Any, codec: ArtifactCodec) -> None:
        self._memory[(kind, key)] = value
        self._memory_codecs[(kind, key)] = codec
        self._memory_bytes[(kind, key)] = _array_bytes(value)

    def _put(self, kind: str, key: str, value: Any, codec: ArtifactCodec) -> None:
        # Tiers first: a tier that raises (a full disk) leaves the value
        # unmemoized and uncounted, so no later lookup hits a copy that
        # never reached the tiers.
        if self.tiers:
            payload = codec.encode(value)
            name = key + codec.suffix
            for tier in self.tiers:
                with span("store.put", metric="store", label=f"{tier.name}.put",
                          tier=tier.name, kind=kind, bytes=len(payload)):
                    tier.put(kind, name, payload)
        self._memoize(kind, key, value, codec)
        self._encoded.pop((kind, key), None)
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

    def _memory_codec(self, kind: str, key: str, value: Any) -> ArtifactCodec:
        """Codec of a memory entry: recorded at put/decode, else type-inferred.

        The fallback covers :meth:`preload`-seeded entries, which arrive
        without byte-level provenance.
        """
        return self._memory_codecs.get((kind, key)) or codec_for_value(value)

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
        if split is not None:
            key, suffix = split
            memo = self._memory.get((kind, key))
            if memo is not None:
                codec = self._memory_codec(kind, key, memo)
                if codec.suffix == suffix:
                    payload = self._encoded.get((kind, key))
                    if payload is None:
                        payload = codec.encode(memo)
                        self._encoded[(kind, key)] = payload
                    return payload
        return None

    def contains_bytes(self, kind: str, name: str) -> bool:
        if any(tier.contains(kind, name) for tier in self._local_tiers):
            return True
        split = self._split_name(name)
        if split is None:
            return False
        key, suffix = split
        memo = self._memory.get((kind, key))
        # Mirror get_bytes: a memory-only artifact only "exists" under the
        # name its codec would encode it as (HEAD 200 must imply GET 200).
        return memo is not None and self._memory_codec(kind, key, memo).suffix == suffix

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
                self._memoize(kind, key, value, codec)
                self._encoded.pop((kind, key), None)
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
            self._memory.pop((kind, split[0]), None)
            self._memory_codecs.pop((kind, split[0]), None)
            self._memory_bytes.pop((kind, split[0]), None)
            self._encoded.pop((kind, split[0]), None)


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
