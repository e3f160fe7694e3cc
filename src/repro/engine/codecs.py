"""Typed artifact codecs: (de)serialization between objects and bytes.

The artifact store used to interleave *what* an artifact is (a JSON record, a
dict of arrays, an embedding pair) with *where* it lives (memory dict, disk
file).  The codecs extract the first concern: each codec turns one artifact
family into bytes and back, and every storage backend
(:mod:`repro.engine.backends`) only ever moves bytes.  That is what makes the
backends interchangeable -- a replica directory and a remote HTTP peer
serve exactly the same payloads a local disk tier writes.

The byte formats match the pre-codec store's disk layout:

* :class:`JsonCodec` -- ``json.dumps(..., indent=2, sort_keys=True)`` UTF-8,
  ``.json`` files;
* :class:`ArraysCodec` -- ``np.savez_compressed``, ``.npz`` files;
* :class:`EmbeddingPairCodec` -- the store's aligned-pair ``.npz`` layout
  (vectors, vocab words/counts per side, metadata as an embedded JSON string).

Decoding never enables ``allow_pickle``: artifact payloads can arrive from
peers over the unauthenticated ``/artifacts`` HTTP API, and ``np.load`` with
pickling enabled would turn any reachable store port into arbitrary code
execution.  All payload fields are plain numeric / fixed-width-unicode
arrays, so pickle is never needed; an undecodable payload is a cache miss.
"""

from __future__ import annotations

import io
import json
from typing import Any, Mapping

import numpy as np

from repro.embeddings.base import Embedding
from repro.utils.io import to_jsonable

__all__ = [
    "ArtifactCodec",
    "JsonCodec",
    "ArraysCodec",
    "EmbeddingPairCodec",
    "JSON_CODEC",
    "ARRAYS_CODEC",
    "EMBEDDING_PAIR_CODEC",
    "codec_for_value",
]


class ArtifactCodec:
    """One artifact family's byte representation.

    ``suffix`` doubles as the on-disk file extension, keeping the disk
    backend's layout (``<kind>/<key><suffix>``) identical to the pre-codec
    store.
    """

    name: str = "abstract"
    suffix: str = ""

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes) -> Any:
        raise NotImplementedError


class JsonCodec(ArtifactCodec):
    """JSON-able artifacts (measure values, downstream results)."""

    name = "json"
    suffix = ".json"

    def encode(self, value: Any) -> bytes:
        return json.dumps(to_jsonable(value), indent=2, sort_keys=True).encode("utf-8")

    def decode(self, payload: bytes) -> Any:
        return json.loads(payload.decode("utf-8"))


class ArraysCodec(ArtifactCodec):
    """Dicts of named numpy arrays (matrix decompositions)."""

    name = "arrays"
    suffix = ".npz"

    def encode(self, value: Mapping[str, np.ndarray]) -> bytes:
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **{k: np.asarray(v) for k, v in value.items()})
        return buffer.getvalue()

    def decode(self, payload: bytes) -> dict[str, np.ndarray]:
        with np.load(io.BytesIO(payload)) as data:
            return {name: data[name] for name in data.files}


class EmbeddingPairCodec(ArtifactCodec):
    """Aligned (base, drifted) embedding pairs.

    The npz payload carries each side's vectors, vocabulary words and counts,
    plus both metadata dicts as one embedded JSON string; decoding restores
    row alignment after :class:`~repro.corpus.vocabulary.Vocabulary` re-sorts
    words by frequency.  Word arrays are fixed-width unicode (``dtype='U...'``)
    and decoding never enables ``allow_pickle``, so a hostile payload arriving
    over the ``/artifacts`` peer API cannot smuggle pickled objects -- the
    worst a bad payload can do is fail to decode (counted as corrupt, treated
    as a miss).  Payloads written by pre-2026 versions with dtype=object word
    arrays are rejected the same way and simply recomputed.
    """

    name = "embedding_pair"
    suffix = ".npz"

    def encode(self, value: tuple[Embedding, Embedding]) -> bytes:
        emb_a, emb_b = value
        payload = {
            "vectors_a": emb_a.vectors,
            "vectors_b": emb_b.vectors,
            "words_a": np.array(emb_a.vocab.words, dtype=np.str_),
            "counts_a": emb_a.vocab.counts,
            "words_b": np.array(emb_b.vocab.words, dtype=np.str_),
            "counts_b": emb_b.vocab.counts,
            "metadata": np.array(
                json.dumps([to_jsonable(emb_a.metadata), to_jsonable(emb_b.metadata)])
            ),
        }
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        return buffer.getvalue()

    def decode(self, payload: bytes) -> tuple[Embedding, Embedding]:
        with np.load(io.BytesIO(payload)) as data:
            meta_a, meta_b = json.loads(str(data["metadata"]))
            embeddings = [
                Embedding.from_word_arrays(
                    data[f"words_{side}"], data[f"counts_{side}"],
                    data[f"vectors_{side}"], metadata=meta,
                )
                for side, meta in (("a", meta_a), ("b", meta_b))
            ]
        return embeddings[0], embeddings[1]


JSON_CODEC = JsonCodec()
ARRAYS_CODEC = ArraysCodec()
EMBEDDING_PAIR_CODEC = EmbeddingPairCodec()


def codec_for_value(value: Any) -> ArtifactCodec:
    """The codec that can serialise ``value`` (type-driven dispatch).

    Used when a store must produce bytes for an artifact it only holds
    decoded in its memory tier -- e.g. a serving node answering a peer's
    ``/artifacts`` fetch for a pair it trained itself.
    """
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and all(isinstance(item, Embedding) for item in value)
    ):
        return EMBEDDING_PAIR_CODEC
    if isinstance(value, Mapping) and value and all(
        isinstance(item, np.ndarray) for item in value.values()
    ):
        return ARRAYS_CODEC
    return JSON_CODEC
