"""Embedding container and the common interface of embedding algorithms."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.utils.registry import Registry
from repro.utils.validation import check_array, float_dtype_of

__all__ = ["Embedding", "EmbeddingAlgorithm", "EMBEDDING_ALGORITHMS"]

#: Registry of embedding algorithms keyed by the names used in the paper
#: ("cbow", "glove", "mc", ...).
EMBEDDING_ALGORITHMS: Registry = Registry("embedding algorithm")


@dataclass
class Embedding:
    """A trained word embedding: a vocabulary plus an ``(n, d)`` matrix.

    Attributes
    ----------
    vocab:
        Vocabulary in row order (row ``i`` embeds ``vocab.id_to_word(i)``).
    vectors:
        Dense float matrix of shape ``(len(vocab), dim)``; float64 unless the
        caller supplies float32 (the float32 kernel policy), which is kept.
    metadata:
        Free-form provenance (algorithm name, corpus name, seed, precision...)
        carried along so experiment records can identify the artifact.
    """

    vocab: Vocabulary
    vectors: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.vectors = check_array(
            self.vectors, name="vectors", ndim=2, dtype=float_dtype_of(self.vectors)
        )
        if self.vectors.shape[0] != len(self.vocab):
            raise ValueError(
                f"vectors has {self.vectors.shape[0]} rows but vocabulary has "
                f"{len(self.vocab)} words"
            )

    # -- basic properties ----------------------------------------------------

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def n_words(self) -> int:
        return int(self.vectors.shape[0])

    def __len__(self) -> int:
        return self.n_words

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def vector(self, word: str) -> np.ndarray:
        """Return the embedding of ``word`` (raises ``KeyError`` when unknown)."""
        idx = self.vocab.word_to_id(word)
        if idx is None:
            raise KeyError(f"word {word!r} is not in the embedding vocabulary")
        return self.vectors[idx]

    def get(self, word: str, default: np.ndarray | None = None) -> np.ndarray | None:
        idx = self.vocab.word_to_id(word)
        return self.vectors[idx] if idx is not None else default

    # -- restriction / alignment helpers -------------------------------------

    def restrict(self, words: list[str] | int) -> "Embedding":
        """Restrict to a word list, or to the top-``k`` most frequent words.

        The paper computes every embedding-distance measure over the top-10k
        most frequent words only; passing an ``int`` implements that slice.
        """
        if isinstance(words, int):
            words = self.vocab.words[:words]
        ids = []
        counts = {}
        for w in words:
            idx = self.vocab.word_to_id(w)
            if idx is None:
                raise KeyError(f"word {w!r} is not in the embedding vocabulary")
            ids.append(idx)
            counts[w] = self.vocab.count(w)
        sub_vocab = Vocabulary(counts)
        # Vocabulary orders by frequency; re-gather rows in that order.
        row_ids = [self.vocab.word_to_id(w) for w in sub_vocab.words]
        return Embedding(
            vocab=sub_vocab,
            vectors=self.vectors[np.asarray(row_ids, dtype=np.int64)],
            metadata=dict(self.metadata),
        )

    def astype(self, dtype) -> "Embedding":
        """A copy with vectors cast to ``dtype`` (``self`` when it already matches)."""
        dtype = np.dtype(dtype)
        if self.vectors.dtype == dtype:
            return self
        return Embedding(
            vocab=self.vocab,
            vectors=self.vectors.astype(dtype),
            metadata={**self.metadata, "dtype": dtype.name},
        )

    def with_vectors(self, vectors: np.ndarray, **metadata_updates) -> "Embedding":
        """Return a copy with new vectors (same vocabulary), e.g. after compression."""
        meta = dict(self.metadata)
        meta.update(metadata_updates)
        return Embedding(vocab=self.vocab, vectors=np.asarray(vectors, dtype=np.float64), metadata=meta)

    @staticmethod
    def common_words(a: "Embedding", b: "Embedding", *, top_k: int | None = None) -> list[str]:
        """Words present in both embeddings, ordered by frequency in ``a``."""
        words = [w for w in a.vocab.words if w in b.vocab]
        if top_k is not None:
            words = words[:top_k]
        return words

    @staticmethod
    def aligned_pair(
        a: "Embedding", b: "Embedding", *, top_k: int | None = None
    ) -> tuple["Embedding", "Embedding"]:
        """Restrict both embeddings to their common vocabulary, rows aligned."""
        words = Embedding.common_words(a, b, top_k=top_k)
        if not words:
            raise ValueError("embeddings share no vocabulary")
        ra = a.restrict(words)
        # Force identical row order on b by re-using a's restricted vocab order.
        order = ra.vocab.words
        ids_b = np.asarray([b.vocab.word_to_id(w) for w in order], dtype=np.int64)
        rb = Embedding(vocab=ra.vocab, vectors=b.vectors[ids_b], metadata=dict(b.metadata))
        return ra, rb

    # -- similarity ----------------------------------------------------------

    def normalized_vectors(self) -> np.ndarray:
        """Row-normalised copy of the matrix (zero rows stay zero)."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return self.vectors / norms

    def nearest_neighbors(self, word: str, k: int = 10) -> list[tuple[str, float]]:
        """The ``k`` nearest words to ``word`` by cosine similarity."""
        idx = self.vocab.word_to_id(word)
        if idx is None:
            raise KeyError(f"word {word!r} is not in the embedding vocabulary")
        normed = self.normalized_vectors()
        sims = normed @ normed[idx]
        sims[idx] = -np.inf
        top = np.argsort(-sims)[:k]
        return [(self.vocab.id_to_word(int(i)), float(sims[i])) for i in top]

    # -- persistence ---------------------------------------------------------

    @classmethod
    def from_word_arrays(
        cls, words, counts, vectors, metadata: dict | None = None
    ) -> "Embedding":
        """Rebuild an embedding from parallel word / count / vector arrays.

        :class:`~repro.corpus.vocabulary.Vocabulary` re-sorts words by
        frequency, so the vector rows are re-gathered into the rebuilt
        vocabulary's order.  Shared by :meth:`load` and the store's
        embedding-pair codec.
        """
        words = [str(w) for w in words]
        vocab = Vocabulary({w: int(c) for w, c in zip(words, counts)})
        index = {w: i for i, w in enumerate(words)}
        order = np.asarray([index[w] for w in vocab.words], dtype=np.int64)
        vectors = np.asarray(vectors)
        # Arrays saved in vocabulary order (the store codecs always are)
        # re-gather as the identity, so the fancy-index copy is skipped.
        if not np.array_equal(order, np.arange(len(order))):
            vectors = vectors[order]
        return cls(
            vocab=vocab,
            vectors=vectors,
            metadata=dict(metadata or {}),
        )

    def save(self, path: str | Path) -> Path:
        """Save vectors + vocabulary to a ``.npz`` file."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        # Fixed-width unicode (not dtype=object) so load() never needs
        # allow_pickle -- pickled npz fields are an arbitrary-code-execution
        # vector when a file comes from anywhere but this process.
        words = np.array(self.vocab.words, dtype=np.str_)
        counts = self.vocab.counts
        np.savez_compressed(p, vectors=self.vectors, words=words, counts=counts)
        return p if p.suffix == ".npz" else p.with_suffix(p.suffix + ".npz")

    @classmethod
    def load(cls, path: str | Path) -> "Embedding":
        with np.load(Path(path)) as data:
            try:
                words = data["words"]
            except ValueError as error:
                # Files written before the pickle-free format stored words as
                # dtype=object; loading them would require allow_pickle.
                raise ValueError(
                    f"{path} was saved by an older version with pickled word "
                    "arrays; re-save it with the current version (loading "
                    "pickled fields is disabled because it executes "
                    "arbitrary code)"
                ) from error
            return cls.from_word_arrays(words, data["counts"], data["vectors"])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        algo = self.metadata.get("algorithm", "?")
        return f"Embedding(n={self.n_words}, dim={self.dim}, algorithm={algo})"


class EmbeddingAlgorithm(abc.ABC):
    """Common interface of the embedding training algorithms.

    Subclasses implement :meth:`fit`, returning an :class:`Embedding` whose
    vocabulary is the corpus vocabulary (optionally capped).  All algorithms
    accept ``dim`` and ``seed`` so the experiment grid can sweep them.
    """

    name: str = "base"

    def __init__(self, dim: int = 50, *, seed: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.seed = int(seed)

    @abc.abstractmethod
    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> Embedding:
        """Train an embedding on ``corpus`` (over ``vocab`` when given)."""

    def _resolve_vocab(self, corpus: Corpus, vocab: Vocabulary | None) -> Vocabulary:
        return vocab if vocab is not None else corpus.build_vocabulary()

    def _metadata(self, corpus: Corpus) -> dict:
        return {
            "algorithm": self.name,
            "corpus": corpus.name,
            "dim": self.dim,
            "seed": self.seed,
            "precision": 32,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(dim={self.dim}, seed={self.seed})"
