"""Synthetic Wikipedia-like corpora with controllable temporal drift.

The paper trains embedding pairs on Wiki'17 and Wiki'18 -- two snapshots of
the same underlying text distribution collected a year apart -- and studies
how that small change in training data propagates to downstream predictions.
Offline we cannot ship multi-billion-token Wikipedia dumps, so this module
provides the closest synthetic equivalent:

* a **topic-mixture language**: every document mixes a handful of latent
  topics, each topic boosting a subset of a shared Zipfian vocabulary.  This
  gives the co-occurrence structure embedding algorithms rely on (words from
  the same topic co-occur, yielding embedding clusters that downstream tasks
  can exploit);
* **temporal drift** between the two corpora in a pair: the second corpus
  keeps most documents from the first, replaces a small fraction, appends new
  documents, and slightly shifts the topic prior.  The drift magnitude is a
  single knob mirroring "accumulating 1% more data" / "one year of edits".

Downstream tasks (:mod:`repro.tasks`) derive their label structure from the
same topics, so the connection "embedding geometry -> downstream predictions"
the paper exploits is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.corpus.cooccurrence import build_cooccurrence
from repro.corpus.vocabulary import Vocabulary
from repro.utils.rng import check_random_state
from repro.utils.validation import check_probability

__all__ = ["SyntheticCorpusConfig", "SyntheticCorpusGenerator", "Corpus", "CorpusPair"]


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Configuration of the synthetic corpus generator.

    Attributes
    ----------
    vocab_size:
        Number of distinct word types in the generation lexicon.
    n_topics:
        Number of latent topics.  Topic identities are reused by the
        downstream tasks to define sentiment / entity structure.
    n_documents:
        Number of documents in the base ("year 17") corpus.
    doc_length_mean, doc_length_min:
        Documents lengths are drawn from a geometric-ish distribution with this
        mean, floored at ``doc_length_min``.
    zipf_exponent:
        Exponent of the global Zipf law over word ranks.
    topic_word_fraction:
        Fraction of the vocabulary boosted by each topic.
    topic_boost:
        Multiplicative boost applied to a topic's preferred words.
    topic_concentration:
        Dirichlet concentration of per-document topic mixtures (small values
        give "peaky", nearly single-topic documents).
    drift_doc_replace_fraction:
        Fraction of base documents replaced with fresh ones in the drifted
        corpus.
    drift_new_doc_fraction:
        Fraction of additional documents appended to the drifted corpus
        (models corpus growth between snapshots).
    drift_topic_shift:
        Magnitude of the perturbation applied to the topic prior in the
        drifted corpus.
    """

    vocab_size: int = 2000
    n_topics: int = 8
    n_documents: int = 600
    doc_length_mean: int = 120
    doc_length_min: int = 20
    zipf_exponent: float = 1.05
    topic_word_fraction: float = 0.15
    topic_boost: float = 80.0
    topic_concentration: float = 0.08
    drift_doc_replace_fraction: float = 0.5
    drift_new_doc_fraction: float = 0.1
    drift_topic_shift: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < self.n_topics:
            raise ValueError("vocab_size must be at least n_topics")
        if self.n_documents <= 0:
            raise ValueError("n_documents must be positive")
        if self.doc_length_min <= 1:
            raise ValueError("doc_length_min must be > 1")
        check_probability(self.topic_word_fraction, name="topic_word_fraction")
        check_probability(self.drift_doc_replace_fraction, name="drift_doc_replace_fraction")
        check_probability(self.drift_topic_shift, name="drift_topic_shift")
        if self.drift_new_doc_fraction < 0:
            raise ValueError("drift_new_doc_fraction must be >= 0")


@dataclass
class Corpus:
    """A tokenised corpus: documents of ids into a fixed generation lexicon.

    Attributes
    ----------
    word_list:
        The generation lexicon; index ``i`` is the surface form of word id
        ``i``.  (This is the *generator's* lexicon, not the training
        vocabulary -- build the latter with :meth:`build_vocabulary`.)
    documents:
        List of ``int64`` arrays of word ids.
    document_topics:
        Per-document dominant topic (used by the downstream task generators).
    name:
        Human-readable tag, e.g. ``"wiki17"``.

    A corpus's documents are never changed after construction: the
    co-occurrence memo behind :meth:`cooccurrence` rests on that.
    """

    word_list: list[str]
    documents: list[np.ndarray]
    document_topics: np.ndarray
    name: str = "corpus"
    _cooccurrence: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.documents) != len(self.document_topics):
            raise ValueError("documents and document_topics must have equal length")

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def num_tokens(self) -> int:
        return int(sum(len(d) for d in self.documents))

    def iter_token_documents(self) -> Iterator[list[str]]:
        """Yield each document as a list of word strings."""
        words = self.word_list
        for doc in self.documents:
            yield [words[i] for i in doc]

    def build_vocabulary(self, *, min_count: int = 1, max_size: int | None = None) -> Vocabulary:
        """Build a frequency-ordered training vocabulary from this corpus."""
        counts = np.bincount(
            np.concatenate(self.documents) if self.documents else np.array([], dtype=np.int64),
            minlength=len(self.word_list),
        )
        mapping = {
            self.word_list[i]: int(c) for i, c in enumerate(counts) if c >= max(min_count, 1)
        }
        vocab = Vocabulary(mapping, min_count=min_count)
        if max_size is not None:
            vocab = vocab.truncate(max_size)
        return vocab

    def encode_documents(self, vocab: Vocabulary) -> list[np.ndarray]:
        """Re-encode documents as ids in ``vocab`` (dropping out-of-vocab words)."""
        lookup = np.full(len(self.word_list), -1, dtype=np.int64)
        for gen_id, word in enumerate(self.word_list):
            vid = vocab.word_to_id(word)
            if vid is not None:
                lookup[gen_id] = vid
        encoded = []
        for doc in self.documents:
            ids = lookup[doc]
            encoded.append(ids[ids >= 0])
        return encoded

    def cooccurrence(self, vocab: Vocabulary, *, window_size: int) -> sp.csr_matrix:
        """This corpus's :func:`build_cooccurrence` matrix in ``vocab``.

        Built once per word order and window, then memoized: the MC, GloVe and
        PPMI-SVD fits of one corpus all read the same matrix.  The key is the
        vocabulary's words, not the object, because a :class:`Vocabulary` is
        mutable and encoding depends only on its word order.  The matrix is
        read-only, so a trainer that writes into it raises instead of
        corrupting later fits.  There is no lock, which a pool forked while
        another thread held it would inherit held: two racing first calls
        both build, and both get the matrix stored first.
        """
        key = (tuple(vocab.words), window_size)
        cached = self._cooccurrence.get(key)
        if cached is not None:
            return cached
        built = build_cooccurrence(
            self.encode_documents(vocab), len(vocab), window_size=window_size
        )
        for array in (built.data, built.indices, built.indptr):
            array.flags.writeable = False
        return self._cooccurrence.setdefault(key, built)


@dataclass
class CorpusPair:
    """A (base, drifted) pair of corpora, e.g. Wiki'17 and Wiki'18."""

    base: Corpus
    drifted: Corpus
    config: SyntheticCorpusConfig = field(default_factory=SyntheticCorpusConfig)

    def shared_vocabulary(
        self, *, min_count: int = 1, max_size: int | None = None
    ) -> Vocabulary:
        """Vocabulary over the *intersection* of the two corpora.

        The paper compares embedding rows word-by-word, so both embeddings in a
        pair must be trained (or at least compared) over a common vocabulary.
        """
        vocab_a = self.base.build_vocabulary(min_count=min_count)
        vocab_b = self.drifted.build_vocabulary(min_count=min_count)
        common = vocab_a.intersect(vocab_b)
        counts = {w: vocab_a.count(w) + vocab_b.count(w) for w in common}
        vocab = Vocabulary(counts, min_count=1)
        if max_size is not None:
            vocab = vocab.truncate(max_size)
        return vocab


class SyntheticCorpusGenerator:
    """Generates :class:`Corpus` and :class:`CorpusPair` objects.

    Parameters
    ----------
    config:
        Generation configuration; see :class:`SyntheticCorpusConfig`.
    """

    def __init__(self, config: SyntheticCorpusConfig | None = None) -> None:
        self.config = config or SyntheticCorpusConfig()
        self._word_list = [f"w{idx:05d}" for idx in range(self.config.vocab_size)]
        self._topic_word_dists = self._build_topic_distributions()

    # -- internals -----------------------------------------------------------

    def _build_topic_distributions(self) -> np.ndarray:
        """Per-topic word distributions: Zipf base boosted on topic words.

        Topic word sets are assigned deterministically from the config seed so
        that the base and drifted corpora (and the downstream task lexicons)
        all agree on what each topic "means".
        """
        cfg = self.config
        rng = check_random_state(cfg.seed)
        ranks = np.arange(1, cfg.vocab_size + 1, dtype=np.float64)
        zipf = ranks ** (-cfg.zipf_exponent)
        zipf /= zipf.sum()

        n_topic_words = max(1, int(round(cfg.topic_word_fraction * cfg.vocab_size)))
        dists = np.empty((cfg.n_topics, cfg.vocab_size), dtype=np.float64)
        self._topic_word_ids: list[np.ndarray] = []
        for k in range(cfg.n_topics):
            topic_words = rng.choice(cfg.vocab_size, size=n_topic_words, replace=False)
            self._topic_word_ids.append(np.sort(topic_words))
            boosted = zipf.copy()
            boosted[topic_words] *= cfg.topic_boost
            dists[k] = boosted / boosted.sum()
        return dists

    @property
    def word_list(self) -> list[str]:
        return list(self._word_list)

    def topic_words(self, topic: int) -> list[str]:
        """Surface forms of the words boosted by ``topic`` (used by task lexicons)."""
        ids = self._topic_word_ids[topic]
        return [self._word_list[i] for i in ids]

    def _sample_documents(
        self,
        n_documents: int,
        topic_prior: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[list[np.ndarray], np.ndarray]:
        cfg = self.config
        docs: list[np.ndarray] = []
        dominant_topics = np.empty(n_documents, dtype=np.int64)
        lengths = np.maximum(
            cfg.doc_length_min,
            rng.poisson(cfg.doc_length_mean, size=n_documents),
        )
        alpha = cfg.topic_concentration * cfg.n_topics * topic_prior
        alpha = np.maximum(alpha, 1e-3)
        for i in range(n_documents):
            theta = rng.dirichlet(alpha)
            dominant_topics[i] = int(np.argmax(theta))
            topic_counts = rng.multinomial(lengths[i], theta)
            pieces = []
            for k, count in enumerate(topic_counts):
                if count == 0:
                    continue
                pieces.append(
                    rng.choice(cfg.vocab_size, size=count, p=self._topic_word_dists[k])
                )
            tokens = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
            rng.shuffle(tokens)
            docs.append(tokens.astype(np.int64))
        return docs, dominant_topics

    # -- public API ----------------------------------------------------------

    def generate(
        self,
        *,
        name: str = "corpus",
        seed: int | None = None,
        n_documents: int | None = None,
        topic_prior: Sequence[float] | None = None,
    ) -> Corpus:
        """Generate a single corpus.

        Parameters
        ----------
        name:
            Tag stored on the returned :class:`Corpus`.
        seed:
            Sampling seed (defaults to the config seed).
        n_documents:
            Number of documents (defaults to the config value).
        topic_prior:
            Topic prior; uniform when omitted.
        """
        cfg = self.config
        rng = check_random_state(cfg.seed if seed is None else seed)
        n_docs = cfg.n_documents if n_documents is None else int(n_documents)
        prior = (
            np.full(cfg.n_topics, 1.0 / cfg.n_topics)
            if topic_prior is None
            else np.asarray(topic_prior, dtype=np.float64)
        )
        if prior.shape != (cfg.n_topics,):
            raise ValueError(f"topic_prior must have shape ({cfg.n_topics},)")
        prior = prior / prior.sum()
        docs, topics = self._sample_documents(n_docs, prior, rng)
        return Corpus(
            word_list=self.word_list, documents=docs, document_topics=topics, name=name
        )

    def generate_pair(
        self,
        *,
        seed: int | None = None,
        base_name: str = "wiki17",
        drifted_name: str = "wiki18",
    ) -> CorpusPair:
        """Generate a (base, drifted) corpus pair.

        The drifted corpus reuses most of the base documents, replaces a small
        fraction, appends freshly-sampled documents, and samples the new
        documents from a slightly perturbed topic prior -- mirroring a year of
        Wikipedia edits plus growth.
        """
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        rng = check_random_state(seed)

        base = self.generate(name=base_name, seed=int(rng.integers(2**31 - 1)))

        uniform = np.full(cfg.n_topics, 1.0 / cfg.n_topics)
        shift = rng.dirichlet(np.ones(cfg.n_topics))
        drift_prior = (1.0 - cfg.drift_topic_shift) * uniform + cfg.drift_topic_shift * shift

        n_replace = int(round(cfg.drift_doc_replace_fraction * len(base)))
        n_new = int(round(cfg.drift_new_doc_fraction * len(base)))

        keep_mask = np.ones(len(base), dtype=bool)
        if n_replace > 0:
            replace_ids = rng.choice(len(base), size=n_replace, replace=False)
            keep_mask[replace_ids] = False

        kept_docs = [base.documents[i] for i in range(len(base)) if keep_mask[i]]
        kept_topics = base.document_topics[keep_mask]

        fresh_docs, fresh_topics = self._sample_documents(
            n_replace + n_new, drift_prior, rng
        )

        drifted = Corpus(
            word_list=self.word_list,
            documents=kept_docs + fresh_docs,
            document_topics=np.concatenate([kept_topics, fresh_topics]),
            name=drifted_name,
        )
        return CorpusPair(base=base, drifted=drifted, config=cfg)

    def with_config(self, **overrides) -> "SyntheticCorpusGenerator":
        """Return a new generator with some config fields overridden."""
        return SyntheticCorpusGenerator(replace(self.config, **overrides))
