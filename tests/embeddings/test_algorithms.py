"""Tests shared across the embedding training algorithms (CBOW, GloVe, MC, SVD, fastText)."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings import fasttext
from repro.embeddings.fasttext import SubwordEmbeddingModel, character_ngrams, hash_ngram
from repro.embeddings.glove import GloVeModel
from repro.embeddings.matrix_completion import MatrixCompletionModel
from repro.embeddings.svd import PPMISVDModel
from repro.embeddings.word2vec import CBOWModel, build_cbow_examples

FAST_KWARGS = {
    "svd": {},
    "mc": {"epochs": 4},
    "glove": {"epochs": 4},
    "cbow": {"epochs": 2},
    "fasttext": {"epochs": 2},
}

ALGORITHMS = {
    "svd": PPMISVDModel,
    "mc": MatrixCompletionModel,
    "glove": GloVeModel,
    "cbow": CBOWModel,
    "fasttext": SubwordEmbeddingModel,
}


@pytest.fixture(autouse=True)
def few_buckets(monkeypatch):
    """Few n-gram buckets keep the fastText fits small."""
    monkeypatch.setattr(fasttext, "NUM_BUCKETS", 100)


@pytest.fixture(scope="module")
def two_group_corpus():
    """Words 0-9 and 10-19 co-occur only within their group (trivially separable)."""
    rng = np.random.default_rng(0)
    word_list = [f"w{i}" for i in range(20)]
    docs, topics = [], []
    for i in range(200):
        group = i % 2
        docs.append(rng.integers(10 * group, 10 * (group + 1), size=15).astype(np.int64))
        topics.append(group)
    return Corpus(word_list=word_list, documents=docs, document_topics=np.array(topics))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestCommonBehaviour:
    def _fit(self, name, corpus, vocab, dim=8, seed=0):
        model = ALGORITHMS[name](dim=dim, seed=seed, **FAST_KWARGS[name])
        return model.fit(corpus, vocab=vocab)

    def test_output_shape_and_finite(self, name, corpus, vocab):
        emb = self._fit(name, corpus, vocab)
        assert emb.vectors.shape == (len(vocab), 8)
        assert np.all(np.isfinite(emb.vectors))

    def test_metadata_populated(self, name, corpus, vocab):
        emb = self._fit(name, corpus, vocab)
        assert emb.metadata["algorithm"] == name
        assert emb.metadata["dim"] == 8
        assert emb.metadata["precision"] == 32

    def test_same_seed_is_deterministic(self, name, corpus, vocab):
        emb1 = self._fit(name, corpus, vocab, seed=3)
        emb2 = self._fit(name, corpus, vocab, seed=3)
        np.testing.assert_allclose(emb1.vectors, emb2.vectors)

    def test_invalid_dim_raises(self, name, corpus, vocab):
        with pytest.raises(ValueError):
            ALGORITHMS[name](dim=0)

    def test_learns_group_structure(self, name, two_group_corpus):
        """Within-group cosine similarity should exceed across-group similarity."""
        vocab = two_group_corpus.build_vocabulary()
        emb = self._fit(name, two_group_corpus, vocab)
        normed = emb.normalized_vectors()
        sims = normed @ normed.T
        group0 = [vocab[w] for w in two_group_corpus.word_list[:10] if w in vocab]
        group1 = [vocab[w] for w in two_group_corpus.word_list[10:] if w in vocab]
        within = 0.5 * (
            np.mean(sims[np.ix_(group0, group0)]) + np.mean(sims[np.ix_(group1, group1)])
        )
        across = np.mean(sims[np.ix_(group0, group1)])
        assert within > across


class TestCBOWExamples:
    def test_window_and_padding(self):
        contexts, sizes, targets = build_cbow_examples([np.array([1, 2, 3])], 2, pad_id=99)
        assert contexts.shape == (3, 4)
        np.testing.assert_array_equal(targets, [1, 2, 3])
        # The first position has only right-context words; pads fill the rest.
        assert sizes[0] == 2 and sizes[1] == 2 and sizes[2] == 2
        assert (contexts[0] == 99).sum() == 2

    def test_short_documents_skipped(self):
        contexts, sizes, targets = build_cbow_examples([np.array([5])], 2, pad_id=9)
        assert len(targets) == 0


class TestSubwordSpecifics:
    def test_character_ngrams_have_boundaries(self):
        grams = character_ngrams("cat", 3, 4)
        assert "<ca" in grams and "at>" in grams and "<cat" in grams

    def test_hash_is_stable_and_bounded(self):
        assert hash_ngram("abc", 50) == hash_ngram("abc", 50)
        assert 0 <= hash_ngram("abc", 50) < 50


class TestMCSpecifics:
    def test_fit_from_entries_handles_empty(self):
        model = MatrixCompletionModel(dim=4, epochs=2)
        X = model.fit_from_entries(
            rows=np.array([]), cols=np.array([]), values=np.array([]), n_words=5
        )
        assert X.shape == (5, 4)

    def test_mismatched_entries_raise(self):
        model = MatrixCompletionModel(dim=4)
        with pytest.raises(ValueError):
            model.fit_from_entries(
                rows=np.array([0]), cols=np.array([0, 1]), values=np.array([1.0]), n_words=3
            )


class TestSVDSpecifics:
    def test_dim_larger_than_vocab_is_padded(self):
        word_list = ["a", "b", "c", "d"]
        docs = [np.array([0, 1, 2, 3, 0, 1])]
        corpus = Corpus(word_list=word_list, documents=docs, document_topics=np.array([0]))
        vocab = corpus.build_vocabulary()
        emb = PPMISVDModel(dim=10).fit(corpus, vocab=vocab)
        assert emb.vectors.shape == (4, 10)


class TestSharedCooccurrence:
    """MC, GloVe and PPMI-SVD fits of one corpus share its co-occurrence memo."""

    COUNTING = ("glove", "mc", "svd")

    def test_fits_on_one_corpus_equal_fits_on_fresh_copies(self, generator, vocab):
        shared = generator.generate_pair(seed=7).base
        fits = {name: self._fit(name, shared, vocab) for name in self.COUNTING}
        # Equal windows: the three fits read one matrix.
        assert len(shared._cooccurrence) == 1
        for name in self.COUNTING:
            copy = generator.generate_pair(seed=7).base
            assert copy._cooccurrence is not shared._cooccurrence
            np.testing.assert_array_equal(fits[name], self._fit(name, copy, vocab))
            assert len(copy._cooccurrence) == 1

    def test_concurrent_first_fits_match_the_serial_fit(self, generator, vocab):
        serial = self._fit("mc", generator.generate_pair(seed=7).base, vocab)
        corpus = generator.generate_pair(seed=7).base
        start = threading.Barrier(4, timeout=30)

        def fit(_):
            start.wait()
            return self._fit("mc", corpus, vocab)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                vectors = list(pool.map(fit, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got in vectors:
            np.testing.assert_array_equal(got, serial)
        assert len(corpus._cooccurrence) == 1

    @staticmethod
    def _fit(name, corpus, vocab):
        model = ALGORITHMS[name](dim=8, seed=0, **FAST_KWARGS[name])
        return model.fit(corpus, vocab=vocab).vectors
