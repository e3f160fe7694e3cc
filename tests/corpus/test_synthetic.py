"""Tests for the synthetic corpus generator and corpus containers."""

import numpy as np
import pytest

from repro.corpus.cooccurrence import build_cooccurrence
from repro.corpus.synthetic import (
    Corpus,
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SyntheticCorpusConfig()

    def test_vocab_smaller_than_topics_raises(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(vocab_size=2, n_topics=5)

    def test_negative_documents_raises(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(n_documents=0)

    def test_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(drift_doc_replace_fraction=1.5)


class TestGeneration:
    def test_document_count_and_types(self, generator):
        corpus = generator.generate(seed=1, n_documents=10)
        assert len(corpus) == 10
        assert all(doc.dtype == np.int64 for doc in corpus.documents)
        assert corpus.num_tokens > 0

    def test_word_ids_in_range(self, generator):
        corpus = generator.generate(seed=1, n_documents=5)
        upper = generator.config.vocab_size
        for doc in corpus.documents:
            assert doc.min() >= 0 and doc.max() < upper

    def test_determinism(self, generator):
        a = generator.generate(seed=5, n_documents=5)
        b = generator.generate(seed=5, n_documents=5)
        for da, db in zip(a.documents, b.documents):
            np.testing.assert_array_equal(da, db)

    def test_different_seeds_differ(self, generator):
        a = generator.generate(seed=1, n_documents=5)
        b = generator.generate(seed=2, n_documents=5)
        assert any(
            len(da) != len(db) or not np.array_equal(da, db)
            for da, db in zip(a.documents, b.documents)
        )

    def test_topic_prior_shape_validated(self, generator):
        with pytest.raises(ValueError, match="topic_prior"):
            generator.generate(topic_prior=[1.0, 2.0])

    def test_topic_words_are_known_words(self, generator):
        words = generator.topic_words(0)
        assert words
        assert set(words) <= set(generator.word_list)

    def test_with_config_override(self, generator):
        other = generator.with_config(n_documents=3)
        assert other.config.n_documents == 3
        assert generator.config.n_documents != 3


class TestCorpusPair:
    def test_pair_names(self, corpus_pair):
        assert corpus_pair.base.name == "wiki17"
        assert corpus_pair.drifted.name == "wiki18"

    def test_drifted_corpus_grows(self, corpus_pair, generator):
        cfg = generator.config
        expected = len(corpus_pair.base) + round(cfg.drift_new_doc_fraction * len(corpus_pair.base))
        assert len(corpus_pair.drifted) == expected

    def test_pair_shares_documents(self, corpus_pair, generator):
        base_docs = {doc.tobytes() for doc in corpus_pair.base.documents}
        drifted_docs = {doc.tobytes() for doc in corpus_pair.drifted.documents}
        shared = len(base_docs & drifted_docs)
        # Roughly (1 - replace_fraction) of documents should be carried over.
        assert shared >= 0.3 * len(base_docs)
        assert shared < len(drifted_docs)

    def test_shared_vocabulary_subset_of_both(self, corpus_pair):
        vocab = corpus_pair.shared_vocabulary(min_count=1)
        base_vocab = corpus_pair.base.build_vocabulary()
        drifted_vocab = corpus_pair.drifted.build_vocabulary()
        for word in vocab.words[:50]:
            assert word in base_vocab and word in drifted_vocab


class TestCorpusContainer:
    def test_build_vocabulary_counts_match_tokens(self, corpus):
        vocab = corpus.build_vocabulary(min_count=1)
        assert vocab.total_count == corpus.num_tokens

    def test_encode_documents_drop_oov(self, corpus):
        vocab = corpus.build_vocabulary(min_count=5)
        encoded = corpus.encode_documents(vocab)
        assert len(encoded) == len(corpus)
        for doc in encoded:
            if len(doc):
                assert doc.max() < len(vocab)

    def test_iter_token_documents(self, corpus):
        first = next(iter(corpus.iter_token_documents()))
        assert all(isinstance(tok, str) for tok in first)
        assert len(first) == len(corpus.documents[0])

    def test_mismatched_topics_raises(self):
        with pytest.raises(ValueError):
            Corpus(word_list=["a"], documents=[np.array([0])], document_topics=np.array([0, 1]))


class TestCooccurrenceMemo:
    """``Corpus.cooccurrence`` builds each matrix once per corpus."""

    @pytest.fixture()
    def fresh(self, generator):
        return generator.generate(seed=11, n_documents=20)

    def test_equals_a_fresh_build_byte_for_byte(self, fresh):
        vocab = fresh.build_vocabulary(min_count=2)
        memo = fresh.cooccurrence(vocab, window_size=3)
        built = build_cooccurrence(fresh.encode_documents(vocab), len(vocab), window_size=3)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(memo, name), getattr(built, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert memo.shape == built.shape

    def test_one_entry_per_word_order_and_window(self, fresh):
        vocab = fresh.build_vocabulary(min_count=2)
        first = fresh.cooccurrence(vocab, window_size=3)
        assert fresh.cooccurrence(vocab, window_size=3) is first
        # Equal words in a new object share the entry: the key is content.
        assert fresh.cooccurrence(fresh.build_vocabulary(min_count=2), window_size=3) is first
        other_window = fresh.cooccurrence(vocab, window_size=2)
        other_words = fresh.cooccurrence(vocab.truncate(len(vocab) - 1), window_size=3)
        assert other_window is not first and other_words is not first
        assert other_words.shape == (len(vocab) - 1, len(vocab) - 1)
        assert len(fresh._cooccurrence) == 3

    def test_the_memoized_matrix_is_read_only(self, fresh):
        matrix = fresh.cooccurrence(fresh.build_vocabulary(), window_size=3)
        for array in (matrix.data, matrix.indices, matrix.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
