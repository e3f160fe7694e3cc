"""CorpusIngestor: growing vocabulary, ingest counters, snapshots."""

import pytest

from repro.corpus.snapshots import snapshot_key
from repro.monitor.ingest import CorpusIngestor

BATCH_1 = [["the", "cat", "sat"], ["the", "dog", "sat", "down"]]
BATCH_2 = [["a", "cat", "and", "a", "dog"], ["the", "the", "the"]]


class TestAddBatch:
    def test_stats_accumulate(self):
        ingestor = CorpusIngestor()
        first = ingestor.add_batch(BATCH_1)
        assert first["batch_documents"] == 2
        assert first["batch_tokens"] == 7
        second = ingestor.add_batch(BATCH_2)
        assert second["documents"] == 4
        assert second["batches"] == 2
        assert second["tokens"] == 15
        assert second["vocab_size"] == len({"the", "cat", "sat", "dog", "down", "a", "and"})

    def test_rejects_empty(self):
        ingestor = CorpusIngestor()
        with pytest.raises(ValueError):
            ingestor.add_batch([])
        with pytest.raises(ValueError):
            ingestor.add_batch([["ok"], []])

    def test_empty_ingestor_has_no_snapshot(self):
        ingestor = CorpusIngestor()
        with pytest.raises(ValueError):
            ingestor.snapshot_corpus()


class TestSnapshots:
    def test_snapshot_key_stable_when_unchanged(self):
        ingestor = CorpusIngestor()
        ingestor.add_batch(BATCH_1)
        assert snapshot_key(ingestor.snapshot_corpus()) == snapshot_key(
            ingestor.snapshot_corpus()
        )

    def test_snapshot_key_changes_with_content(self):
        ingestor = CorpusIngestor()
        ingestor.add_batch(BATCH_1)
        before = snapshot_key(ingestor.snapshot_corpus())
        ingestor.add_batch(BATCH_2)
        assert snapshot_key(ingestor.snapshot_corpus()) != before

    def test_snapshot_encodes_all_documents_in_final_vocab(self):
        ingestor = CorpusIngestor()
        ingestor.add_batch(BATCH_1)
        ingestor.add_batch(BATCH_2)
        corpus = ingestor.snapshot_corpus()
        assert len(corpus.documents) == 4
        decoded = [[corpus.word_list[i] for i in doc] for doc in corpus.documents]
        assert decoded == BATCH_1 + BATCH_2
