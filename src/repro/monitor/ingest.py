"""Incremental corpus ingestion: a growing vocabulary over document batches.

The paper's scenario is a corpus that *accumulates* -- Wiki'17 grows into
Wiki'18 -- and :class:`CorpusIngestor` is that accumulation made online.
Document batches arrive as tokenised text; the ingestor keeps them, grows a
frequency-ordered :class:`~repro.corpus.vocabulary.Vocabulary` over them and
counts what it has taken in.  Retrains build their co-occurrence statistics
from the snapshot corpus itself, with the pipeline's own window and
vocabulary cut-off.

:meth:`snapshot_corpus` freezes the ingested state into a
:class:`~repro.corpus.synthetic.Corpus` whose word list is the current
vocabulary; the monitor's scheduler stores it content-addressed
(:mod:`repro.corpus.snapshots`) and retrains embedding versions over
successive snapshot pairs.

The ingestor's vocabulary uses ``min_count=1``: every ingested token is
in-vocabulary, so a snapshot encodes every document in full.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary

__all__ = ["CorpusIngestor"]


class CorpusIngestor:
    """Accumulates tokenised document batches into monitored corpus state."""

    def __init__(self) -> None:
        self.vocab = Vocabulary(min_count=1)
        self._documents: list[list[str]] = []
        self._lock = threading.Lock()
        self.batches_ingested = 0
        self.tokens_ingested = 0

    # -- ingestion -----------------------------------------------------------

    def add_batch(self, documents: Sequence[Sequence[str]]) -> dict:
        """Merge one batch of tokenised documents; returns ingest stats."""
        batch = [[str(token) for token in doc] for doc in documents]
        if not batch or any(not doc for doc in batch):
            raise ValueError("documents must be a non-empty list of non-empty token lists")
        batch_tokens = sum(len(doc) for doc in batch)
        with self._lock:
            self.vocab.update(token for doc in batch for token in doc)
            self._documents.extend(batch)
            self.batches_ingested += 1
            self.tokens_ingested += batch_tokens
            return {
                "batch_documents": len(batch),
                "batch_tokens": batch_tokens,
                **self._stats_locked(),
            }

    # -- snapshots -----------------------------------------------------------

    def snapshot_corpus(self) -> Corpus:
        """Freeze everything ingested so far as a :class:`Corpus`.

        The word list is the current vocabulary in id order and every
        document is encoded against it, so the corpus is self-contained --
        exactly what :func:`repro.corpus.snapshots.store_snapshot` needs.
        Topic labels are zeros: ingested corpora carry no generator topics
        (downstream task structure comes from the pipeline's config-derived
        lexicons, not from the corpus).
        """
        with self._lock:
            if not self._documents:
                raise ValueError("no documents ingested yet")
            documents = [self.vocab.encode(doc) for doc in self._documents]
            return Corpus(
                word_list=self.vocab.words,
                documents=documents,
                document_topics=np.zeros(len(documents), dtype=np.int64),
                # The snapshot key hashes the name: one constant name lets an
                # unchanged corpus cut to the same key, which the scheduler
                # skips, and keeps the keys of stored snapshots.
                name="monitor",
            )

    # -- observability ---------------------------------------------------------

    def _stats_locked(self) -> dict:
        return {
            "batches": self.batches_ingested,
            "documents": len(self._documents),
            "tokens": self.tokens_ingested,
            "vocab_size": len(self.vocab),
        }

    def stats(self) -> dict:
        with self._lock:
            return self._stats_locked()
