"""Subword (fastText-style) embeddings for the Appendix E.1 robustness study.

fastText (Bojanowski et al., 2017) represents a word as the sum of its
character n-gram vectors plus a word vector, trained with the same negative
sampling objective as word2vec.  We reuse the CBOW training machinery but
compose every input word vector from hashed n-gram buckets, so the
stability-memory experiments of Appendix E.1 exercise a genuinely subword
pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import EMBEDDING_ALGORITHMS
from repro.embeddings.word2vec import (
    BATCH_SIZE,
    LEARNING_RATE,
    NEGATIVE_SAMPLES,
    CBOWModel,
    build_cbow_examples,
)
from repro.linalg.kernels import scatter_add_rows
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["SubwordEmbeddingModel", "character_ngrams", "hash_ngram"]

# Subword settings no caller varies.  Like CBOW's constants, no artifact key
# holds them: changing one needs a new key field.
#: Hash buckets of the character n-grams.
NUM_BUCKETS = 2000
#: Character n-gram length range.
MIN_N = 3
MAX_N = 5


def character_ngrams(word: str, min_n: int = MIN_N, max_n: int = MAX_N) -> list[str]:
    """Character n-grams of ``<word>`` with boundary markers, fastText-style."""
    marked = f"<{word}>"
    grams = []
    for n in range(min_n, max_n + 1):
        if n > len(marked):
            break
        grams.extend(marked[i : i + n] for i in range(len(marked) - n + 1))
    return grams


def hash_ngram(gram: str, num_buckets: int) -> int:
    """Deterministic FNV-1a hash of an n-gram into ``num_buckets``."""
    h = np.uint64(2166136261)
    for ch in gram.encode("utf-8"):
        h = np.uint64((int(h) ^ ch) * 16777619 & 0xFFFFFFFF)
    return int(h) % num_buckets


@EMBEDDING_ALGORITHMS.register("fasttext")
class SubwordEmbeddingModel(CBOWModel):
    """CBOW with subword (hashed character n-gram) input vectors.

    Takes :class:`~repro.embeddings.word2vec.CBOWModel`'s parameters and
    training constants; the subword settings are this module's
    ``NUM_BUCKETS``, ``MIN_N`` and ``MAX_N``.
    """

    name = "fasttext"

    def _word_ngram_ids(self, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
        """Padded matrix of n-gram bucket ids per word, plus per-word counts.

        Bucket ids are offset by the vocabulary size so they index into the
        same parameter table as the word vectors; ``NUM_BUCKETS`` is the pad
        slot at the very end.
        """
        n_words = len(vocab)
        ngram_lists = []
        for word in vocab.words:
            ids = [n_words + hash_ngram(g, NUM_BUCKETS) for g in character_ngrams(word)]
            ngram_lists.append(ids)
        max_len = max((len(ids) for ids in ngram_lists), default=0)
        pad_slot = n_words + NUM_BUCKETS
        table = np.full((n_words, max(max_len, 1)), pad_slot, dtype=np.int64)
        counts = np.zeros(n_words, dtype=np.int64)
        for i, ids in enumerate(ngram_lists):
            counts[i] = len(ids)
            if ids:
                table[i, : len(ids)] = ids
        return table, counts

    def _train(
        self, docs: list[np.ndarray], vocab: Vocabulary, rng: np.random.Generator
    ) -> np.ndarray:
        n_words = len(vocab)
        ngram_table, ngram_counts = self._word_ngram_ids(vocab)
        pad_word = n_words + NUM_BUCKETS  # shared pad slot (all-zero row)
        n_params = n_words + NUM_BUCKETS + 1

        contexts, sizes, targets = build_cbow_examples(docs, self.window_size, pad_word)
        n_examples = len(targets)

        W_in = (rng.random((n_params, self.dim)) - 0.5) / self.dim
        W_in[pad_word] = 0.0
        W_out = np.zeros((n_words, self.dim))

        if n_examples == 0:
            logger.warning("subword model received no training examples; returning init")
            return self._compose(W_in, ngram_table, ngram_counts, n_words)

        neg_probs = self._negative_table(vocab)
        total_steps = self.epochs * int(np.ceil(n_examples / BATCH_SIZE))
        step = 0
        denom = 1.0 + ngram_counts.astype(np.float64)  # word vector + its n-grams

        for _epoch in range(self.epochs):
            order = rng.permutation(n_examples)
            for start in range(0, n_examples, BATCH_SIZE):
                lr = LEARNING_RATE * max(1e-1, 1.0 - step / max(total_steps, 1))
                step += 1
                batch = order[start : start + BATCH_SIZE]
                ctx = contexts[batch]
                size = sizes[batch].astype(np.float64)
                tgt = targets[batch]
                B = len(batch)

                # Input representation of a context word = mean of its word
                # vector and its n-gram vectors; hidden = mean over context.
                ctx_flat = ctx.ravel()
                real = ctx_flat < n_words
                word_part = W_in[np.where(real, ctx_flat, pad_word)]
                ngram_sum = np.zeros_like(word_part)
                ngram_ids = ngram_table[np.where(real, ctx_flat, 0)]
                ngram_ids[~real] = pad_word
                ngram_sum = W_in[ngram_ids].sum(axis=1)
                word_denom = np.where(real, denom[np.where(real, ctx_flat, 0)], 1.0)
                composed = (word_part + ngram_sum) / word_denom[:, None]
                composed[~real] = 0.0
                composed = composed.reshape(B, ctx.shape[1], self.dim)
                hidden = composed.sum(axis=1) / size[:, None]

                negs = rng.choice(n_words, size=(B, NEGATIVE_SAMPLES), p=neg_probs)
                samples = np.concatenate([tgt[:, None], negs], axis=1)
                labels = np.zeros((B, 1 + NEGATIVE_SAMPLES))
                labels[:, 0] = 1.0

                out_vecs = W_out[samples]
                scores = np.einsum("bkd,bd->bk", out_vecs, hidden)
                probs = self._sigmoid(scores)
                delta = probs - labels

                grad_hidden = np.einsum("bk,bkd->bd", delta, out_vecs)
                grad_out = delta[:, :, None] * hidden[:, None, :]
                scatter_add_rows(W_out, samples.ravel(), (-lr * grad_out).reshape(-1, self.dim))

                # Propagate to word vectors and their n-gram buckets.
                ctx_grad = (-lr) * grad_hidden / size[:, None]                 # (B, d)
                per_slot = np.repeat(ctx_grad, ctx.shape[1], axis=0)           # (B*2w, d)
                per_slot = per_slot / word_denom[:, None]
                per_slot[~real] = 0.0
                scatter_add_rows(W_in, np.where(real, ctx_flat, pad_word), per_slot)
                ngram_grad = np.repeat(per_slot[:, None, :], ngram_ids.shape[1], axis=1)
                scatter_add_rows(W_in, ngram_ids.ravel(), ngram_grad.reshape(-1, self.dim))
                W_in[pad_word] = 0.0

        return self._compose(W_in, ngram_table, ngram_counts, n_words)

    @staticmethod
    def _compose(
        W_in: np.ndarray, ngram_table: np.ndarray, ngram_counts: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Final word vectors: mean of word vector and its n-gram vectors."""
        ngram_sum = W_in[ngram_table].sum(axis=1)
        denom = (1.0 + ngram_counts.astype(np.float64))[:, None]
        return (W_in[:n_words] + ngram_sum) / denom
