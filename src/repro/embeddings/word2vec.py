"""word2vec continuous bag-of-words (CBOW) with negative sampling.

CBOW predicts a word from the average of its context-word vectors, trained
with negative sampling (Mikolov et al., 2013).  The implementation here builds
the (context-window, target) training examples for a corpus once and then runs
mini-batched, fully vectorised SGD updates -- the same objective the word2vec
C implementation optimises, at the scale of our synthetic corpora.

Each batch's context mean and both SGD updates are sparse products.  A CSR
count matrix ``C`` (batch x vocabulary + pad) of each example's context words
gives the hidden layer ``C @ W_in / size`` and the input update
``C.T @ grad``; a second CSR matrix ``D`` holding ``-lr * delta`` at each
example's target and negatives gives the output update ``D.T @ hidden``.  A
word repeated in a batch thus gets its summed update in one addition, so the
vectors differ from a fold that applies the updates one at a time
(``np.add.at``) by rounding only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import EMBEDDING_ALGORITHMS, Embedding, EmbeddingAlgorithm
from repro.utils.logging import get_logger
from repro.utils.rng import check_random_state

logger = get_logger(__name__)

__all__ = ["CBOWModel", "build_cbow_examples"]

# Training settings no caller varies (fastText's subword model shares them).
# No artifact key holds them: changing one would change every stored CBOW
# and fastText pair under its old key, so it needs a new key field.
#: Negative samples per positive example (the paper's default).
NEGATIVE_SAMPLES = 5
#: Initial SGD step size, linearly decayed to 10% over training (word2vec
#: convention).
LEARNING_RATE = 0.05
#: Frequent-word subsampling threshold ``t``: a word with corpus frequency
#: ``f`` is kept with probability ``min(1, sqrt(t/f) + t/f)``.
SUBSAMPLE_THRESHOLD = 1e-3
BATCH_SIZE = 1024


def build_cbow_examples(
    documents: list[np.ndarray], window_size: int, pad_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Construct CBOW training examples from id-encoded documents.

    Returns
    -------
    contexts:
        ``(N, 2 * window_size)`` int64 array of context ids, padded with
        ``pad_id`` where the window extends past the document boundary.
    context_sizes:
        ``(N,)`` number of real (non-pad) context words per example.
    targets:
        ``(N,)`` target word ids.
    """
    ctx_rows: list[np.ndarray] = []
    size_rows: list[np.ndarray] = []
    tgt_rows: list[np.ndarray] = []
    width = 2 * window_size

    for doc in documents:
        doc = np.asarray(doc, dtype=np.int64)
        length = len(doc)
        if length < 2:
            continue
        padded = np.concatenate(
            [np.full(window_size, pad_id), doc, np.full(window_size, pad_id)]
        )
        # For target position t (0-based in doc), the context window covers
        # padded[t : t + 2w + 1] minus the centre element.
        windows = np.lib.stride_tricks.sliding_window_view(padded, width + 1)
        contexts = np.concatenate(
            [windows[:, :window_size], windows[:, window_size + 1 :]], axis=1
        )
        ctx_rows.append(contexts)
        size_rows.append((contexts != pad_id).sum(axis=1))
        tgt_rows.append(doc)

    if not ctx_rows:
        empty = np.empty((0, width), dtype=np.int64)
        return empty, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    contexts = np.concatenate(ctx_rows, axis=0)
    sizes = np.concatenate(size_rows, axis=0)
    targets = np.concatenate(tgt_rows, axis=0)
    keep = sizes > 0
    return contexts[keep], sizes[keep], targets[keep]


@EMBEDDING_ALGORITHMS.register("cbow")
class CBOWModel(EmbeddingAlgorithm):
    """CBOW with negative sampling.

    The other training settings are this module's constants
    (``NEGATIVE_SAMPLES``, ``LEARNING_RATE``, ``SUBSAMPLE_THRESHOLD``,
    ``BATCH_SIZE``).

    Parameters
    ----------
    dim:
        Embedding dimension.
    window_size:
        Symmetric context window.
    epochs:
        Passes over the corpus.
    """

    name = "cbow"

    def __init__(
        self, dim: int = 50, *, window_size: int = 8, epochs: int = 10, seed: int = 0
    ) -> None:
        super().__init__(dim, seed=seed)
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.window_size = int(window_size)
        self.epochs = int(epochs)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    def _subsample(self, docs: list[np.ndarray], vocab: Vocabulary, rng) -> list[np.ndarray]:
        counts = vocab.counts.astype(np.float64)
        total = counts.sum()
        if total == 0:
            return docs
        freq = counts / total
        with np.errstate(divide="ignore", invalid="ignore"):
            keep_prob = np.sqrt(SUBSAMPLE_THRESHOLD / freq) + SUBSAMPLE_THRESHOLD / freq
        keep_prob = np.clip(np.nan_to_num(keep_prob, nan=1.0, posinf=1.0), 0.0, 1.0)
        out = []
        for doc in docs:
            if len(doc) == 0:
                out.append(doc)
                continue
            mask = rng.random(len(doc)) < keep_prob[doc]
            out.append(doc[mask])
        return out

    def _negative_table(self, vocab: Vocabulary) -> np.ndarray:
        """Unigram^0.75 sampling distribution over the vocabulary."""
        counts = vocab.counts.astype(np.float64)
        probs = counts**0.75
        total = probs.sum()
        if total == 0:
            return np.full(len(vocab), 1.0 / max(len(vocab), 1))
        return probs / total

    # -- training ------------------------------------------------------------

    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> Embedding:
        vocab = self._resolve_vocab(corpus, vocab)
        rng = check_random_state(self.seed)
        docs = corpus.encode_documents(vocab)
        docs = self._subsample(docs, vocab, rng)
        vectors = self._train(docs, vocab, rng)
        return Embedding(vocab=vocab, vectors=vectors, metadata=self._metadata(corpus))

    def _train(
        self, docs: list[np.ndarray], vocab: Vocabulary, rng: np.random.Generator
    ) -> np.ndarray:
        """SGD over the corpus's examples; the updates are sparse products.

        Per batch, the hidden layer is ``C @ W_in / size`` and the updates
        are ``W_out += D.T @ hidden`` and ``W_in += C.T @ ctx_grad`` (see the
        module docstring).  The random draws are those of a sequential fold
        that applies each example's row updates one at a time, and the
        vectors differ from that fold's by rounding only.
        """
        n_words = len(vocab)
        pad_id = n_words  # one extra all-zero row used for padding
        contexts, sizes, targets = build_cbow_examples(docs, self.window_size, pad_id)
        n_examples = len(targets)

        # Input (context) vectors W_in with an extra pad row, which stays zero
        # because C never counts a pad; output vectors W_out start at zero as
        # in word2vec.
        W_in = (rng.random((n_words + 1, self.dim)) - 0.5) / self.dim
        W_in[pad_id] = 0.0
        W_out = np.zeros((n_words, self.dim))

        if n_examples == 0:
            logger.warning("CBOW received no training examples; returning init")
            return W_in[:n_words]

        neg_probs = self._negative_table(vocab)
        total_steps = self.epochs * int(np.ceil(n_examples / BATCH_SIZE))
        step = 0
        # int32 ids, which scipy's sparse matrices take without a copy.
        contexts = contexts.astype(np.int32)
        targets = targets.astype(np.int32)
        sample_indptr = np.arange(
            0, BATCH_SIZE * (1 + NEGATIVE_SAMPLES) + 1, 1 + NEGATIVE_SAMPLES, dtype=np.int32
        )

        for _epoch in range(self.epochs):
            order = rng.permutation(n_examples)
            for start in range(0, n_examples, BATCH_SIZE):
                lr = LEARNING_RATE * max(1e-1, 1.0 - step / max(total_steps, 1))
                step += 1
                batch = order[start : start + BATCH_SIZE]
                ctx = contexts[batch]                       # (B, 2w)
                tgt = targets[batch]                        # (B,)
                B = len(batch)

                # C counts each example's real context words: C @ W_in sums
                # their vectors, and C.T @ g gives each word the sum of the
                # rows of g whose examples it is a context word of.
                indptr = np.zeros(B + 1, dtype=np.int32)
                np.cumsum(sizes[batch], out=indptr[1:])
                C = sp.csr_matrix(
                    (np.ones(indptr[-1]), ctx[ctx != pad_id], indptr), shape=(B, n_words + 1)
                )
                size = sizes[batch].astype(np.float64)[:, None]   # (B, 1)
                hidden = (C @ W_in) / size                  # (B, d)

                # One positive target plus NEGATIVE_SAMPLES negatives.
                negs = rng.choice(n_words, size=(B, NEGATIVE_SAMPLES), p=neg_probs)
                samples = np.concatenate([tgt[:, None], negs], axis=1, dtype=np.int32)

                out_vecs = W_out[samples]                   # (B, 1+k, d)
                scores = np.einsum("bkd,bd->bk", out_vecs, hidden)
                delta = self._sigmoid(scores)               # (B, 1+k)
                delta[:, 0] -= 1.0                          # the target's label is 1

                grad_hidden = np.einsum("bk,bkd->bd", delta, out_vecs)
                # D holds -lr * delta at each example's sampled words, so
                # D.T @ hidden is each word's summed output-vector update.
                D = sp.csr_matrix(
                    ((-lr * delta).ravel(), samples.ravel(), sample_indptr[: B + 1]),
                    shape=(B, n_words),
                )
                W_out += D.T @ hidden
                # Each context word receives grad_hidden / context_size.
                W_in += C.T @ ((-lr) * grad_hidden / size)

        return W_in[:n_words]
