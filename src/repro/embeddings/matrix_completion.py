"""Online matrix completion (MC) embeddings.

The paper's MC algorithm (following Jin et al., 2016) approximates the
observed entries of the PPMI matrix with a symmetric low-rank factorization

    min_X  sum_{(i,j) in Theta} (X_i . X_j - A_ij)^2

trained with stochastic gradient descent over sampled observed entries.  This
module implements that online solver with mini-batched, vectorised updates;
:func:`repro.linalg.kernels.scatter_add_rows` applies each batch's per-entry
row updates, one at a time in batch order, exactly as ``np.add.at`` would.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.cooccurrence import ppmi_matrix
from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import EMBEDDING_ALGORITHMS, Embedding, EmbeddingAlgorithm
from repro.linalg.kernels import scatter_add_rows
from repro.utils.logging import get_logger
from repro.utils.rng import check_random_state

logger = get_logger(__name__)

__all__ = ["MatrixCompletionModel"]

# Training settings no caller varies.  No artifact key holds them: changing
# one would change every stored MC pair under its old key, so it needs a new
# key field.
#: SGD step size (the paper uses 0.2 with decay after 20 epochs).
LEARNING_RATE = 0.05
#: Epoch index from which the learning rate is halved every epoch.
LR_DECAY_EPOCH = 8
#: Mini-batch size over observed entries.
BATCH_SIZE = 256
#: Relative improvement in epoch loss below which training stops early.
STOPPING_TOLERANCE = 1e-4
#: Scale of the uniform initialisation.
INIT_SCALE = 0.1


@EMBEDDING_ALGORITHMS.register("mc")
class MatrixCompletionModel(EmbeddingAlgorithm):
    """Symmetric matrix completion on the PPMI matrix via SGD.

    The other training settings are this module's constants
    (``LEARNING_RATE``, ``LR_DECAY_EPOCH``, ``BATCH_SIZE``,
    ``STOPPING_TOLERANCE``, ``INIT_SCALE``).

    Parameters
    ----------
    dim:
        Embedding dimension.
    window_size:
        Co-occurrence window used to build the PPMI matrix.
    epochs:
        Number of passes over the observed entries.
    """

    name = "mc"

    def __init__(
        self, dim: int = 50, *, window_size: int = 8, epochs: int = 10, seed: int = 0
    ) -> None:
        super().__init__(dim, seed=seed)
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.window_size = int(window_size)
        self.epochs = int(epochs)

    # -- training ------------------------------------------------------------

    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> Embedding:
        vocab = self._resolve_vocab(corpus, vocab)
        counts = corpus.cooccurrence(vocab, window_size=self.window_size)
        ppmi = ppmi_matrix(counts).tocoo()
        vectors = self.fit_from_entries(
            rows=ppmi.row, cols=ppmi.col, values=ppmi.data, n_words=len(vocab)
        )
        return Embedding(vocab=vocab, vectors=vectors, metadata=self._metadata(corpus))

    def fit_from_entries(
        self,
        *,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        n_words: int,
    ) -> np.ndarray:
        """Run the online solver on explicit observed entries ``A[rows, cols] = values``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError("rows, cols and values must have equal length")
        rng = check_random_state(self.seed)
        X = (rng.random((n_words, self.dim)) - 0.5) * INIT_SCALE

        n_obs = len(values)
        if n_obs == 0:
            logger.warning("matrix completion received no observed entries; returning init")
            return X

        prev_loss = np.inf
        lr = LEARNING_RATE
        for epoch in range(self.epochs):
            if epoch >= LR_DECAY_EPOCH:
                lr *= 0.5
            order = rng.permutation(n_obs)
            epoch_loss = 0.0
            for start in range(0, n_obs, BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                i, j, a = rows[batch], cols[batch], values[batch]
                xi, xj = X[i], X[j]
                pred = np.einsum("nd,nd->n", xi, xj)
                # Clip the per-entry error to keep the online updates stable
                # when many observed entries touch the same (frequent) word
                # within one vectorised batch.
                err = np.clip(pred - a, -10.0, 10.0)
                epoch_loss += float(np.sum(err**2))
                # d/dxi (xi.xj - a)^2 = 2 err * xj (and symmetrically for xj).
                # Updates are applied per observed entry (online SGD), not
                # averaged over the mini-batch -- matching Jin et al.'s online
                # solver; the mini-batch only vectorises the computation.
                grad_i = (2.0 * err)[:, None] * xj
                grad_j = (2.0 * err)[:, None] * xi
                scatter_add_rows(X, i, -lr * grad_i)
                scatter_add_rows(X, j, -lr * grad_j)
            epoch_loss /= n_obs
            if np.isfinite(prev_loss):
                rel_improvement = (prev_loss - epoch_loss) / max(prev_loss, 1e-12)
                if 0 <= rel_improvement < STOPPING_TOLERANCE:
                    logger.debug("MC early stop at epoch %d (loss %.5f)", epoch, epoch_loss)
                    break
            prev_loss = epoch_loss
        return X
