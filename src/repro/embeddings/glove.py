"""GloVe embeddings (Pennington et al., 2014), implemented with NumPy SGD.

GloVe factors the log co-occurrence matrix with a weighted least-squares
objective

    J = sum_{i,j : A_ij > 0} f(A_ij) (w_i . c_j + b_i + b~_j - log A_ij)^2

with the weighting ``f(x) = min(1, (x / x_max)^alpha)``.  Word and context
embeddings are modelled separately (as the paper notes) and the released
vectors are their sum, matching the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import EMBEDDING_ALGORITHMS, Embedding, EmbeddingAlgorithm
from repro.linalg.kernels import scatter_add_rows
from repro.utils.logging import get_logger
from repro.utils.rng import check_random_state

logger = get_logger(__name__)

__all__ = ["GloVeModel"]

# Training settings no caller varies.  No artifact key holds them: changing
# one would change every stored GloVe pair under its old key, so it needs a
# new key field.
#: Initial AdaGrad step size (the paper uses 0.01 for its large corpora).
LEARNING_RATE = 0.05
#: Parameters of the weighting function ``f``.  The reference GloVe uses
#: ``x_max = 100`` for multi-billion-token corpora; this one is scaled to the
#: co-occurrence counts of the synthetic corpora.
X_MAX = 10.0
ALPHA = 0.75
#: Mini-batch size over non-zero entries.
BATCH_SIZE = 4096


@EMBEDDING_ALGORITHMS.register("glove")
class GloVeModel(EmbeddingAlgorithm):
    """GloVe trained with AdaGrad over the non-zero co-occurrence entries.

    The other training settings are this module's constants
    (``LEARNING_RATE``, ``X_MAX``, ``ALPHA``, ``BATCH_SIZE``).

    Parameters
    ----------
    dim:
        Embedding dimension.
    window_size:
        Co-occurrence window (distance-weighted counts, GloVe convention).
    epochs:
        Passes over the non-zero entries.
    """

    name = "glove"

    def __init__(
        self, dim: int = 50, *, window_size: int = 8, epochs: int = 25, seed: int = 0
    ) -> None:
        super().__init__(dim, seed=seed)
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.window_size = int(window_size)
        self.epochs = int(epochs)

    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> Embedding:
        vocab = self._resolve_vocab(corpus, vocab)
        counts = corpus.cooccurrence(vocab, window_size=self.window_size).tocoo()
        vectors = self.fit_from_cooccurrence(
            rows=counts.row, cols=counts.col, values=counts.data, n_words=len(vocab)
        )
        return Embedding(vocab=vocab, vectors=vectors, metadata=self._metadata(corpus))

    def fit_from_cooccurrence(
        self, *, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n_words: int
    ) -> np.ndarray:
        """Train on explicit non-zero co-occurrence entries and return the vectors."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        keep = values > 0
        rows, cols, values = rows[keep], cols[keep], values[keep]
        rng = check_random_state(self.seed)

        scale = 0.5 / self.dim
        W = (rng.random((n_words, self.dim)) - 0.5) * scale
        C = (rng.random((n_words, self.dim)) - 0.5) * scale
        bw = np.zeros(n_words)
        bc = np.zeros(n_words)
        # AdaGrad accumulators (initialised to 1 like the reference code).
        gW = np.ones_like(W)
        gC = np.ones_like(C)
        gbw = np.ones_like(bw)
        gbc = np.ones_like(bc)

        n_obs = len(values)
        if n_obs == 0:
            logger.warning("GloVe received no co-occurrence entries; returning init")
            return W + C

        log_vals = np.log(values)
        weights = np.minimum(1.0, (values / X_MAX) ** ALPHA)

        for _epoch in range(self.epochs):
            order = rng.permutation(n_obs)
            for start in range(0, n_obs, BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                i, j = rows[batch], cols[batch]
                wi, cj = W[i], C[j]
                diff = np.einsum("nd,nd->n", wi, cj) + bw[i] + bc[j] - log_vals[batch]
                fdiff = weights[batch] * diff

                grad_w = fdiff[:, None] * cj
                grad_c = fdiff[:, None] * wi

                # AdaGrad: accumulate squared gradients, scale updates.
                scatter_add_rows(gW, i, grad_w**2)
                scatter_add_rows(gC, j, grad_c**2)
                np.add.at(gbw, i, fdiff**2)
                np.add.at(gbc, j, fdiff**2)

                scatter_add_rows(W, i, -LEARNING_RATE * grad_w / np.sqrt(gW[i]))
                scatter_add_rows(C, j, -LEARNING_RATE * grad_c / np.sqrt(gC[j]))
                np.add.at(bw, i, -LEARNING_RATE * fdiff / np.sqrt(gbw[i]))
                np.add.at(bc, j, -LEARNING_RATE * fdiff / np.sqrt(gbc[j]))

        return W + C
