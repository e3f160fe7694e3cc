"""PPMI-SVD embeddings.

A deterministic baseline: factor the PPMI matrix with a truncated SVD and use
``U * S**0.5`` as the word vectors.  Not one of the paper's three headline
algorithms, but useful as (a) a fast, nearly-deterministic reference point in
tests and (b) the embedding flavour studied in Hellrich et al. (2019), cited
by the paper for SVD-embedding stability.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.corpus.cooccurrence import ppmi_matrix
from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import EMBEDDING_ALGORITHMS, Embedding, EmbeddingAlgorithm

__all__ = ["PPMISVDModel"]

#: Exponent ``p`` of the word vectors ``U diag(S)**p``; 0.5 is the common
#: choice.  No artifact key holds it: changing it needs a new key field.
EIGENVALUE_WEIGHTING = 0.5


@EMBEDDING_ALGORITHMS.register("svd")
class PPMISVDModel(EmbeddingAlgorithm):
    """Truncated SVD of the PPMI matrix.

    Parameters
    ----------
    dim:
        Embedding dimension (number of singular vectors kept).
    window_size:
        Co-occurrence window.
    seed:
        Seed for the sparse-SVD starting vector; the factorization is a
        deterministic function of the seed.
    """

    name = "svd"

    def __init__(self, dim: int = 50, *, window_size: int = 8, seed: int = 0) -> None:
        super().__init__(dim, seed=seed)
        self.window_size = int(window_size)

    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> Embedding:
        vocab = self._resolve_vocab(corpus, vocab)
        counts = corpus.cooccurrence(vocab, window_size=self.window_size)
        ppmi = ppmi_matrix(counts)
        k = min(self.dim, len(vocab) - 1)
        if k < 1:
            raise ValueError("vocabulary too small for the requested dimension")
        # Imported here: scipy.sparse.linalg (and the scipy.linalg under it)
        # is the largest import no other path needs.
        import scipy.sparse.linalg as spla

        rng = np.random.default_rng(self.seed)
        v0 = rng.standard_normal(min(ppmi.shape))
        U, S, _ = spla.svds(sp.csr_matrix(ppmi), k=k, v0=v0)
        # svds returns singular values in ascending order; flip to descending.
        order = np.argsort(-S)
        U, S = U[:, order], S[order]
        vectors = U * (S[np.newaxis, :] ** EIGENVALUE_WEIGHTING)
        if vectors.shape[1] < self.dim:
            pad = np.zeros((vectors.shape[0], self.dim - vectors.shape[1]))
            vectors = np.hstack([vectors, pad])
        return Embedding(vocab=vocab, vectors=vectors, metadata=self._metadata(corpus))
