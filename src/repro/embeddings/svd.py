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

from repro.corpus.cooccurrence import build_cooccurrence, ppmi_matrix
from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import EMBEDDING_ALGORITHMS, Embedding, EmbeddingAlgorithm

__all__ = ["PPMISVDModel"]


@EMBEDDING_ALGORITHMS.register("svd")
class PPMISVDModel(EmbeddingAlgorithm):
    """Truncated SVD of the PPMI matrix.

    Parameters
    ----------
    dim:
        Embedding dimension (number of singular vectors kept).
    window_size:
        Co-occurrence window.
    eigenvalue_weighting:
        Exponent ``p`` in ``U diag(S)**p``; 0.5 is the common choice.
    seed:
        Seed for the sparse-SVD starting vector; the factorization is a
        deterministic function of the seed.
    """

    name = "svd"

    def __init__(
        self,
        dim: int = 50,
        *,
        window_size: int = 8,
        eigenvalue_weighting: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(dim, seed=seed)
        self.window_size = int(window_size)
        self.eigenvalue_weighting = float(eigenvalue_weighting)

    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> Embedding:
        vocab = self._resolve_vocab(corpus, vocab)
        docs = corpus.encode_documents(vocab)
        counts = build_cooccurrence(docs, len(vocab), window_size=self.window_size)
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
        vectors = U * (S[np.newaxis, :] ** self.eigenvalue_weighting)
        if vectors.shape[1] < self.dim:
            pad = np.zeros((vectors.shape[0], self.dim - vectors.shape[1]))
            vectors = np.hstack([vectors, pad])
        return Embedding(vocab=vocab, vectors=vectors, metadata=self._metadata(corpus))
