"""TransE knowledge graph embeddings (Bordes et al., 2013).

TransE embeds entities and relations in the same space and scores a triplet
``(h, r, t)`` by the distance ``d(e_h + r_r, e_t)``; training minimises a
margin ranking loss between observed triplets and negatively-sampled corrupted
triplets.  Following the paper (and the original TransE recipe) we use the L1
distance, corrupt heads or tails uniformly, renormalise entity embeddings to
the unit ball every epoch, and train with mini-batch SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.uniform_quantization import FULL_PRECISION_BITS, uniform_quantize
from repro.kge.graph import KnowledgeGraph
from repro.linalg.kernels import scatter_add_rows
from repro.utils.logging import get_logger
from repro.utils.rng import check_random_state

logger = get_logger(__name__)

__all__ = ["KGEmbedding", "TransEModel", "quantize_kg_embedding"]


@dataclass
class KGEmbedding:
    """Entity and relation embeddings produced by a KGE algorithm."""

    entities: np.ndarray
    relations: np.ndarray
    metadata: dict

    @property
    def dim(self) -> int:
        return int(self.entities.shape[1])

    def score(self, triplets: np.ndarray, *, norm: int = 1) -> np.ndarray:
        """Distance ``d(e_h + r_r, e_t)`` per triplet (lower = more plausible)."""
        triplets = np.asarray(triplets, dtype=np.int64)
        diff = (
            self.entities[triplets[:, 0]]
            + self.relations[triplets[:, 1]]
            - self.entities[triplets[:, 2]]
        )
        if norm == 1:
            return np.abs(diff).sum(axis=1)
        return np.sqrt((diff**2).sum(axis=1))


def quantize_kg_embedding(embedding: KGEmbedding, bits: int) -> KGEmbedding:
    """Uniformly quantize both the entity and relation embeddings."""
    if bits >= FULL_PRECISION_BITS:
        return embedding
    return KGEmbedding(
        entities=uniform_quantize(embedding.entities, bits),
        relations=uniform_quantize(embedding.relations, bits),
        metadata={**embedding.metadata, "precision": int(bits)},
    )


class TransEModel:
    """TransE trained with mini-batch SGD and margin ranking loss.

    Parameters
    ----------
    dim:
        Embedding dimension (shared by entities and relations).
    margin:
        Margin ``gamma`` of the ranking loss (paper: 1).
    learning_rate:
        SGD step size.
    epochs:
        Training epochs over the training triplets.
    n_batches:
        Number of mini-batches per epoch (paper: 100).
    norm:
        Distance norm (1 = L1 as in the paper, 2 = L2).
    negative_rate:
        Negative samples per positive triplet.
    seed:
        Initialisation and sampling seed.
    """

    name = "transe"

    def __init__(
        self,
        dim: int = 20,
        *,
        margin: float = 1.0,
        learning_rate: float = 0.01,
        epochs: int = 50,
        n_batches: int = 20,
        norm: int = 1,
        negative_rate: int = 1,
        seed: int = 0,
    ) -> None:
        if dim <= 0 or epochs <= 0 or n_batches <= 0:
            raise ValueError("dim, epochs and n_batches must be positive")
        if norm not in (1, 2):
            raise ValueError("norm must be 1 or 2")
        self.dim = int(dim)
        self.margin = float(margin)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.n_batches = int(n_batches)
        self.norm = int(norm)
        self.negative_rate = int(negative_rate)
        self.seed = int(seed)

    # -- training -------------------------------------------------------------

    def fit(self, kg: KnowledgeGraph) -> KGEmbedding:
        """Train on ``kg.train`` and return the embeddings."""
        rng = check_random_state(self.seed)
        bound = 6.0 / np.sqrt(self.dim)
        entities = rng.uniform(-bound, bound, size=(kg.n_entities, self.dim))
        relations = rng.uniform(-bound, bound, size=(kg.n_relations, self.dim))
        relations /= np.maximum(np.linalg.norm(relations, axis=1, keepdims=True), 1e-12)

        triplets = kg.train
        n_train = len(triplets)
        if n_train == 0:
            raise ValueError("knowledge graph has no training triplets")
        batch_size = max(1, n_train // self.n_batches)

        for _epoch in range(self.epochs):
            # Renormalise entities to the unit ball (TransE recipe).
            norms = np.linalg.norm(entities, axis=1, keepdims=True)
            entities /= np.maximum(norms, 1.0)

            order = rng.permutation(n_train)
            for start in range(0, n_train, batch_size):
                batch = triplets[order[start : start + batch_size]]
                batch = np.repeat(batch, self.negative_rate, axis=0)
                B = len(batch)

                # Corrupt head or tail uniformly at random.
                corrupted = batch.copy()
                corrupt_tail = rng.random(B) < 0.5
                random_entities = rng.integers(kg.n_entities, size=B)
                corrupted[corrupt_tail, 2] = random_entities[corrupt_tail]
                corrupted[~corrupt_tail, 0] = random_entities[~corrupt_tail]

                self._sgd_step(entities, relations, batch, corrupted)

        return KGEmbedding(
            entities=entities,
            relations=relations,
            metadata={
                "algorithm": self.name,
                "dim": self.dim,
                "seed": self.seed,
                "graph": kg.name,
                "precision": 32,
            },
        )

    def _sgd_step(
        self,
        entities: np.ndarray,
        relations: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> None:
        """One margin-ranking SGD update on a batch of (positive, negative) pairs."""
        def diff_of(batch: np.ndarray) -> np.ndarray:
            return (
                entities[batch[:, 0]] + relations[batch[:, 1]] - entities[batch[:, 2]]
            )

        pos_diff = diff_of(positives)
        neg_diff = diff_of(negatives)
        if self.norm == 1:
            pos_dist = np.abs(pos_diff).sum(axis=1)
            neg_dist = np.abs(neg_diff).sum(axis=1)
        else:
            pos_dist = np.sqrt((pos_diff**2).sum(axis=1))
            neg_dist = np.sqrt((neg_diff**2).sum(axis=1))

        active = (self.margin + pos_dist - neg_dist) > 0
        if not np.any(active):
            return
        pos, neg = positives[active], negatives[active]
        pos_diff, neg_diff = pos_diff[active], neg_diff[active]

        if self.norm == 1:
            pos_grad = np.sign(pos_diff)
            neg_grad = np.sign(neg_diff)
        else:
            pos_grad = pos_diff / np.maximum(
                np.linalg.norm(pos_diff, axis=1, keepdims=True), 1e-12
            )
            neg_grad = neg_diff / np.maximum(
                np.linalg.norm(neg_diff, axis=1, keepdims=True), 1e-12
            )

        lr = self.learning_rate / max(len(pos), 1)
        # Positive triplet: decrease d(h + r, t).
        scatter_add_rows(entities, pos[:, 0], -lr * pos_grad)
        scatter_add_rows(relations, pos[:, 1], -lr * pos_grad)
        scatter_add_rows(entities, pos[:, 2], lr * pos_grad)
        # Negative triplet: increase d(h' + r, t').
        scatter_add_rows(entities, neg[:, 0], lr * neg_grad)
        scatter_add_rows(relations, neg[:, 1], lr * neg_grad)
        scatter_add_rows(entities, neg[:, 2], -lr * neg_grad)
