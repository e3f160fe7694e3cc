"""Contextual word embeddings: a small BERT-style feature extractor.

Section 6.2 of the paper pre-trains shallow (3-layer) BERT models on
sub-sampled Wiki'17 and Wiki'18 dumps and uses them as *frozen* feature
extractors for linear sentiment classifiers, studying how the transformer
output dimension and output precision affect downstream instability.

Offline substitution: we cannot pre-train even a small BERT end-to-end here,
so :class:`MiniBertEncoder` factors the model as

* a **corpus-trained token embedding** (CBOW on the given corpus) -- this is
  the component that differs between the Corpus'17 and Corpus'18 snapshots and
  therefore the source of the instability being measured, exactly as the
  change of pre-training corpus is in the paper; and
* a **deterministic transformer encoder** (multi-head self-attention + FFN
  blocks) whose weights are derived from the architecture seed and are shared
  by both members of a pair -- playing the role of the shared model
  architecture/initialisation.

The output is a context-dependent feature per token with a configurable
output dimension, which downstream models consume exactly like the paper's
frozen BERT features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.synthetic import Corpus
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.base import Embedding
from repro.embeddings.word2vec import CBOWModel
from repro.utils.rng import check_random_state

__all__ = ["MiniBertConfig", "MiniBertEncoder"]


@dataclass(frozen=True)
class MiniBertConfig:
    """Architecture of the contextual encoder.

    Attributes
    ----------
    hidden_dim:
        Width of the transformer layers.
    output_dim:
        Width of the final projected token features (the axis swept in
        Figure 11a).
    n_layers:
        Number of transformer blocks (the paper uses 3).
    n_heads:
        Attention heads; must divide ``hidden_dim``.
    ffn_dim:
        Width of the position-wise feed-forward layer.
    max_len:
        Maximum sequence length for positional encodings.
    token_dim:
        Dimension of the corpus-trained token embedding.
    architecture_seed:
        Seed for the shared transformer weights (identical across the corpus
        pair, like a shared initialisation).
    """

    hidden_dim: int = 64
    output_dim: int = 64
    n_layers: int = 3
    n_heads: int = 4
    ffn_dim: int = 128
    max_len: int = 256
    token_dim: int = 32
    architecture_seed: int = 1234

    def __post_init__(self) -> None:
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError("hidden_dim must be divisible by n_heads")
        for name in ("hidden_dim", "output_dim", "n_layers", "n_heads", "ffn_dim", "max_len",
                     "token_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class MiniBertEncoder:
    """Frozen contextual feature extractor over a corpus-trained token embedding.

    Parameters
    ----------
    config:
        Architecture configuration.
    cbow_epochs, cbow_window:
        Training budget of the internal CBOW token-embedding pre-training.
    seed:
        Seed of the *corpus-dependent* part (token embedding training); the
        transformer weights use ``config.architecture_seed`` instead so that a
        Corpus'17/Corpus'18 pair shares them.
    """

    def __init__(
        self,
        config: MiniBertConfig | None = None,
        *,
        cbow_epochs: int = 5,
        cbow_window: int = 4,
        seed: int = 0,
    ) -> None:
        self.config = config or MiniBertConfig()
        self.cbow_epochs = int(cbow_epochs)
        self.cbow_window = int(cbow_window)
        self.seed = int(seed)
        self.token_embedding: Embedding | None = None
        self._weights: dict[str, np.ndarray] | None = None

    # -- pre-training --------------------------------------------------------

    def fit(self, corpus: Corpus, *, vocab: Vocabulary | None = None) -> "MiniBertEncoder":
        """'Pre-train' the encoder on ``corpus``.

        Trains the token embedding with CBOW on the corpus and materialises
        the (corpus-independent) transformer weights.
        """
        cbow = CBOWModel(
            dim=self.config.token_dim,
            window_size=self.cbow_window,
            epochs=self.cbow_epochs,
            seed=self.seed,
        )
        self.token_embedding = cbow.fit(corpus, vocab=vocab)
        self._weights = self._build_transformer_weights(len(self.token_embedding.vocab))
        return self

    def _build_transformer_weights(self, vocab_size: int) -> dict[str, np.ndarray]:
        cfg = self.config
        rng = check_random_state(cfg.architecture_seed)
        weights: dict[str, np.ndarray] = {}

        def glorot(shape: tuple[int, int]) -> np.ndarray:
            scale = np.sqrt(6.0 / sum(shape))
            return rng.uniform(-scale, scale, size=shape)

        weights["proj_in"] = glorot((cfg.token_dim, cfg.hidden_dim))
        # Sinusoidal positional encodings (deterministic, no seed needed).
        position = np.arange(cfg.max_len)[:, None]
        div = np.exp(np.arange(0, cfg.hidden_dim, 2) * (-np.log(10000.0) / cfg.hidden_dim))
        pos_enc = np.zeros((cfg.max_len, cfg.hidden_dim))
        pos_enc[:, 0::2] = np.sin(position * div)
        pos_enc[:, 1::2] = np.cos(position * div[: pos_enc[:, 1::2].shape[1]])
        weights["positional"] = pos_enc

        for layer in range(cfg.n_layers):
            for name in ("wq", "wk", "wv", "wo"):
                weights[f"layer{layer}.{name}"] = glorot((cfg.hidden_dim, cfg.hidden_dim))
            weights[f"layer{layer}.ffn1"] = glorot((cfg.hidden_dim, cfg.ffn_dim))
            weights[f"layer{layer}.ffn2"] = glorot((cfg.ffn_dim, cfg.hidden_dim))
        weights["proj_out"] = glorot((cfg.hidden_dim, cfg.output_dim))
        del vocab_size  # vocabulary size does not affect the shared weights
        return weights

    # -- encoding ------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self.token_embedding is not None and self._weights is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("MiniBertEncoder must be fit() before encoding")

    def encode_tokens(self, token_ids: np.ndarray) -> np.ndarray:
        """Contextual features for a single token-id sequence.

        Parameters
        ----------
        token_ids:
            1-D array of ids into the token-embedding vocabulary (negative ids
            are treated as unknown and embedded as zeros).

        Returns
        -------
        ndarray of shape ``(len(token_ids), output_dim)``.
        """
        self._require_fitted()
        cfg = self.config
        W = self._weights
        ids = np.asarray(token_ids, dtype=np.int64)[: cfg.max_len]
        if ids.size == 0:
            return np.zeros((0, cfg.output_dim))

        emb_table = self.token_embedding.vectors
        tokens = np.where(ids[:, None] >= 0, emb_table[np.clip(ids, 0, None)], 0.0)
        x = tokens @ W["proj_in"] + W["positional"][: len(ids)]
        x = _layer_norm(x)

        head_dim = cfg.hidden_dim // cfg.n_heads
        for layer in range(cfg.n_layers):
            q = x @ W[f"layer{layer}.wq"]
            k = x @ W[f"layer{layer}.wk"]
            v = x @ W[f"layer{layer}.wv"]
            # Split heads: (L, H, dh)
            L = x.shape[0]
            q = q.reshape(L, cfg.n_heads, head_dim).transpose(1, 0, 2)
            k = k.reshape(L, cfg.n_heads, head_dim).transpose(1, 0, 2)
            v = v.reshape(L, cfg.n_heads, head_dim).transpose(1, 0, 2)
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
            attn = _softmax(scores, axis=-1)
            context = (attn @ v).transpose(1, 0, 2).reshape(L, cfg.hidden_dim)
            x = _layer_norm(x + context @ W[f"layer{layer}.wo"])
            ffn = _gelu(x @ W[f"layer{layer}.ffn1"]) @ W[f"layer{layer}.ffn2"]
            x = _layer_norm(x + ffn)

        return x @ W["proj_out"]

    def encode_words(self, words: list[str]) -> np.ndarray:
        """Contextual features for a list of word strings."""
        self._require_fitted()
        vocab = self.token_embedding.vocab
        ids = np.asarray([vocab.word_to_id(w, -1) for w in words], dtype=np.int64)
        return self.encode_tokens(ids)

    def encode_document(self, token_ids: np.ndarray) -> np.ndarray:
        """Mean-pooled document feature (what the linear classifiers consume)."""
        features = self.encode_tokens(token_ids)
        if features.shape[0] == 0:
            return np.zeros(self.config.output_dim)
        return features.mean(axis=0)

    def encode_documents(self, documents: list[np.ndarray]) -> np.ndarray:
        """Mean-pooled features for a list of documents, stacked into a matrix."""
        return np.vstack([self.encode_document(doc) for doc in documents])
