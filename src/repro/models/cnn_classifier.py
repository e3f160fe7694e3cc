"""Kim (2014)-style CNN sentence classifier (Appendix E.2).

One convolutional layer with kernel widths {3, 4, 5}, ReLU, max-over-time
pooling, dropout, and a linear classification layer, over fixed word
embeddings.  Used by the paper to show the stability-memory tradeoff also
holds for more complex downstream models.
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import Embedding as WordEmbedding
from repro.models.trainer import TrainingConfig, fit_lockstep
from repro.nn import functional as F
from repro.nn.conv import Conv1d, max_over_time
from repro.nn.layers import Dropout, Embedding as EmbeddingLayer, Linear, Module
from repro.nn.tensor import Tensor, no_grad
from repro.tasks.datasets import TextClassificationDataset

__all__ = ["CNNClassifier"]


class CNNClassifier(Module):
    """Convolutional sentence classifier over fixed embeddings.

    Parameters
    ----------
    embedding:
        Trained embedding (or raw matrix) indexed by the dataset's word ids.
    num_classes:
        Output classes.
    kernel_widths:
        Convolution widths (paper: 3, 4, 5).
    channels:
        Output channels per width (paper: 100; default smaller for speed).
    dropout:
        Dropout probability before the output layer (paper: 0.5).
    config:
        Training configuration.
    """

    def __init__(
        self,
        embedding: WordEmbedding | np.ndarray,
        num_classes: int = 2,
        *,
        kernel_widths: tuple[int, ...] = (3, 4, 5),
        channels: int = 16,
        dropout: float = 0.5,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__()
        self.config = config or TrainingConfig()
        matrix = embedding.vectors if isinstance(embedding, WordEmbedding) else np.asarray(embedding)
        self.embedding = EmbeddingLayer(matrix, trainable=self.config.fine_tune_embeddings)
        self.kernel_widths = tuple(int(k) for k in kernel_widths)
        self.channels = int(channels)
        seed = self.config.init_seed
        self.convs = [
            Conv1d(self.embedding.dim, channels, width, seed=seed + i)
            for i, width in enumerate(self.kernel_widths)
        ]
        for i, conv in enumerate(self.convs):
            self._modules[f"conv{i}"] = conv
        self.dropout = Dropout(dropout, seed=seed)
        self.output = Linear(channels * len(self.kernel_widths), num_classes, seed=seed + 100)
        self.num_classes = int(num_classes)

    # -- forward -----------------------------------------------------------------

    def _sentence_logits(self, document: np.ndarray) -> Tensor:
        """Logits for one sentence of word ids."""
        if len(document) == 0:
            document = np.zeros(1, dtype=np.int64)
        tokens = self.embedding(document)                     # (seq_len, dim)
        pooled = [max_over_time(conv(tokens).relu()) for conv in self.convs]
        features = Tensor.concatenate(pooled, axis=0).reshape(1, -1)
        return self.output(self.dropout(features))

    def forward(self, documents: list[np.ndarray]) -> Tensor:
        """Logits for a batch of sentences (stacked on axis 0)."""
        return Tensor.concatenate([self._sentence_logits(doc) for doc in documents], axis=0)

    # -- training -------------------------------------------------------------------

    def fit(
        self,
        train: TextClassificationDataset,
        val: TextClassificationDataset | None = None,
    ) -> dict:
        def batch_loss(batch_idx: np.ndarray) -> Tensor:
            logits = self.forward([train.documents[i] for i in batch_idx])
            return F.cross_entropy(logits, train.labels[batch_idx])

        (history,) = fit_lockstep(
            self, self.config, len(train), batch_loss,
            (lambda: [self.accuracy(val)]) if val is not None and len(val) else None,
        )
        return history

    # -- inference ---------------------------------------------------------------------

    def predict(self, dataset: TextClassificationDataset) -> np.ndarray:
        self.eval()
        with no_grad():
            logits = self.forward(dataset.documents)
        return np.argmax(logits.data, axis=-1)

    def accuracy(self, dataset: TextClassificationDataset) -> float:
        preds = self.predict(dataset)
        return float(np.mean(preds == dataset.labels)) if len(dataset) else 0.0
