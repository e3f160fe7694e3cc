"""Linear bag-of-words sentence classifier.

The paper's primary sentiment model: average the (fixed) word embeddings of
the sentence and pass the result through a linear classifier, trained with
Adam.  The simplicity is deliberate -- it isolates the effect of the
embedding on downstream predictions (Section 3 / Appendix C.3.1).
"""

from __future__ import annotations

import numpy as np

from repro.embeddings.base import Embedding as WordEmbedding
from repro.models.trainer import EarlyStopper, TrainingConfig
from repro.nn import functional as F
from repro.nn.data import BatchIterator
from repro.nn.layers import Embedding as EmbeddingLayer
from repro.nn.layers import Linear, Module
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor, no_grad
from repro.tasks.datasets import TextClassificationDataset

__all__ = ["BowClassifier"]


class BowClassifier(Module):
    """Mean-of-embeddings + linear classifier.

    Parameters
    ----------
    embedding:
        Either a trained :class:`~repro.embeddings.base.Embedding` or a raw
        ``(n_words, dim)`` matrix; the dataset's word ids must index its rows.
    num_classes:
        Number of output classes.
    config:
        Training configuration.
    """

    def __init__(
        self,
        embedding: WordEmbedding | np.ndarray,
        num_classes: int = 2,
        *,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__()
        self.config = config or TrainingConfig()
        matrix = embedding.vectors if isinstance(embedding, WordEmbedding) else np.asarray(embedding)
        self.embedding = EmbeddingLayer(matrix, trainable=self.config.fine_tune_embeddings)
        self.output = Linear(self.embedding.dim, num_classes, seed=self.config.init_seed)
        self.num_classes = int(num_classes)
        self._fitted = False

    # -- forward -----------------------------------------------------------------

    def forward(self, features: Tensor) -> Tensor:
        """Logits from precomputed ``(batch, dim)`` mean-embedding features."""
        return self.output(features)

    def _document_features(self, documents: list[np.ndarray]) -> Tensor:
        """Mean embedding per document, differentiable through the table if fine-tuning."""
        if self.embedding.trainable:
            means = [self.embedding.mean_of(doc) for doc in documents]
            return Tensor.stack(means, axis=0)
        matrix = self.embedding.weight.data
        dim = matrix.shape[1]
        feats = np.zeros((len(documents), dim))
        for i, doc in enumerate(documents):
            if len(doc):
                feats[i] = matrix[doc].mean(axis=0)
        return Tensor(feats)

    # -- training ------------------------------------------------------------------

    def fit(
        self,
        train: TextClassificationDataset,
        val: TextClassificationDataset | None = None,
    ) -> dict:
        """Train the classifier; returns a small history dict."""
        cfg = self.config
        params = list(self.parameters())
        optimizer = (
            Adam(params, lr=cfg.learning_rate)
            if cfg.optimizer == "adam"
            else SGD(params, lr=cfg.learning_rate)
        )
        stopper = EarlyStopper(cfg.patience)
        history: dict[str, list[float]] = {"train_loss": [], "val_accuracy": []}

        # With frozen embeddings the features never change, so compute them once.
        static_features = val_features = None
        if not self.embedding.trainable:
            static_features = self._document_features(train.documents).data
            if val is not None:
                val_features = self._document_features(val.documents)

        for epoch in range(cfg.epochs):
            self.train()
            iterator = BatchIterator(
                len(train), cfg.batch_size, seed=cfg.sampling_seed + epoch
            )
            epoch_loss = 0.0
            n_batches = 0
            for batch_idx in iterator:
                if static_features is not None:
                    feats = Tensor(static_features[batch_idx])
                else:
                    feats = self._document_features([train.documents[i] for i in batch_idx])
                logits = self.forward(feats)
                loss = F.cross_entropy(logits, train.labels[batch_idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                n_batches += 1
            history["train_loss"].append(epoch_loss / max(n_batches, 1))

            if val is not None and len(val):
                if val_features is None:
                    val_acc = self.accuracy(val)
                else:
                    val_acc = float(np.mean(self._predict_features(val_features) == val.labels))
                history["val_accuracy"].append(val_acc)
                if stopper.update(val_acc, self.state_dict()):
                    break

        if stopper.best_state is not None:
            self.load_state_dict(stopper.best_state)
        self._fitted = True
        return history

    # -- inference --------------------------------------------------------------------

    def _predict_features(self, features: Tensor) -> np.ndarray:
        """Predicted class per row of precomputed mean-embedding features."""
        self.eval()
        with no_grad():
            logits = self.forward(features)
        return np.argmax(logits.data, axis=-1)

    def predict(self, dataset: TextClassificationDataset) -> np.ndarray:
        """Predicted class per document."""
        with no_grad():
            features = self._document_features(dataset.documents)
        return self._predict_features(features)

    def predict_proba(self, dataset: TextClassificationDataset) -> np.ndarray:
        """Class probabilities per document."""
        self.eval()
        with no_grad():
            feats = self._document_features(dataset.documents)
            logits = self.forward(feats)
            probs = F.softmax(logits, axis=-1)
        return probs.data

    def accuracy(self, dataset: TextClassificationDataset) -> float:
        preds = self.predict(dataset)
        return float(np.mean(preds == dataset.labels)) if len(dataset) else 0.0
