"""Linear bag-of-words sentence classifier.

The paper's primary sentiment model: average the (fixed) word embeddings of
the sentence and pass the result through a linear classifier, trained with
Adam.  The simplicity is deliberate -- it isolates the effect of the
embedding on downstream predictions (Section 3 / Appendix C.3.1).

A classifier is a :class:`~repro.models.trainer.ModelStack`: given several
embedding tables it trains one classifier per table in lockstep, on
``(models, batch, dim)`` mean-embedding features with one output layer slice
and one cross-entropy per model.
"""

from __future__ import annotations

import numpy as np

from repro.models.trainer import ModelStack, TrainingConfig, fit_lockstep
from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor, no_grad
from repro.tasks.datasets import TextClassificationDataset

__all__ = ["BowClassifier"]


class BowClassifier(ModelStack):
    """Mean-of-embeddings + linear classifier.

    Parameters
    ----------
    embedding:
        Either a trained :class:`~repro.embeddings.base.Embedding` or a raw
        ``(n_words, dim)`` matrix; the dataset's word ids must index its rows.
        A sequence of equally shaped ones trains one classifier per table.
    num_classes:
        Number of output classes.
    config:
        Training configuration.
    """

    def __init__(
        self,
        embedding,
        num_classes: int = 2,
        *,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(embedding, config or TrainingConfig())
        self.output = Linear(
            self.embedding.dim, num_classes, seed=self.config.init_seed, models=self.models
        )
        self.num_classes = int(num_classes)

    # -- forward -----------------------------------------------------------------

    def forward(self, features: Tensor) -> Tensor:
        """Logits ``(models, batch, classes)`` from ``(models, batch, dim)`` features."""
        return self.output(features)

    def _document_features(self, documents: list[np.ndarray]) -> Tensor:
        """Mean embedding per model and document, ``(models, n_documents, dim)``;
        differentiable through the tables if fine-tuning."""
        if self.embedding.trainable:
            means = [self.embedding.mean_of(doc) for doc in documents]
            return Tensor.stack(means, axis=1)
        tables = self.embedding.weight.data
        feats = np.zeros((self.models, len(documents), self.embedding.dim), dtype=np.float32)
        for i, doc in enumerate(documents):
            if len(doc):
                # Contiguous, so each model sums its rows as a one-table
                # stack does (see Embedding.mean_of).
                feats[:, i] = np.ascontiguousarray(tables[:, doc]).mean(axis=1)
        return Tensor(feats)

    # -- training ------------------------------------------------------------------

    def fit(
        self,
        train: TextClassificationDataset,
        val: TextClassificationDataset | None = None,
    ):
        """Train every model in lockstep; returns one history dict per model."""
        # With frozen embeddings the features never change, so compute them once.
        static_features = val_features = None
        if not self.embedding.trainable:
            static_features = self._document_features(train.documents).data
            if val is not None:
                val_features = self._document_features(val.documents)

        def batch_loss(batch_idx: np.ndarray) -> Tensor:
            if static_features is not None:
                feats = Tensor(np.take(static_features, batch_idx, axis=1))
            else:
                feats = self._document_features([train.documents[i] for i in batch_idx])
            return F.cross_entropy(self.forward(feats), train.labels[batch_idx])

        def val_accuracy() -> list[float]:
            if val_features is None:
                preds = self._predictions(val)
            else:
                preds = self._predict_features(val_features)
            return [float(np.mean(p == val.labels)) for p in preds]

        histories = fit_lockstep(
            self, self.config, len(train), batch_loss,
            val_accuracy if val is not None and len(val) else None,
            models=self.models,
        )
        return self._unstack(histories)

    # -- inference --------------------------------------------------------------------

    def _predict_features(self, features: Tensor) -> np.ndarray:
        """Predicted class per model and row of precomputed features: ``(models, n)``."""
        self.eval()
        with no_grad():
            logits = self.forward(features)
        return np.argmax(logits.data, axis=-1)

    def _predictions(self, dataset: TextClassificationDataset) -> np.ndarray:
        """Predicted class per model and document: ``(models, n)``."""
        with no_grad():
            features = self._document_features(dataset.documents)
        return self._predict_features(features)

    def predict(self, dataset: TextClassificationDataset) -> np.ndarray:
        """Predicted class per document (``(models, n)`` for a stack)."""
        return self._unstack(self._predictions(dataset))

    def predict_proba(self, dataset: TextClassificationDataset) -> np.ndarray:
        """Class probabilities per document (``(models, n, classes)`` for a stack)."""
        self.eval()
        with no_grad():
            feats = self._document_features(dataset.documents)
            logits = self.forward(feats)
            probs = F.softmax(logits, axis=-1)
        return self._unstack(probs.data)

    def accuracy(self, dataset: TextClassificationDataset):
        if not len(dataset):
            return self._unstack([0.0] * self.models)
        return self._unstack(
            [float(np.mean(p == dataset.labels)) for p in self._predictions(dataset)]
        )
