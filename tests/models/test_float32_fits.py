"""Downstream models train in float32: no float64 tensor or state in a fit."""

import numpy as np
import pytest

from repro.models import trainer
from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from repro.models.cnn_classifier import CNNClassifier
from repro.models.trainer import TrainingConfig
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor
from repro.tasks.datasets import train_val_test_split


@pytest.fixture(scope="module")
def sentiment_splits(sentiment_dataset):
    splits = train_val_test_split(sentiment_dataset, val_fraction=0.15, test_fraction=0.25, seed=0)
    return splits.train.subset(np.arange(40)), splits.val


@pytest.fixture(scope="module")
def ner_splits(ner_dataset):
    splits = train_val_test_split(ner_dataset, val_fraction=0.2, test_fraction=0.2, seed=0)
    return splits.train.subset(np.arange(20)), splits.val


def _tables(embedding, models):
    return [embedding.vectors * (1.0 + m) for m in range(models)]


def _build(kind, embedding, num_tags):
    """One model of ``kind``, on float64 embedding tables."""
    sgd = TrainingConfig(
        optimizer="sgd", learning_rate=0.1, epochs=3, patience=1, anneal_factor=0.5
    )
    adam = TrainingConfig(epochs=3, patience=None, fine_tune_embeddings=True)
    if kind == "bilstm":
        return BiLSTMTagger(_tables(embedding, 3), num_tags, hidden_dim=6, config=sgd)
    if kind == "bilstm-fine-tuned":
        return BiLSTMTagger(_tables(embedding, 2), num_tags, hidden_dim=4, config=adam)
    if kind == "crf":
        return BiLSTMTagger(embedding, num_tags, hidden_dim=4, use_crf=True, config=adam)
    if kind == "bow":
        return BowClassifier(_tables(embedding, 3), config=sgd)
    if kind == "bow-fine-tuned":
        return BowClassifier(_tables(embedding, 2), config=adam)
    return CNNClassifier(embedding, channels=3, config=adam)


@pytest.mark.parametrize(
    "kind", ["bilstm", "bilstm-fine-tuned", "crf", "bow", "bow-fine-tuned", "cnn"]
)
def test_a_fit_creates_no_float64(kind, embedding, sentiment_splits, ner_splits, monkeypatch):
    tagger = kind in ("bilstm", "bilstm-fine-tuned", "crf")
    train, val = ner_splits if tagger else sentiment_splits
    assert embedding.vectors.dtype == np.float64
    dtypes = set()
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dtypes.add(self.data.dtype)

    optimizers = []

    def recording(cls):
        def build_optimizer(*args, **kwargs):
            optimizers.append(cls(*args, **kwargs))
            return optimizers[-1]

        return build_optimizer

    monkeypatch.setattr(trainer, "Adam", recording(Adam))
    monkeypatch.setattr(trainer, "SGD", recording(SGD))
    model = _build(kind, embedding, train.num_tags if tagger else None)
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    model.fit(train, val)
    monkeypatch.undo()

    assert dtypes == {np.dtype(np.float32)}
    (optimizer,) = optimizers
    arrays = [optimizer.lr]
    for p in model.parameters():
        assert p.grad is not None
        arrays += [p.data, p.grad]
    for state in ("_velocity", "_m", "_v"):
        arrays += getattr(optimizer, state, [])
    assert len(arrays) > 1 + 2 * len(list(model.parameters()))
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert model.embedding.weight.data.dtype == np.float32
