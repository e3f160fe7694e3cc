"""Whole fits with the fused kernels equal fits on the per-op autograd path.

Each model is trained twice from the same seeds: as shipped, and with the
per-op references of ``tests/nn/reference.py`` monkeypatched in for
``BiLSTM.forward`` and ``functional.cross_entropy``.  The histories and
every trained parameter must be bitwise equal.
"""

from collections import Counter

import numpy as np
import pytest

from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from repro.models.cnn_classifier import CNNClassifier
from repro.models.trainer import TrainingConfig
from repro.tasks.datasets import train_val_test_split
from tests.nn.reference import patch_per_op


def _assert_fit_parity(build, train, val, monkeypatch, *, uses_lstm):
    shipped = build()
    history = shipped.fit(train, val)
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        patch_per_op(patch, calls)
        reference = build()
        reference_history = reference.fit(train, val)
    assert calls["loss"] > 0 and (calls["bilstm"] > 0) == uses_lstm
    assert history == reference_history
    state, reference_state = shipped.state_dict(), reference.state_dict()
    assert state.keys() == reference_state.keys()
    for name, value in state.items():
        assert np.array_equal(value, reference_state[name]), name


@pytest.fixture(scope="module")
def sentiment_splits(sentiment_dataset):
    return train_val_test_split(sentiment_dataset, val_fraction=0.15, test_fraction=0.25, seed=0)


@pytest.fixture(scope="module")
def ner_splits(ner_dataset):
    return train_val_test_split(ner_dataset, val_fraction=0.2, test_fraction=0.2, seed=0)


def test_fine_tuned_bilstm_tagger_fit_is_bitwise_equal(embedding, ner_splits, monkeypatch):
    config = TrainingConfig(
        optimizer="adam", learning_rate=0.02, epochs=3, patience=None,
        fine_tune_embeddings=True,
    ).with_seed(3)

    def build():
        return BiLSTMTagger(embedding, ner_splits.train.num_tags, hidden_dim=8, config=config)

    _assert_fit_parity(build, ner_splits.train, ner_splits.val, monkeypatch, uses_lstm=True)


def test_cnn_classifier_fit_is_bitwise_equal(embedding, sentiment_splits, monkeypatch):
    config = TrainingConfig(epochs=2).with_seed(5)

    def build():
        return CNNClassifier(embedding, channels=4, config=config)

    _assert_fit_parity(
        build, sentiment_splits.train, sentiment_splits.val, monkeypatch, uses_lstm=False
    )


def test_bow_classifier_fit_is_bitwise_equal(embedding, sentiment_splits, monkeypatch):
    config = TrainingConfig(epochs=4, learning_rate=0.05).with_seed(2)

    def build():
        return BowClassifier(embedding, config=config)

    _assert_fit_parity(
        build, sentiment_splits.train, sentiment_splits.val, monkeypatch, uses_lstm=False
    )


def test_bow_fit_computes_frozen_features_once(embedding, sentiment_splits, monkeypatch):
    model = BowClassifier(embedding, config=TrainingConfig(epochs=5, patience=None))
    documents_seen = []
    features = model._document_features

    def recording_features(documents):
        documents_seen.append(len(documents))
        return features(documents)

    monkeypatch.setattr(model, "_document_features", recording_features)
    history = model.fit(sentiment_splits.train, sentiment_splits.val)
    assert len(history["val_accuracy"]) == 5
    # Once for the training set and once for the validation set.
    assert documents_seen == [len(sentiment_splits.train), len(sentiment_splits.val)]
