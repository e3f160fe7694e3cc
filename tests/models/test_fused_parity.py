"""Whole fits as shipped equal their reference fits, bit for bit.

Fused kernels: each model is trained twice from the same seeds, as shipped
and with the per-op references of ``tests/nn/reference.py`` monkeypatched in
for ``BiLSTM.forward`` and ``functional.cross_entropy``.

Lockstep stacks: a model built on ``M`` embedding tables is trained twice,
as shipped (all ``M`` in lockstep) and through the one-model-at-a-time fit
of ``tests/models/reference.py``.

Either way the histories and every trained parameter must be bitwise equal.
"""

from collections import Counter

import numpy as np
import pytest

from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from repro.models.cnn_classifier import CNNClassifier
from repro.models.trainer import TrainingConfig
from repro.nn import optim
from repro.tasks.datasets import (
    SequenceTaggingDataset,
    TextClassificationDataset,
    train_val_test_split,
)
from tests.models.reference import patch_one_at_a_time
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


# -- lockstep stacks against one-model-at-a-time fits ---------------------------


def _tables(embedding, models, *, seed=0):
    """``models`` distinct tables around ``embedding``, each a scaled and
    perturbed copy so the models train (and stop) differently."""
    rng = np.random.default_rng(seed)
    base = embedding.vectors
    return [
        base * (0.2 + 0.3 * m) + rng.normal(scale=0.05 * m, size=base.shape)
        for m in range(models)
    ]


def _assert_stack_parity(build, train, val, monkeypatch):
    """A lockstep fit of ``build()`` equals fitting its tables one at a time."""
    stack = build()
    histories = stack.fit(train, val)
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        patch_one_at_a_time(patch, calls)
        reference = build()
        reference_histories = reference.fit(train, val)
    assert calls["one_at_a_time"] == stack.models == len(histories)
    assert histories == reference_histories
    state, reference_state = stack.state_dict(), reference.state_dict()
    assert state.keys() == reference_state.keys()
    for name, value in state.items():
        assert np.array_equal(value, reference_state[name]), name
    return histories


@pytest.mark.parametrize("models", [1, 4, 10])
def test_bilstm_stack_with_adam_matches_one_at_a_time(embedding, ner_splits, models, monkeypatch):
    config = TrainingConfig(
        optimizer="adam", learning_rate=0.02, epochs=3, patience=None, batch_size=7,
    ).with_seed(4)
    tables = _tables(embedding, models)

    def build():
        return BiLSTMTagger(tables, ner_splits.train.num_tags, hidden_dim=8, config=config)

    # 36 training sentences in batches of 7: a short final batch of one.
    assert len(ner_splits.train) % config.batch_size == 1
    _assert_stack_parity(build, ner_splits.train, ner_splits.val, monkeypatch)


@pytest.mark.parametrize("models", [1, 4, 10])
def test_bilstm_stack_with_clipped_sgd_matches_one_at_a_time(
    embedding, ner_splits, models, monkeypatch
):
    config = TrainingConfig(
        optimizer="sgd", learning_rate=0.5, epochs=6, patience=3, anneal_factor=0.5,
        batch_size=10,
    ).with_seed(6)
    # Tables 1/16x to 4**7x the embedding, clipped at 0.5 instead of SGD's 5.0:
    # in one step some models' gradient norms exceed the bound and are scaled
    # down while others are not.
    tables = [embedding.vectors * 4.0 ** (m - 2) for m in range(models)]
    norms = []
    clip = optim._clip_gradients

    def recording_clip(parameters, max_norm, models=1):
        norms.append(clip(parameters, 0.5, models))
        return norms[-1]

    def build():
        return BiLSTMTagger(tables, ner_splits.train.num_tags, hidden_dim=6, config=config)

    monkeypatch.setattr(optim, "_clip_gradients", recording_clip)
    _assert_stack_parity(build, ner_splits.train, ner_splits.val, monkeypatch)
    stacked = np.array([n for n in norms if n.size == models])
    assert (stacked > 0.5).any()
    if models > 1:
        assert ((stacked > 0.5) & (stacked <= 0.5).any(axis=1, keepdims=True)).any()


@pytest.mark.parametrize("models", [1, 4, 10])
def test_fine_tuned_bilstm_stack_matches_one_at_a_time(embedding, ner_splits, models, monkeypatch):
    config = TrainingConfig(
        optimizer="adam", learning_rate=0.02, epochs=2, patience=None,
        fine_tune_embeddings=True, batch_size=16,
    ).with_seed(3)
    tables = _tables(embedding, models)

    def build():
        return BiLSTMTagger(tables, ner_splits.train.num_tags, hidden_dim=8, config=config)

    _assert_stack_parity(build, ner_splits.train, ner_splits.val, monkeypatch)


@pytest.mark.parametrize("models", [1, 4, 10])
def test_bow_stack_with_early_stopping_matches_one_at_a_time(
    embedding, sentiment_splits, models, monkeypatch
):
    config = TrainingConfig(
        learning_rate=0.01, epochs=25, patience=2, batch_size=9,
    ).with_seed(2)
    tables = _tables(embedding, models, seed=10)

    def build():
        return BowClassifier(tables, config=config)

    assert len(sentiment_splits.train) % config.batch_size != 0
    histories = _assert_stack_parity(build, sentiment_splits.train, sentiment_splits.val, monkeypatch)
    stops = [len(history["train_loss"]) for history in histories]
    assert max(stops) < config.epochs
    if models > 1:
        # Models leave the stack at different epochs.
        assert len(set(stops)) > 1


@pytest.mark.parametrize("models", [1, 4, 10])
def test_fine_tuned_bow_stack_with_a_batch_of_one_matches_one_at_a_time(
    embedding, sentiment_splits, models, monkeypatch
):
    config = TrainingConfig(
        learning_rate=0.05, epochs=2, patience=None, batch_size=8, fine_tune_embeddings=True,
    ).with_seed(1)
    tables = _tables(embedding, models)
    train = sentiment_splits.train.subset(np.arange(17))

    def build():
        return BowClassifier(tables, config=config)

    _assert_stack_parity(build, train, sentiment_splits.val, monkeypatch)


def test_stack_results_are_per_model(embedding, sentiment_splits):
    config = TrainingConfig(epochs=2, patience=None).with_seed(0)
    tables = _tables(embedding, 3)
    stack = BowClassifier(tables, config=config)
    histories = stack.fit(sentiment_splits.train)
    assert len(histories) == 3
    predictions = stack.predict(sentiment_splits.test)
    assert predictions.shape == (3, len(sentiment_splits.test))
    for m, table in enumerate(tables):
        single = BowClassifier(table, config=config)
        assert single.fit(sentiment_splits.train) == histories[m]
        assert np.array_equal(single.predict(sentiment_splits.test), predictions[m])
        assert single.accuracy(sentiment_splits.test) == stack.accuracy(sentiment_splits.test)[m]


def test_crf_tagger_takes_one_table(embedding, ner_splits):
    with pytest.raises(ValueError, match="one embedding table"):
        BiLSTMTagger(_tables(embedding, 2), ner_splits.train.num_tags, use_crf=True)


# -- random shapes ----------------------------------------------------------------


def random_stack_case(seed: int):
    """A small random stack, its datasets and its training config, from ``seed``.

    Taggers (two in three) and bag-of-words classifiers over ``M`` random
    tables, with random table, sentence, batch, hidden and tag sizes,
    optimiser, early stopping and fine-tuning.  Returns ``(shape, build,
    train, val)``.  Looping over many seeds is the wide sweep; the tier-1
    test below runs a fixed subset.
    """
    rng = np.random.default_rng(seed)
    models, dim = int(rng.integers(1, 7)), int(rng.integers(1, 13))
    vocab = int(rng.integers(3, 31))
    n_train, n_val = int(rng.integers(1, 25)), int(rng.integers(1, 9))
    sgd = bool(rng.integers(2))
    config = TrainingConfig(
        optimizer="sgd" if sgd else "adam",
        learning_rate=float(rng.choice([0.01, 0.05, 0.5])),
        epochs=int(rng.integers(1, 4)),
        batch_size=int(rng.integers(1, 11)),
        patience=None if rng.integers(2) else int(rng.integers(1, 3)),
        anneal_factor=0.5 if sgd and rng.integers(2) else None,
        fine_tune_embeddings=bool(rng.integers(2)),
    ).with_seed(int(rng.integers(100)))
    scales = rng.choice([0.1, 1.0, 4.0], size=models)
    tables = [rng.normal(scale=scale, size=(vocab, dim)) for scale in scales]
    shape = {"models": models, "dim": dim, "config": config}

    def ids(*size):
        return rng.integers(0, vocab, size=size)

    if rng.integers(3):
        seq_len, num_tags = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        hidden = 2 * int(rng.integers(1, 6))
        names = [f"T{t}" for t in range(num_tags - 1)] + ["O"]

        def tagging(n):
            return SequenceTaggingDataset(
                sentences=list(ids(n, seq_len)),
                tags=list(rng.integers(0, num_tags, size=(n, seq_len))),
                tag_names=names, vocab=None,
            )

        shape.update(model="tagger", seq_len=seq_len, hidden=hidden)
        train, val = tagging(n_train), tagging(n_val)
        return (
            shape, lambda: BiLSTMTagger(tables, num_tags, hidden_dim=hidden, config=config),
            train, val,
        )

    num_classes = int(rng.integers(2, 4))

    def classification(n):
        return TextClassificationDataset(
            documents=[ids(int(rng.integers(0, 9))) for _ in range(n)],
            labels=rng.integers(0, num_classes, size=n), vocab=None, num_classes=num_classes,
        )

    shape.update(model="bow")
    train, val = classification(n_train), classification(n_val)
    return shape, lambda: BowClassifier(tables, num_classes, config=config), train, val


def known_to_differ(shape) -> bool:
    """The shape whose stacks may differ from one-at-a-time fits in the last
    bit (ROADMAP, "Small leftovers"): 1-dimensional tables over 1-token
    sentences."""
    return shape["dim"] == 1 and shape["model"] == "tagger" and shape["seq_len"] == 1


#: Bag-of-words cases with 1-dimensional tables on which a stack that sums
#: its word-major gather (a document's words one after another) rounds
#: apart from one-table fits (which sum them pairwise): 1044, 1203, 1240 and
#: 1406 with frozen tables, the rest fine-tuned.
ONE_DIMENSIONAL_BOW_SEEDS = [1044, 1203, 1240, 1406, 1255, 1577, 1593]
#: Seeds 0-50 whose case avoids the shape known to differ, and the above.
SUBSET_SEEDS = [
    seed for seed in range(51) if not known_to_differ(random_stack_case(seed)[0])
] + ONE_DIMENSIONAL_BOW_SEEDS


@pytest.mark.parametrize("seed", SUBSET_SEEDS)
def test_stack_matches_one_at_a_time_over_random_shapes(seed, monkeypatch):
    _, build, train, val = random_stack_case(seed)
    _assert_stack_parity(build, train, val, monkeypatch)
