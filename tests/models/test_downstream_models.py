"""Tests for the downstream models (BOW, CNN, BiLSTM tagger) and training config."""

import numpy as np
import pytest

from repro.models.bilstm_tagger import BiLSTMTagger, _entity_f1, _token_accuracy
from repro.models.bow_classifier import BowClassifier
from repro.models.cnn_classifier import CNNClassifier
from repro.models.trainer import EarlyStopper, TrainingConfig
from repro.tasks.datasets import SequenceTaggingDataset, train_val_test_split
from tests.models.reference import entity_f1_by_sentence, token_accuracy_by_sentence


@pytest.fixture(scope="module")
def sentiment_splits(sentiment_dataset):
    return train_val_test_split(sentiment_dataset, val_fraction=0.15, test_fraction=0.25, seed=0)


@pytest.fixture(scope="module")
def ner_splits(ner_dataset):
    return train_val_test_split(ner_dataset, val_fraction=0.2, test_fraction=0.2, seed=0)


class TestTrainingConfig:
    def test_with_seed_ties_both_seeds(self):
        cfg = TrainingConfig().with_seed(9)
        assert cfg.init_seed == 9 and cfg.sampling_seed == 9

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)

    def test_early_stopper(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(0.5, {"w": 1})
        assert not stopper.update(0.4, {"w": 2})
        assert stopper.update(0.3, {"w": 3})
        assert stopper.best_state == {"w": 1}
        assert stopper.best_score == 0.5

    def test_early_stopper_none_patience_never_stops(self):
        stopper = EarlyStopper(patience=None)
        for score in (0.5, 0.4, 0.3, 0.2):
            assert not stopper.update(score, {})


class TestBowClassifier:
    def test_learns_sentiment(self, embedding, sentiment_splits):
        cfg = TrainingConfig(learning_rate=0.05, epochs=12, patience=4).with_seed(0)
        model = BowClassifier(embedding, config=cfg)
        history = model.fit(sentiment_splits.train, sentiment_splits.val)
        assert model.accuracy(sentiment_splits.test) > 0.7
        assert len(history["train_loss"]) >= 1

    def test_predictions_deterministic_given_seeds(self, embedding, sentiment_splits):
        cfg = TrainingConfig(learning_rate=0.05, epochs=4, patience=None).with_seed(1)
        preds = []
        for _ in range(2):
            model = BowClassifier(embedding, config=cfg)
            model.fit(sentiment_splits.train, sentiment_splits.val)
            preds.append(model.predict(sentiment_splits.test))
        np.testing.assert_array_equal(preds[0], preds[1])

    def test_different_init_seed_changes_model(self, embedding, sentiment_splits):
        base = TrainingConfig(learning_rate=0.05, epochs=2, patience=None)
        m1 = BowClassifier(embedding, config=base.with_seed(0))
        m2 = BowClassifier(embedding, config=base.with_seed(1))
        assert not np.allclose(m1.output.weight.data, m2.output.weight.data)

    def test_predict_proba_rows_sum_to_one(self, embedding, sentiment_splits):
        cfg = TrainingConfig(learning_rate=0.05, epochs=2, patience=None).with_seed(0)
        model = BowClassifier(embedding, config=cfg)
        model.fit(sentiment_splits.train)
        probs = model.predict_proba(sentiment_splits.test)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_fine_tuning_updates_embedding_table(self, embedding, sentiment_splits):
        cfg = TrainingConfig(
            learning_rate=0.05, epochs=2, patience=None, fine_tune_embeddings=True
        ).with_seed(0)
        model = BowClassifier(embedding, config=cfg)
        before = model.embedding.weight.data.copy()
        model.fit(sentiment_splits.train.subset(np.arange(60)))
        assert not np.allclose(before, model.embedding.weight.data)

    def test_frozen_embedding_table_unchanged(self, embedding, sentiment_splits):
        cfg = TrainingConfig(learning_rate=0.05, epochs=2, patience=None).with_seed(0)
        model = BowClassifier(embedding, config=cfg)
        before = model.embedding.weight.data.copy()
        model.fit(sentiment_splits.train.subset(np.arange(60)))
        np.testing.assert_allclose(before, model.embedding.weight.data)

    def test_accepts_raw_matrix(self, embedding, sentiment_splits):
        model = BowClassifier(embedding.vectors, config=TrainingConfig(epochs=1, patience=None))
        model.fit(sentiment_splits.train.subset(np.arange(40)))
        assert model.predict(sentiment_splits.test).shape == (len(sentiment_splits.test),)


class TestCNNClassifier:
    def test_trains_and_predicts(self, embedding, sentiment_splits):
        cfg = TrainingConfig(learning_rate=0.01, epochs=2, patience=None).with_seed(0)
        model = CNNClassifier(embedding, channels=4, kernel_widths=(2, 3), config=cfg)
        small_train = sentiment_splits.train.subset(np.arange(80))
        model.fit(small_train, sentiment_splits.val)
        preds = model.predict(sentiment_splits.test)
        assert preds.shape == (len(sentiment_splits.test),)
        assert set(np.unique(preds)) <= {0, 1}

    def test_empty_document_handled(self, embedding, vocab):
        from repro.tasks.datasets import TextClassificationDataset

        cfg = TrainingConfig(epochs=1, patience=None).with_seed(0)
        model = CNNClassifier(embedding, channels=2, kernel_widths=(2,), config=cfg)
        data = TextClassificationDataset(
            documents=[np.array([], dtype=np.int64), np.array([1, 2, 3])],
            labels=np.array([0, 1]),
            vocab=vocab,
        )
        model.fit(data)
        assert model.predict(data).shape == (2,)


class TestBiLSTMTagger:
    def test_trains_and_beats_majority_baseline(self, embedding, ner_splits):
        cfg = TrainingConfig(learning_rate=0.02, epochs=10, optimizer="adam", patience=None).with_seed(0)
        tagger = BiLSTMTagger(embedding, num_tags=ner_splits.train.num_tags,
                              hidden_dim=12, config=cfg)
        tagger.fit(ner_splits.train, ner_splits.val)
        majority = np.mean([
            np.mean(np.asarray(t) == ner_splits.test.outside_tag_id) for t in ner_splits.test.tags
        ])
        assert tagger.token_accuracy(ner_splits.test) > majority

    def test_predictions_shapes(self, embedding, ner_splits):
        cfg = TrainingConfig(learning_rate=0.02, epochs=1, optimizer="adam", patience=None).with_seed(0)
        tagger = BiLSTMTagger(embedding, num_tags=5, hidden_dim=8, config=cfg)
        tagger.fit(ner_splits.train)
        preds = tagger.predict(ner_splits.test)
        assert len(preds) == len(ner_splits.test)
        assert all(len(p) == len(s) for p, s in zip(preds, ner_splits.test.sentences))

    def test_crf_mode_runs(self, embedding, ner_splits):
        cfg = TrainingConfig(learning_rate=0.02, epochs=1, optimizer="adam", patience=None).with_seed(0)
        tagger = BiLSTMTagger(embedding, num_tags=5, hidden_dim=8, use_crf=True, config=cfg)
        small = ner_splits.train.subset(np.arange(16))
        tagger.fit(small)
        preds = tagger.predict(ner_splits.test.subset(np.arange(5)))
        assert len(preds) == 5

    def test_entity_f1_bounds(self, embedding, ner_splits):
        cfg = TrainingConfig(learning_rate=0.02, epochs=2, optimizer="adam", patience=None).with_seed(0)
        tagger = BiLSTMTagger(embedding, num_tags=5, hidden_dim=8, config=cfg)
        tagger.fit(ner_splits.train.subset(np.arange(30)))
        f1 = tagger.entity_f1(ner_splits.test)
        assert 0.0 <= f1 <= 1.0

    def test_stacked_scores_equal_per_sentence_loops(self, ner_dataset):
        rng = np.random.default_rng(0)
        outside = ner_dataset.outside_tag_id
        shape = (9, 6)  # sentences, tokens
        sentences = list(rng.integers(0, len(ner_dataset.vocab), size=shape))
        random_gold = rng.integers(0, ner_dataset.num_tags, size=shape)
        for gold in (random_gold, np.full(shape, outside)):  # the second has no entity
            preds = rng.integers(0, ner_dataset.num_tags, size=(4, *shape))
            preds[1] = outside  # predicts no entity
            preds[2] = gold
            dataset = SequenceTaggingDataset(
                sentences, list(gold), ner_dataset.tag_names, ner_dataset.vocab
            )
            assert _token_accuracy(preds, gold) == [
                token_accuracy_by_sentence(list(p), dataset.tags) for p in preds
            ]
            assert _entity_f1(preds, gold, outside) == [
                entity_f1_by_sentence(list(p), dataset) for p in preds
            ]
