"""One model at a time: the fit that the lockstep trainer must match.

``fit_one_at_a_time(stack, train, val)`` trains each table of a
``BiLSTMTagger`` or ``BowClassifier`` stack as a model of its own -- a
fresh one-table stack built with the same arguments -- through the
one-model fit loop: its own optimiser and ``EarlyStopper``, a ``break`` when
it stops, and its best state restored at the end.  It then writes every
model's parameters into the stack's rows and returns the histories as
``fit`` does.  ``patch_one_at_a_time`` monkeypatches it in for both models'
``fit``.

``token_accuracy_by_sentence`` and ``entity_f1_by_sentence`` score one
model's predictions sentence by sentence: the loops that the tagger's
stacked scoring must match.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from repro.models.trainer import EarlyStopper
from repro.nn import functional as F
from repro.nn.data import BatchIterator
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def _fit_one(model, n_train, batch_loss, val_accuracy):
    """The one-model fit loop; ``batch_loss`` returns a ``(1,)`` loss."""
    cfg = model.config
    params = list(model.parameters())
    optimizer = (
        SGD(params, lr=cfg.learning_rate)
        if cfg.optimizer == "sgd"
        else Adam(params, lr=cfg.learning_rate)
    )
    stopper = EarlyStopper(cfg.patience)
    history: dict[str, list[float]] = {"train_loss": [], "val_accuracy": []}
    for epoch in range(cfg.epochs):
        model.train()
        iterator = BatchIterator(n_train, cfg.batch_size, seed=cfg.sampling_seed + epoch)
        epoch_loss, n_batches = 0.0, 0
        for batch_idx in iterator:
            loss = batch_loss(batch_idx)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += float(loss.data[0])
            n_batches += 1
        history["train_loss"].append(epoch_loss / max(n_batches, 1))

        if val_accuracy is not None:
            val_acc = val_accuracy()
            history["val_accuracy"].append(val_acc)
            if cfg.anneal_factor is not None and stopper.should_anneal:
                optimizer.set_lr(max(float(optimizer.lr[0]) * cfg.anneal_factor, 1e-5))
            if stopper.update(val_acc, model.state_dict()):
                break

    if stopper.best_state is not None:
        model.load_state_dict(stopper.best_state)
    return history


def _fit_tagger(model: BiLSTMTagger, train, val):
    sentences = np.stack(train.sentences)
    tags = np.stack(train.tags)
    return _fit_one(
        model, len(train),
        lambda batch_idx: model._batch_loss(sentences[batch_idx], tags[batch_idx]),
        (lambda: model.token_accuracy(val)[0]) if val is not None and len(val) else None,
    )


def _fit_bow(model: BowClassifier, train, val):
    static_features = val_features = None
    if not model.embedding.trainable:
        static_features = model._document_features(train.documents).data[0]
        if val is not None:
            val_features = model._document_features(val.documents)

    def batch_loss(batch_idx):
        if static_features is not None:
            feats = Tensor(static_features[batch_idx][None])
        else:
            feats = model._document_features([train.documents[i] for i in batch_idx])
        return F.cross_entropy(model.forward(feats), train.labels[batch_idx])

    def val_accuracy():
        if val_features is None:
            return model.accuracy(val)[0]
        return float(np.mean(model._predict_features(val_features)[0] == val.labels))

    return _fit_one(
        model, len(train), batch_loss, val_accuracy if val is not None and len(val) else None
    )


def fit_one_at_a_time(stack, train, val=None):
    """Train every table of ``stack`` alone; leave the result in the stack."""
    tables = stack.embedding.weight.data
    histories = []
    for m in range(stack.models):
        if isinstance(stack, BiLSTMTagger):
            model = BiLSTMTagger(
                [tables[m]], stack.num_tags, hidden_dim=stack.encoder.hidden_dim,
                use_crf=stack.use_crf, config=stack.config,
            )
            histories.append(_fit_tagger(model, train, val))
        else:
            model = type(stack)([tables[m]], stack.num_classes, config=stack.config)
            histories.append(_fit_bow(model, train, val))
        trained = dict(model.named_parameters())
        for name, p in stack.named_parameters():
            data = np.ascontiguousarray(p.data)
            data.reshape(stack.models, -1)[m] = trained[name].data.reshape(-1)
            p.data = data
    return stack._unstack(histories)


def patch_one_at_a_time(monkeypatch, calls: Counter) -> None:
    """Route ``BiLSTMTagger.fit`` and ``BowClassifier.fit`` to
    :func:`fit_one_at_a_time`, counting the models it trains under
    ``"one_at_a_time"``."""

    def fit(self, train, val=None):
        calls["one_at_a_time"] += self.models
        return fit_one_at_a_time(self, train, val)

    monkeypatch.setattr(BiLSTMTagger, "fit", fit)
    monkeypatch.setattr(BowClassifier, "fit", fit)


def token_accuracy_by_sentence(preds: list[np.ndarray], gold_tags: list[np.ndarray]) -> float:
    correct = total = 0
    for pred, gold in zip(preds, gold_tags):
        correct += int(np.sum(pred == gold))
        total += len(gold)
    return correct / total if total else 0.0


def entity_f1_by_sentence(preds: list[np.ndarray], dataset) -> float:
    outside = dataset.outside_tag_id
    tp = fp = fn = 0
    for pred, gold in zip(preds, dataset.tags):
        pred = np.asarray(pred)
        gold = np.asarray(gold)
        pred_ent = pred != outside
        gold_ent = gold != outside
        tp += int(np.sum(pred_ent & gold_ent & (pred == gold)))
        fp += int(np.sum(pred_ent & ((~gold_ent) | (pred != gold))))
        fn += int(np.sum(gold_ent & ((~pred_ent) | (pred != gold))))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
