"""Single-layer BiLSTM tagger for NER, with an optional CRF decoding layer.

The paper's NER model (Akbik et al., 2018): fixed word embeddings, a one-layer
BiLSTM, and a per-token linear projection to tag scores.  The CRF is disabled
in the main experiments for computational efficiency and re-enabled in
Appendix E.2; both modes are supported via ``use_crf``.

A tagger is a :class:`~repro.models.trainer.ModelStack`: given several
embedding tables it trains one tagger per table in lockstep.  One gather
reads every table, the fused BiLSTM scan runs all of them on
``(models, directions, batch, ...)`` arrays, and the projection and the
cross-entropy keep one slice per model.  A CRF tagger trains one table at a
time.
"""

from __future__ import annotations

import numpy as np

from repro.models.trainer import ModelStack, TrainingConfig, fit_lockstep
from repro.nn import functional as F
from repro.nn.crf import LinearChainCRF
from repro.nn.layers import Linear
from repro.nn.recurrent import BiLSTM
from repro.nn.tensor import Tensor, no_grad
from repro.tasks.datasets import SequenceTaggingDataset

__all__ = ["BiLSTMTagger"]


class BiLSTMTagger(ModelStack):
    """BiLSTM (+ optional CRF) sequence tagger over fixed embeddings.

    Parameters
    ----------
    embedding:
        Trained embedding (or raw matrix) indexed by the dataset's word ids,
        or a sequence of equally shaped ones to train one tagger per table.
    num_tags:
        Number of output tags.
    hidden_dim:
        Total BiLSTM hidden size (split between directions; paper: 256).
    use_crf:
        Train/decode with a linear-chain CRF instead of per-token softmax
        (one embedding table only).
    config:
        Training configuration (the paper uses plain SGD with annealing).
    """

    def __init__(
        self,
        embedding,
        num_tags: int,
        *,
        hidden_dim: int = 32,
        use_crf: bool = False,
        config: TrainingConfig | None = None,
    ) -> None:
        super().__init__(embedding, config or TrainingConfig(optimizer="sgd", learning_rate=0.1))
        if use_crf and self.models > 1:
            raise ValueError("a CRF tagger trains one embedding table at a time")
        seed = self.config.init_seed
        self.encoder = BiLSTM(self.embedding.dim, hidden_dim, seed=seed, models=self.models)
        self.projection = Linear(hidden_dim, num_tags, seed=seed + 7, models=self.models)
        self.use_crf = bool(use_crf)
        self.crf = LinearChainCRF(num_tags, seed=seed + 13) if use_crf else None
        self.num_tags = int(num_tags)

    # -- forward -------------------------------------------------------------------

    def emissions(self, sentences: np.ndarray) -> Tensor:
        """Tag scores of every model for a batch of equal-length sentences.

        Parameters
        ----------
        sentences:
            ``(batch, seq_len)`` int64 matrix of word ids.

        Returns
        -------
        Tensor of shape ``(models, batch, seq_len, num_tags)``.
        """
        sentences = np.asarray(sentences, dtype=np.int64)
        tokens = self.embedding(sentences)                  # (models, batch, seq_len, dim)
        inputs = tokens.transpose(2, 0, 1, 3)               # (seq_len, models, batch, dim)
        hidden = self.encoder(inputs)                       # (seq_len, models, batch, hidden)
        scores = self.projection(hidden)                    # (seq_len, models, batch, tags)
        return scores.transpose(1, 2, 0, 3)

    # -- training ---------------------------------------------------------------------

    def _batch_loss(self, sentences: np.ndarray, tags: np.ndarray) -> Tensor:
        """One mean loss per model: ``(models,)``."""
        emissions = self.emissions(sentences)
        if self.use_crf:
            emissions = emissions[0]
            losses = [
                self.crf.neg_log_likelihood(emissions[i], tags[i])
                for i in range(len(sentences))
            ]
            total = losses[0]
            for loss in losses[1:]:
                total = total + loss
            return (total / len(losses)).reshape(1)
        batch, seq_len = tags.shape
        flat_logits = emissions.reshape(self.models, batch * seq_len, self.num_tags)
        return F.cross_entropy(flat_logits, tags.reshape(-1))

    def fit(
        self,
        train: SequenceTaggingDataset,
        val: SequenceTaggingDataset | None = None,
    ):
        """Train every model in lockstep; returns one history dict per model."""
        sentences = np.stack(train.sentences)
        tags = np.stack(train.tags)

        def val_accuracy() -> list[float]:
            return [_token_accuracy(preds, val.tags) for preds in self._predictions(val)]

        histories = fit_lockstep(
            self, self.config, len(train),
            lambda batch_idx: self._batch_loss(sentences[batch_idx], tags[batch_idx]),
            val_accuracy if val is not None and len(val) else None,
            models=self.models,
        )
        return self._unstack(histories)

    # -- inference -----------------------------------------------------------------------

    def _predictions(self, dataset: SequenceTaggingDataset) -> list[list[np.ndarray]]:
        """Per model, per sentence, arrays of predicted tag ids."""
        self.eval()
        sentences = np.stack(dataset.sentences)
        with no_grad():
            emissions = self.emissions(sentences).data
        if self.use_crf:
            return [[self.crf.viterbi_decode(scores) for scores in emissions[0]]]
        return [list(tags) for tags in np.argmax(emissions, axis=-1)]

    def predict(self, dataset: SequenceTaggingDataset):
        """Per-sentence arrays of predicted tag ids (a list of them per model)."""
        return self._unstack(self._predictions(dataset))

    def token_accuracy(self, dataset: SequenceTaggingDataset):
        return self._unstack(
            [_token_accuracy(preds, dataset.tags) for preds in self._predictions(dataset)]
        )

    def entity_f1(self, dataset: SequenceTaggingDataset):
        """Micro-F1 over entity tokens (token-level, which suffices at this scale)."""
        return self._unstack(
            [_entity_f1(preds, dataset) for preds in self._predictions(dataset)]
        )


def _token_accuracy(preds: list[np.ndarray], gold_tags: list[np.ndarray]) -> float:
    correct = total = 0
    for pred, gold in zip(preds, gold_tags):
        correct += int(np.sum(pred == gold))
        total += len(gold)
    return correct / total if total else 0.0


def _entity_f1(preds: list[np.ndarray], dataset: SequenceTaggingDataset) -> float:
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
