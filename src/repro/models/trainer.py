"""Shared training configuration and the one training loop of the downstream models.

Seeds are split into a *model initialisation* seed and a *sampling order*
seed, because Appendix E.3 of the paper studies those two sources of
randomness separately from the change in embedding training data.

The paper ties both seeds to the embedding seed, so downstream models that
share a :class:`TrainingConfig` differ only in their embedding table.
:class:`ModelStack` holds ``M`` such models on a leading model axis, and
:func:`fit_lockstep` trains them in lockstep -- one forward, one backward and
one optimiser step per batch for all ``M`` -- with per-model losses, learning
rates, gradient clipping and early stopping, so each model ends exactly as
it would have alone.  A single model is the ``M = 1`` case.

Every model computes in float32: the stack's embedding tables are cast once
when it is built, and its parameters, gradients, optimiser state and
best states are float32 (see :mod:`repro.nn.tensor`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.embeddings.base import Embedding as WordEmbedding
from repro.nn.data import BatchIterator
from repro.nn.layers import Embedding as EmbeddingLayer
from repro.nn.layers import Module
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor

__all__ = ["TrainingConfig", "EarlyStopper", "ModelStack", "fit_lockstep"]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of a downstream training run.

    Attributes
    ----------
    learning_rate:
        Optimiser step size (the paper tunes this per task/algorithm on
        400-dimensional Wiki'17 embeddings and then holds it fixed).
    epochs:
        Maximum training epochs.
    batch_size:
        Mini-batch size (32 in the paper).
    optimizer:
        ``"adam"`` (sentiment models) or ``"sgd"`` (NER BiLSTM).
    init_seed:
        Model initialisation seed.
    sampling_seed:
        Mini-batch sampling-order seed.
    patience:
        Early-stopping patience in epochs on validation accuracy
        (``None`` disables early stopping).
    anneal_factor:
        Multiply the learning rate by this factor when validation performance
        plateaus (the paper's NER recipe); ``None`` disables annealing.
    fine_tune_embeddings:
        Whether the embedding table is updated during training
        (Appendix E.4).
    """

    learning_rate: float = 1e-2
    epochs: int = 20
    batch_size: int = 32
    optimizer: str = "adam"
    init_seed: int = 0
    sampling_seed: int = 0
    patience: int | None = 5
    anneal_factor: float | None = None
    fine_tune_embeddings: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")

    def with_seed(self, seed: int) -> "TrainingConfig":
        """Convenience: use the same seed for initialisation and sampling.

        This mirrors the paper's main protocol, where the downstream model
        seeds are tied to the embedding seed so that instability comes only
        from the change in embedding training data.
        """
        return replace(self, init_seed=int(seed), sampling_seed=int(seed))


class EarlyStopper:
    """Track the best validation score and signal when to stop / anneal."""

    def __init__(self, patience: int | None):
        self.patience = patience
        self.best_score = -np.inf
        self.best_state: dict | None = None
        self.epochs_without_improvement = 0

    def update(self, score: float, state: dict) -> bool:
        """Record an epoch result; returns True when training should stop."""
        if score > self.best_score:
            self.best_score = score
            self.best_state = state
            self.epochs_without_improvement = 0
            return False
        self.epochs_without_improvement += 1
        if self.patience is None:
            return False
        return self.epochs_without_improvement >= self.patience

    @property
    def should_anneal(self) -> bool:
        return self.patience is not None and self.epochs_without_improvement > 0


class ModelStack(Module):
    """Base of the downstream models that train ``M`` embedding tables at once.

    ``embedding`` is one table -- a trained
    :class:`~repro.embeddings.base.Embedding` or a raw ``(n_words, dim)``
    matrix -- or a sequence of equally shaped tables.  Every parameter of a
    subclass carries a leading model axis of size :attr:`models`, each copy
    initialised alike.  A model built from one table returns one model's
    results (a history dict, a prediction array, a float); a model built
    from a sequence returns one entry per table (a list, or a leading axis).
    """

    def __init__(self, embedding, config: TrainingConfig) -> None:
        super().__init__()
        self.config = config
        self._single = isinstance(embedding, WordEmbedding) or (
            isinstance(embedding, np.ndarray) and embedding.ndim == 2
        )
        tables = [embedding] if self._single else list(embedding)
        if not tables:
            raise ValueError("a model stack needs at least one embedding table")
        matrices = [t.vectors if isinstance(t, WordEmbedding) else np.asarray(t) for t in tables]
        #: Number of models trained in lockstep.
        self.models = len(matrices)
        self.embedding = EmbeddingLayer(np.stack(matrices), trainable=config.fine_tune_embeddings)

    def _unstack(self, values: Sequence):
        """One model's value when built from one table, else every model's."""
        return values[0] if self._single else values


def fit_lockstep(
    model: Module,
    config: TrainingConfig,
    n_train: int,
    batch_loss: Callable[[np.ndarray], Tensor],
    val_accuracy: Callable[[], Sequence[float]] | None = None,
    *,
    models: int = 1,
) -> list[dict[str, list[float]]]:
    """Train the ``models`` stacked models of ``model`` in lockstep.

    ``batch_loss(batch_ids)`` returns one loss per model (shape ``(models,)``,
    or a scalar for one model); ``val_accuracy()`` scores every model on the
    validation set.  Each model has its own learning rate, annealing and
    :class:`EarlyStopper`.  A model that stops early keeps stepping inside
    the stack -- its rows never affect another model's -- but its history
    ends at its stop epoch and it ends with its best state; the loop ends
    once every model has stopped.  Returns one history per model.
    """
    optimizer_class = Adam if config.optimizer == "adam" else SGD
    optimizer = optimizer_class(list(model.parameters()), lr=config.learning_rate, models=models)
    stoppers = [EarlyStopper(config.patience) for _ in range(models)]
    histories: list[dict[str, list[float]]] = [
        {"train_loss": [], "val_accuracy": []} for _ in range(models)
    ]
    running = list(range(models))
    for epoch in range(config.epochs):
        model.train()
        # The history's loss sums stay float64.
        epoch_loss, n_batches = np.zeros(models), 0
        for batch_idx in BatchIterator(n_train, config.batch_size, seed=config.sampling_seed + epoch):
            loss = batch_loss(batch_idx)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += loss.data
            n_batches += 1
            # Free this batch's graph before the next forward (or validation)
            # builds another: at M models it is M times one model's.
            del loss
        mean_loss = epoch_loss / max(n_batches, 1)
        for m in running:
            histories[m]["train_loss"].append(float(mean_loss[m]))
        if val_accuracy is None:
            continue
        scores = val_accuracy()
        rows = {name: p.data.reshape(models, -1) for name, p in model.named_parameters()}
        for m in list(running):
            histories[m]["val_accuracy"].append(scores[m])
            if config.anneal_factor is not None and stoppers[m].should_anneal:
                optimizer.set_lr(max(float(optimizer.lr[m]) * config.anneal_factor, 1e-5), model=m)
            state = {name: values[m].copy() for name, values in rows.items()}
            if stoppers[m].update(scores[m], state):
                running.remove(m)
        if not running:
            break

    best = [stopper.best_state for stopper in stoppers]
    if any(state is not None for state in best):
        for name, p in model.named_parameters():
            data = np.ascontiguousarray(p.data)
            rows = data.reshape(models, -1)
            for m, state in enumerate(best):
                if state is not None:
                    rows[m] = state[name]
            p.data = data
    return histories
