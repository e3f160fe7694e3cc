"""Figure 11 (Appendix D.7): contextual (BERT-style) embedding instability.

Section 6.2 of the paper pre-trains shallow BERT feature extractors on
sub-sampled Wiki'17 and Wiki'18 dumps, varies the transformer output dimension
and the precision of the extracted features, and measures the prediction
disagreement of linear sentiment classifiers trained on the frozen features.
Here the contextual extractor is :class:`~repro.embeddings.contextual.MiniBertEncoder`;
the :mod:`repro.embeddings.contextual` docstring describes the substitution.
"""

from __future__ import annotations

import numpy as np

from repro.compression.uniform_quantization import uniform_quantize
from repro.embeddings.contextual import MiniBertConfig, MiniBertEncoder
from repro.experiments.base import ExperimentResult, quick_pipeline_config, resolve_pipeline
from repro.instability.downstream import prediction_disagreement
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig
from repro.models.bow_classifier import BowClassifier
from repro.models.trainer import TrainingConfig
from repro.nn.tensor import Tensor
from repro.tasks.datasets import TextClassificationDataset

__all__ = ["run"]


def _encode_dataset(encoder: MiniBertEncoder, dataset: TextClassificationDataset) -> np.ndarray:
    return encoder.encode_documents(dataset.documents)


class _FeatureClassifier(BowClassifier):
    """Linear classifier over precomputed contextual features.

    Reuses the BOW classifier's training loop by treating the feature matrix
    as a one-row-per-document 'embedding table' and each document as the
    single 'word' pointing at its own row.
    """

    def _document_features(self, documents):  # documents are row-index arrays
        rows = np.asarray([int(d[0]) for d in documents], dtype=np.int64)
        return Tensor(np.take(self.embedding.weight.data, rows, axis=1))


def _as_row_dataset(dataset: TextClassificationDataset, offset: int = 0) -> TextClassificationDataset:
    """Replace each document with a pointer to its feature row."""
    return TextClassificationDataset(
        documents=[np.asarray([i + offset]) for i in range(len(dataset))],
        labels=dataset.labels,
        vocab=dataset.vocab,
        name=dataset.name,
        num_classes=dataset.num_classes,
    )


def run(
    pipeline: InstabilityPipeline | PipelineConfig | None = None,
    *,
    output_dims: tuple[int, ...] = (16, 32, 64),
    precisions: tuple[int, ...] = (1, 4, 32),
    task: str = "sst2",
    seed: int = 0,
) -> ExperimentResult:
    """Sweep the contextual encoder's output dimension and feature precision."""
    pipe = resolve_pipeline(pipeline if pipeline is not None else quick_pipeline_config())
    splits = pipe.dataset(task)

    rows = []
    for output_dim in output_dims:
        config = MiniBertConfig(hidden_dim=32, output_dim=output_dim, n_layers=3, n_heads=4,
                                ffn_dim=64, token_dim=16)
        enc_a = MiniBertEncoder(config, seed=seed).fit(pipe.corpus_pair.base, vocab=pipe.vocab)
        enc_b = MiniBertEncoder(config, seed=seed).fit(pipe.corpus_pair.drifted, vocab=pipe.vocab)

        features = {}
        for name, enc in (("a", enc_a), ("b", enc_b)):
            features[name] = {
                split: _encode_dataset(enc, getattr(splits, split))
                for split in ("train", "val", "test")
            }

        for precision in precisions:
            disagreement = _disagreement_for(features, splits, precision, seed)
            rows.append(
                {
                    "task": task,
                    "output_dim": output_dim,
                    "precision": precision,
                    "disagreement_pct": disagreement,
                }
            )

    # Shape check: the lowest-memory setting should be at least as unstable as
    # the highest-memory one.
    ordered = sorted(rows, key=lambda r: r["output_dim"] * r["precision"])
    summary = {
        "low_vs_high_memory_disagreement": (
            ordered[0]["disagreement_pct"],
            ordered[-1]["disagreement_pct"],
        )
        if ordered
        else None,
    }
    return ExperimentResult(name="figure-11-contextual", rows=rows, summary=summary)


def _disagreement_for(features, splits, precision: int, seed: int) -> float:
    cfg = TrainingConfig(learning_rate=0.05, epochs=12, optimizer="adam", patience=4).with_seed(seed)
    tables = []
    for name in ("a", "b"):
        quantized = [uniform_quantize(features[name][split], precision)
                     for split in ("train", "val", "test")]
        tables.append(np.vstack(quantized))
    n_train, n_val = len(splits.train), len(splits.val)
    # Both classifiers share their config, so they train as one lockstep stack.
    model = _FeatureClassifier(tables, config=cfg)
    model.fit(_as_row_dataset(splits.train, 0), _as_row_dataset(splits.val, n_train))
    predictions_a, predictions_b = model.predict(_as_row_dataset(splits.test, n_train + n_val))
    return prediction_disagreement(predictions_a, predictions_b)
