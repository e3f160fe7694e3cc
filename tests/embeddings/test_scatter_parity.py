"""Whole fits through the scatter kernel equal fits through ``np.add.at``.

Each trainer runs twice from the same seed: as shipped, and with the
``np.add.at`` reference of ``tests/embeddings/reference.py`` patched in for
``scatter_add_rows``.  The trained vectors must be bitwise equal, and the
reference must have been called, so the patch really reached the trainer.
"""

from collections import Counter

import numpy as np
import pytest

from repro.embeddings import fasttext
from repro.embeddings.fasttext import SubwordEmbeddingModel
from repro.embeddings.glove import GloVeModel
from repro.embeddings.matrix_completion import MatrixCompletionModel
from repro.embeddings.word2vec import CBOWModel
from repro.kge.graph import SyntheticKGConfig, generate_knowledge_graph
from repro.kge.transe import TransEModel
from tests.embeddings.reference import patch_add_at

TRAINERS = {
    "mc": lambda dim: MatrixCompletionModel(dim=dim, epochs=3, seed=1),
    "cbow": lambda dim: CBOWModel(dim=dim, epochs=2, seed=1),
    "glove": lambda dim: GloVeModel(dim=dim, epochs=3, seed=1),
    "fasttext": lambda dim: SubwordEmbeddingModel(dim=dim, epochs=1, seed=1),
}


def _reference_run(monkeypatch, fit):
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        patch_add_at(patch, calls)
        return fit(), calls


@pytest.mark.parametrize("dim", [8, 13])
@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_embedding_fit_equals_add_at_reference(name, dim, corpus, vocab, monkeypatch):
    # Few buckets keep the fastText fit small.
    monkeypatch.setattr(fasttext, "NUM_BUCKETS", 100)

    def fit():
        return TRAINERS[name](dim).fit(corpus, vocab=vocab).vectors

    shipped = fit()
    reference, calls = _reference_run(monkeypatch, fit)
    assert calls[name] > 0
    assert np.array_equal(shipped, reference)


@pytest.mark.parametrize("norm", [1, 2])
def test_transe_fit_equals_add_at_reference(norm, monkeypatch):
    kg = generate_knowledge_graph(
        SyntheticKGConfig(n_entities=60, n_relations=5, n_triplets=500, seed=2)
    )

    def fit():
        return TransEModel(dim=8, epochs=10, norm=norm, seed=1).fit(kg)

    shipped = fit()
    reference, calls = _reference_run(monkeypatch, fit)
    assert calls["transe"] > 0
    assert np.array_equal(shipped.entities, reference.entities)
    assert np.array_equal(shipped.relations, reference.relations)
