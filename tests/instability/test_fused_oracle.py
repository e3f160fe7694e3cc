"""Grid records from the fused kernels and lockstep fits equal the reference paths'.

One small sst2 + conll grid (an MC embedding pair per cell, then a BoW
classifier pair and a BiLSTM tagger pair) runs four ways: serially as
shipped (each task's four models in one lockstep fit), serially with the
references monkeypatched in -- the per-op autograd path of
``tests/nn/reference.py`` for ``BiLSTM.forward`` and
``functional.cross_entropy``, and the ``np.add.at`` row updates of
``tests/embeddings/reference.py`` for the embedding trainers'
``scatter_add_rows`` -- serially with every bucket fit one model at a time
(``tests/models/reference.py``), and on a two-worker pool.  The serialized
rows must be equal byte for byte.
"""

import json
import warnings
from collections import Counter

import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.engine import GridEngine
from repro.instability.pipeline import PipelineConfig
from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from tests.embeddings.reference import patch_add_at
from tests.models.reference import patch_one_at_a_time
from tests.nn.reference import patch_per_op

ORACLE_CONFIG = PipelineConfig(
    corpus=SyntheticCorpusConfig(vocab_size=120, n_documents=60, doc_length_mean=30, seed=7),
    algorithms=("mc",),
    dimensions=(8,),
    precisions=(1, 32),
    seeds=(0,),
    tasks=("sst2", "conll"),
    embedding_epochs=2,
    downstream_epochs=3,
    ner_epochs=2,
)


def _run_grid(n_workers: int = 0) -> tuple[GridEngine, list[str]]:
    engine = GridEngine(ORACLE_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = engine.run(with_measures=True, n_workers=n_workers)
    return engine, [json.dumps(record.to_row(), sort_keys=True) for record in records]


def _grid_rows(n_workers: int = 0) -> list[str]:
    return _run_grid(n_workers)[1]


@pytest.fixture(scope="module")
def shipped_rows():
    return _grid_rows()


def test_grid_covers_both_downstream_models(shipped_rows):
    assert sorted(json.loads(row)["task"] for row in shipped_rows) == [
        "conll", "conll", "sst2", "sst2",
    ]


def test_records_equal_per_op_reference(shipped_rows, monkeypatch):
    calls: Counter = Counter()
    patch_per_op(monkeypatch, calls)
    patch_add_at(monkeypatch, calls)
    assert _grid_rows() == shipped_rows
    assert calls["bilstm"] > 0 and calls["loss"] > 0 and calls["mc"] > 0


def test_pool_records_equal_serial(shipped_rows):
    assert _grid_rows(n_workers=2) == shipped_rows


def test_records_equal_one_at_a_time_fits(shipped_rows, monkeypatch):
    calls: Counter = Counter()
    patch_one_at_a_time(monkeypatch, calls)
    assert _grid_rows() == shipped_rows
    # Two models per cell, every one trained alone.
    assert calls["one_at_a_time"] == 2 * len(shipped_rows)


def test_each_task_trains_its_models_in_one_lockstep_fit(shipped_rows, monkeypatch):
    fits: Counter = Counter()
    for model_class in (BiLSTMTagger, BowClassifier):
        fit = model_class.fit

        def counting_fit(self, *args, _fit=fit, **kwargs):
            fits[type(self).__name__, self.models] += 1
            return _fit(self, *args, **kwargs)

        monkeypatch.setattr(model_class, "fit", counting_fit)
    engine, rows = _run_grid()
    assert rows == shipped_rows
    # One group, two tasks: one bucket per task of 2 models x 2 precisions.
    assert fits == {("BiLSTMTagger", 4): 1, ("BowClassifier", 4): 1}
    assert engine.pipeline.downstream_train_count == 2 * len(rows)
