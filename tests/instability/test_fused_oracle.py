"""Grid records from the fused kernels equal the reference paths'.

One small sst2 + conll grid (a CBOW embedding pair per cell, then a BoW
classifier pair and a BiLSTM tagger pair) runs three ways: serially as
shipped, serially with the references monkeypatched in -- the per-op
autograd path of ``tests/nn/reference.py`` for ``BiLSTM.forward`` and
``functional.cross_entropy``, and the ``np.add.at`` row updates of
``tests/embeddings/reference.py`` for the embedding trainers'
``scatter_add_rows`` -- and on a two-worker pool.  The serialized rows must
be equal byte for byte.
"""

import json
import warnings
from collections import Counter

import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.engine import GridEngine
from repro.instability.pipeline import PipelineConfig
from tests.embeddings.reference import patch_add_at
from tests.nn.reference import patch_per_op

ORACLE_CONFIG = PipelineConfig(
    corpus=SyntheticCorpusConfig(vocab_size=120, n_documents=60, doc_length_mean=30, seed=7),
    algorithms=("cbow",),
    dimensions=(8,),
    precisions=(1, 32),
    seeds=(0,),
    tasks=("sst2", "conll"),
    embedding_epochs=2,
    downstream_epochs=3,
    ner_epochs=2,
)


def _grid_rows(n_workers: int = 0) -> list[str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        records = GridEngine(ORACLE_CONFIG).run(with_measures=True, n_workers=n_workers)
    return [json.dumps(record.to_row(), sort_keys=True) for record in records]


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
    assert calls["bilstm"] > 0 and calls["loss"] > 0 and calls["cbow"] > 0


def test_pool_records_equal_serial(shipped_rows):
    assert _grid_rows(n_workers=2) == shipped_rows
