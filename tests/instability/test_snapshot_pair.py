"""``PipelineConfig.snapshot_pair``: snapshots as a first-class grid axis."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.corpus.snapshots import store_snapshot
from repro.corpus.synthetic import Corpus
from repro.engine.store import ArtifactStore
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig
from repro.serving.api import quick_serve_config
from repro.utils.io import to_jsonable


def ingested_corpora():
    """Two small corpora sharing a word list, as the monitor would cut them."""
    rng = np.random.default_rng(3)
    words = [f"w{i:05d}" for i in range(40)]
    docs_a = [rng.integers(0, 40, size=12).astype(np.int64) for _ in range(25)]
    docs_b = docs_a + [rng.integers(0, 40, size=12).astype(np.int64) for _ in range(10)]

    def corpus(docs):
        return Corpus(
            word_list=words, documents=docs,
            document_topics=np.zeros(len(docs), dtype=np.int64), name="monitor",
        )

    return corpus(docs_a), corpus(docs_b)


@pytest.fixture()
def store_with_pair():
    store = ArtifactStore()
    base, drifted = ingested_corpora()
    return store, store_snapshot(store, base), store_snapshot(store, drifted)


class TestConfigField:
    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(snapshot_pair=("only-one",))
        with pytest.raises(ValueError):
            PipelineConfig(snapshot_pair=("a", ""))

    def test_jsonable_round_trip(self):
        config = dataclasses.replace(
            quick_serve_config(), snapshot_pair=("k" * 24, "j" * 24)
        )
        restored = PipelineConfig.from_jsonable(to_jsonable(config))
        assert restored.snapshot_pair == ("k" * 24, "j" * 24)
        assert restored == config

    def test_default_is_none_and_round_trips(self):
        config = quick_serve_config()
        assert config.snapshot_pair is None
        assert PipelineConfig.from_jsonable(to_jsonable(config)).snapshot_pair is None


class TestPipelineLoading:
    def test_loads_corpora_from_store(self, store_with_pair):
        store, base_key, drifted_key = store_with_pair
        config = dataclasses.replace(
            quick_serve_config(), snapshot_pair=(base_key, drifted_key)
        )
        pipeline = InstabilityPipeline(config, store=store)
        assert pipeline.corpus_build_count == 0       # nothing generated
        base, drifted = pipeline.corpus_pair.base, pipeline.corpus_pair.drifted
        assert len(base.documents) == 25
        assert len(drifted.documents) == 35
        assert base.word_list == drifted.word_list

    def test_missing_snapshot_raises(self):
        config = dataclasses.replace(
            quick_serve_config(), snapshot_pair=("0" * 24, "1" * 24)
        )
        with pytest.raises(KeyError):
            InstabilityPipeline(config, store=ArtifactStore())

    def test_snapshot_pair_salts_artifact_keys(self, store_with_pair):
        # Two different snapshot pairs are different cache universes: every
        # content-addressed artifact key must differ between them.
        store, base_key, drifted_key = store_with_pair
        cfg_a = dataclasses.replace(
            quick_serve_config(), snapshot_pair=(base_key, drifted_key)
        )
        cfg_b = dataclasses.replace(
            quick_serve_config(), snapshot_pair=(drifted_key, base_key)
        )
        pipe_a = InstabilityPipeline(cfg_a, store=store)
        pipe_b = InstabilityPipeline(cfg_b, store=store)
        key_a = pipe_a.measures_key("svd", 4, 1, 0)
        key_b = pipe_b.measures_key("svd", 4, 1, 0)
        assert key_a != key_b

    def test_grid_runs_over_snapshots(self, store_with_pair):
        store, base_key, drifted_key = store_with_pair
        config = dataclasses.replace(
            quick_serve_config(),
            snapshot_pair=(base_key, drifted_key),
            dimensions=(4,), precisions=(32,),
        )
        from repro.engine import GridEngine

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            records = GridEngine(
                InstabilityPipeline(config, store=store), coordinator_url=""
            ).run(with_measures=True)
        assert len(records) == 1
        assert records[0].measures["eis"] >= 0
