"""Worker warm-up tests: workers start from the parent's corpus pair and rebuild nothing."""

import warnings

import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.engine import ArtifactStore, GridEngine
from repro.engine.scheduler import _init_worker
from repro.engine import scheduler as scheduler_module
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

WARMUP_CONFIG = PipelineConfig(
    corpus=SyntheticCorpusConfig(vocab_size=120, n_documents=60, doc_length_mean=30, seed=7),
    algorithms=("svd",),
    dimensions=(4, 6),
    precisions=(1, 32),
    seeds=(0,),
    tasks=("sst2",),
    embedding_epochs=2,
    downstream_epochs=3,
    ner_epochs=2,
)


@pytest.fixture(scope="module")
def corpus_pair():
    generator = SyntheticCorpusGenerator(WARMUP_CONFIG.corpus)
    return generator.generate_pair(seed=WARMUP_CONFIG.corpus.seed)


class TestWarmStartedPipeline:
    def test_warm_pipeline_builds_no_corpus(self, corpus_pair):
        pipeline = InstabilityPipeline(WARMUP_CONFIG, warm_corpus_pair=corpus_pair)
        assert pipeline.corpus_build_count == 0
        cold = InstabilityPipeline(WARMUP_CONFIG)
        assert cold.corpus_build_count == 1
        # Identical vocabulary and artifact keys: warm pipelines share caches.
        assert pipeline.vocab.words == cold.vocab.words
        assert pipeline._embedding_fields("svd", 4, 0) == cold._embedding_fields("svd", 4, 0)

    def test_init_worker_uses_the_parent_corpus_pair(self, corpus_pair, tmp_path):
        _init_worker(WARMUP_CONFIG, tmp_path, corpus_pair, {})
        try:
            worker_pipeline = scheduler_module._WORKER_PIPELINE
            assert worker_pipeline is not None
            assert worker_pipeline.corpus_build_count == 0
            assert worker_pipeline.corpus_pair is corpus_pair
        finally:
            scheduler_module._WORKER_PIPELINE = None

    def test_init_worker_without_shipment_rebuilds(self, tmp_path):
        _init_worker(WARMUP_CONFIG, tmp_path, None, {})
        try:
            assert scheduler_module._WORKER_PIPELINE.corpus_build_count == 1
        finally:
            scheduler_module._WORKER_PIPELINE = None


class TestEngineWarmupIntegration:
    def test_parallel_run_ships_corpus_and_stays_bit_identical(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            serial_engine = GridEngine(WARMUP_CONFIG, store=ArtifactStore())
            serial = serial_engine.run(with_measures=True)
            assert serial_engine.last_warmup is None     # no parallel run happened

            parallel_engine = GridEngine(WARMUP_CONFIG, store=ArtifactStore())
            parallel = parallel_engine.run(with_measures=True, n_workers=2)
        assert parallel == serial
        assert parallel_engine.last_warmup == {"pairs_shipped": 0}
        # The parent built its corpus exactly once; worker pipelines start
        # from it and report zero builds (asserted inside the workers in
        # tests/engine/test_streaming.py).
        assert parallel_engine.pipeline.corpus_build_count == 1
