"""Integration-style tests for the instability pipeline and grid runner."""

import numpy as np
import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.engine import ArtifactStore, GridEngine
from repro.instability.grid import average_over_seeds, records_to_rows
from repro.instability.pipeline import NER_OPTIMIZER, InstabilityPipeline, PipelineConfig
from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from repro.telemetry.trace import Trace


@pytest.fixture(scope="module")
def tiny_pipeline():
    config = PipelineConfig(
        corpus=SyntheticCorpusConfig(vocab_size=200, n_documents=120, doc_length_mean=50, seed=7),
        algorithms=("svd",),
        dimensions=(6, 12),
        precisions=(1, 32),
        seeds=(0,),
        tasks=("sst2", "conll"),
        embedding_epochs=3,
        downstream_epochs=5,
        ner_epochs=3,
    )
    return InstabilityPipeline(config)


class TestPipelineConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            PipelineConfig(algorithms=("word2vec-skipgram",))

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError):
            PipelineConfig(tasks=("imdb",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(dimensions=())

    def test_anchor_dim_defaults_to_max(self):
        config = PipelineConfig(dimensions=(8, 64, 16))
        assert config.resolved_anchor_dim == 64


class TestPipeline:
    def test_embedding_pair_cached_and_aligned(self, tiny_pipeline):
        pair1 = tiny_pipeline.embedding_pair("svd", 6, 0)
        pair2 = tiny_pipeline.embedding_pair("svd", 6, 0)
        assert pair1[0] is pair2[0]
        assert pair1[0].vocab.words == pair1[1].vocab.words

    def test_compressed_pair_precision(self, tiny_pipeline):
        qa, qb = tiny_pipeline.compressed_pair("svd", 6, 1, 0)
        assert len(np.unique(qa.vectors)) <= 2
        assert qa.metadata["precision"] == 1
        # Full precision passes the original objects through.
        fa, _ = tiny_pipeline.compressed_pair("svd", 6, 32, 0)
        assert fa is tiny_pipeline.embedding_pair("svd", 6, 0)[0]

    def test_datasets_are_cached_and_split(self, tiny_pipeline):
        splits = tiny_pipeline.dataset("sst2")
        assert splits is tiny_pipeline.dataset("sst2")
        assert len(splits.train) > len(splits.test) > 0

    def test_measure_computation(self, tiny_pipeline):
        measures = tiny_pipeline.compute_measures("svd", 6, 1, 0)
        assert set(measures) == {"eis", "1-knn", "semantic-displacement", "pip",
                                 "1-eigenspace-overlap"}
        assert all(np.isfinite(v) for v in measures.values())

    def test_measure_subset(self, tiny_pipeline):
        measures = tiny_pipeline.compute_measures("svd", 6, 1, 0, measures=("eis",))
        assert set(measures) == {"eis"}

    @pytest.mark.parametrize("names", [("bogus",), ("eis", "bogus"), ("EIS",), ()])
    def test_unknown_measure_name_raises_before_the_store(self, tiny_pipeline, names):
        stats = tiny_pipeline.store.stat("measures")
        before = (stats.lookups, stats.puts)
        with pytest.raises(KeyError, match="known"):
            tiny_pipeline.compute_measures("svd", 6, 1, 0, measures=names)
        assert (stats.lookups, stats.puts) == before

    @pytest.mark.parametrize("names, same_as", [
        (("eis", "eis"), ("eis",)),
        (("pip", "eis", "pip"), ("eis", "pip")),
    ])
    def test_a_selection_is_keyed_by_its_set_of_names(self, tiny_pipeline, names, same_as):
        values = tiny_pipeline.compute_measures("svd", 6, 1, 0, measures=same_as)
        puts = tiny_pipeline.store.stat("measures").puts
        key = tiny_pipeline.measures_key("svd", 6, 1, 0, measures=names)
        assert key == tiny_pipeline.measures_key("svd", 6, 1, 0, measures=same_as)
        assert tiny_pipeline.compute_measures("svd", 6, 1, 0, measures=names) == values
        assert tiny_pipeline.store.stat("measures").puts == puts

    def test_evaluate_caches_results(self, tiny_pipeline):
        a = tiny_pipeline.evaluate("sst2", "svd", 6, 1, 0)
        trained = tiny_pipeline.downstream_train_count
        b = tiny_pipeline.evaluate("sst2", "svd", 6, 1, 0)
        assert a == b
        assert tiny_pipeline.downstream_train_count == trained
        assert 0.0 <= a.disagreement <= 100.0
        assert 0.0 <= a.accuracy_a <= 1.0

    def test_ner_evaluation(self, tiny_pipeline):
        result = tiny_pipeline.evaluate("conll", "svd", 6, 32, 0)
        assert result.task == "conll"
        assert 0.0 <= result.disagreement <= 100.0

    def test_downstream_result_seed_overrides(self, tiny_pipeline):
        emb_a, emb_b = tiny_pipeline.embedding_pair("svd", 12, 0)
        same_emb = tiny_pipeline.downstream_result("sst2", emb_a, emb_a, 0)
        assert same_emb.disagreement == 0.0
        different_init = tiny_pipeline.downstream_result(
            "sst2", emb_a, emb_a, 0, init_seed_b=99
        )
        assert different_init.disagreement >= 0.0

    @pytest.mark.parametrize("model", ["bilstm", "bow"])
    def test_downstream_train_span_reads_the_fit_history(self, tiny_pipeline, model, monkeypatch):
        model_class = BiLSTMTagger if model == "bilstm" else BowClassifier
        task = "conll" if model == "bilstm" else "sst2"
        fits = []
        fit = model_class.fit

        def recording_fit(self, *args, **kwargs):
            fits.append(fit(self, *args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(model_class, "fit", recording_fit)
        tables = [
            emb for precision in (1, 32)
            for emb in tiny_pipeline.compressed_pair("svd", 6, precision, 0)
        ]
        config = tiny_pipeline.training_config(task, 0)
        n_train = len(tiny_pipeline.dataset(task).train)
        for embeddings in (tables[:1], tables):
            fits.clear()
            trace = Trace("test")
            with trace.active():
                tiny_pipeline.fit_downstream(task, config, embeddings)
            (row,) = [r for r in trace.span_rows() if r["name"] == "pipeline.downstream_train"]
            (histories,) = fits
            attrs = row["attrs"]
            assert attrs["model"] == model and attrs["models"] == len(embeddings)
            assert attrs["batches_per_epoch"] == -(-n_train // config.batch_size)
            epochs = [len(history["train_loss"]) for history in histories]
            assert attrs["epochs_run"] == epochs and min(epochs) > 0
            assert attrs["stopped_epoch"] == [n if n < config.epochs else None for n in epochs]
            assert attrs["final_train_loss"] == [h["train_loss"][-1] for h in histories]
            assert attrs["best_val_accuracy"] == [max(h["val_accuracy"]) for h in histories]

    def test_evaluate_many_equals_cell_by_cell(self, tiny_pipeline):
        cells = [
            (task, "svd", dim, precision, 0)
            for dim in (6, 12) for precision in (1, 32) for task in ("sst2", "conll")
        ]
        grouped = InstabilityPipeline(tiny_pipeline.config, store=ArtifactStore())
        one_by_one = InstabilityPipeline(tiny_pipeline.config, store=ArtifactStore())
        assert grouped.evaluate_many(cells) == [one_by_one.evaluate(*cell) for cell in cells]
        assert grouped.downstream_train_count == one_by_one.downstream_train_count == 16

    def test_explicit_zero_learning_rate_is_rejected(self, tiny_pipeline):
        for task in ("sst2", "conll"):
            with pytest.raises(ValueError, match="learning_rate"):
                tiny_pipeline.training_config(task, 0, learning_rate=0.0)
        emb_a, emb_b = tiny_pipeline.embedding_pair("svd", 6, 0)
        with pytest.raises(ValueError, match="learning_rate"):
            tiny_pipeline.downstream_result("sst2", emb_a, emb_b, 0, learning_rate=0.0)

    def test_training_config_ties_seeds_unless_overridden(self, tiny_pipeline):
        tied = tiny_pipeline.training_config("sst2", 3)
        assert (tied.init_seed, tied.sampling_seed) == (3, 3)
        relaxed = tiny_pipeline.training_config("conll", 3, init_seed=9, sampling_seed=11)
        assert (relaxed.init_seed, relaxed.sampling_seed) == (9, 11)
        assert relaxed.optimizer == NER_OPTIMIZER


class TestGridEngineRun:
    def test_grid_shape_and_rows(self, tiny_pipeline):
        records = GridEngine(tiny_pipeline).run(with_measures=True)
        # 1 algorithm x 2 dims x 2 precisions x 1 seed x 2 tasks.
        assert len(records) == 8
        rows = records_to_rows(records)
        assert rows[0]["memory"] == rows[0]["dim"] * rows[0]["precision"]
        assert any(key.startswith("measure_") for key in rows[0])

    def test_average_over_seeds(self, tiny_pipeline):
        records = GridEngine(tiny_pipeline).run(with_measures=False)
        averaged = average_over_seeds(records)
        assert len(averaged) == len(records)  # single seed: same count, seed=-1
        assert all(r.seed == -1 for r in averaged)

    def test_axis_overrides(self, tiny_pipeline):
        records = GridEngine(tiny_pipeline).run(
            dimensions=(6,), precisions=(32,), tasks=("sst2",), with_measures=False
        )
        assert len(records) == 1
        assert records[0].dim == 6 and records[0].precision == 32


class _KeyRecordingStore(ArtifactStore):
    """Answers every lookup with a stand-in and records the key it was asked
    for, so the pipeline derives its artifact keys without building anything."""

    def __init__(self):
        super().__init__()
        self.asked: dict[str, str] = {}

    def get_embedding_pair(self, kind, key):
        self.asked[kind] = key
        return (None, None)

    def get_arrays(self, kind, key):
        self.asked[kind] = key
        return dict.fromkeys(("P", "Ra", "P_t", "Ra_t"), np.ones((1, 1)))

    def get_json(self, kind, key):
        self.asked[kind] = key
        return {"task": "sst2", "disagreement": 0.0, "accuracy_a": 0.0, "accuracy_b": 0.0}


class TestArtifactKeys:
    def test_keys_of_one_cell_are_pinned(self):
        # Every persistent store (disk, shards, replicas, cluster peers) finds
        # its artifacts by these keys: a change to any of them silently
        # orphans every store written before it.
        config = PipelineConfig(
            corpus=SyntheticCorpusConfig(vocab_size=60, n_documents=20, doc_length_mean=20, seed=3),
            algorithms=("cbow",), dimensions=(8,), precisions=(2, 32), seeds=(0,),
            tasks=("sst2",),
        )
        store = _KeyRecordingStore()
        pipeline = InstabilityPipeline(config, store=store)
        pipeline.embedding_pair("cbow", 8, 0)
        pipeline.anchor_decomposition("cbow", 0)
        pipeline.compute_measures("cbow", 8, 2, 0)
        pipeline.evaluate("sst2", "cbow", 8, 2, 0)
        assert store.asked == {
            "embedding_pair": "04b5d546e066337b811cea59",
            "decomposition": "f7b8ff747bc83e634e49e1b5",
            "measures": "be3c1401aec23d7f0200aec1",
            "downstream": "59199e452b8b54360f9911fd",
        }
        assert pipeline.embedding_train_count == pipeline.downstream_train_count == 0
