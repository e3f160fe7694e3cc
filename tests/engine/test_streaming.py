"""Streaming grid execution tests.

The acceptance bar of the streaming path: records from ``run_iter()`` -- in
any arrival order -- reassemble bit-identically to the serial batch result,
the ordered commit is exact, and streaming is genuinely incremental (records
surface before the grid finishes).
"""

import multiprocessing
import random
import warnings

import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.engine import ArtifactStore, GridEngine, evaluate_group
from repro.engine import scheduler as scheduler_module
from repro.engine.streaming import OrderedCommitter, canonical_cell_keys, commit_in_order
from repro.instability.grid import GridRecord
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

STREAM_CONFIG = PipelineConfig(
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


def _record(algorithm="svd", dim=4, precision=1, seed=0, task="sst2"):
    return GridRecord(
        algorithm=algorithm, task=task, dim=dim, precision=precision, seed=seed,
        disagreement=0.1, accuracy_a=0.9, accuracy_b=0.9,
    )


@pytest.fixture(scope="module")
def serial_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GridEngine(STREAM_CONFIG).run(with_measures=True)


class TestCanonicalKeys:
    def test_product_order_with_tasks_innermost(self):
        keys = canonical_cell_keys(("a",), (4, 8), (1,), (0, 1), ("t1", "t2"))
        assert keys[:4] == [
            ("a", 4, 1, 0, "t1"), ("a", 4, 1, 0, "t2"),
            ("a", 4, 1, 1, "t1"), ("a", 4, 1, 1, "t2"),
        ]
        assert len(keys) == 2 * 2 * 2

    def test_matches_batch_record_order(self, serial_records):
        cfg = STREAM_CONFIG
        keys = canonical_cell_keys(
            cfg.algorithms, cfg.dimensions, cfg.precisions, cfg.seeds, cfg.tasks
        )
        assert [(r.algorithm, r.dim, r.precision, r.seed, r.task) for r in serial_records] == keys


class TestOrderedCommitter:
    GRID = dict(
        algorithms=("a", "b"), dimensions=(4, 8), precisions=(1, 32),
        seeds=(0, 1), tasks=("t",),
    )

    def _keys(self):
        return canonical_cell_keys(
            self.GRID["algorithms"], self.GRID["dimensions"],
            self.GRID["precisions"], self.GRID["seeds"], self.GRID["tasks"],
        )

    def test_any_arrival_order_commits_canonically(self):
        keys = self._keys()
        records = [_record(a, d, p, s, t) for (a, d, p, s, t) in keys]
        for trial in range(5):
            shuffled = list(records)
            random.Random(trial).shuffle(shuffled)
            out = list(commit_in_order([[r] for r in shuffled], keys))
            assert out == records

    def test_buffers_until_due(self):
        keys = self._keys()
        committer = OrderedCommitter(keys)
        late = _record(*keys[1])
        assert list(committer.push(late)) == []
        assert committer.buffered == 1 and committer.committed == 0
        first = _record(*keys[0])
        assert list(committer.push(first)) == [first, late]
        assert committer.buffered == 0 and committer.committed == 2

    def test_duplicate_push_raises(self):
        keys = self._keys()
        committer = OrderedCommitter(keys)
        list(committer.push(_record(*keys[0])))
        with pytest.raises(ValueError, match="twice"):
            list(committer.push(_record(*keys[0])))
        # A buffered (not yet committed) duplicate is also rejected.
        list(committer.push(_record(*keys[2])))
        with pytest.raises(ValueError, match="twice"):
            list(committer.push(_record(*keys[2])))

    def test_unexpected_cell_raises(self):
        committer = OrderedCommitter(self._keys())
        with pytest.raises(KeyError, match="unexpected"):
            list(committer.push(_record("zz", 99, 1, 0, "t")))

    def test_finish_raises_on_missing_cells(self):
        keys = self._keys()
        committer = OrderedCommitter(keys)
        list(committer.push(_record(*keys[0])))
        with pytest.raises(RuntimeError, match="uncommitted"):
            committer.finish()

    def test_duplicate_canonical_keys_rejected(self):
        keys = self._keys()
        with pytest.raises(ValueError, match="duplicate"):
            OrderedCommitter(keys + keys[:1])


class TestRunIter:
    def test_serial_stream_bit_identical_to_batch(self, serial_records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            streamed = list(GridEngine(STREAM_CONFIG).run_iter(with_measures=True))
        assert streamed == serial_records

    def test_parallel_ordered_stream_bit_identical(self, serial_records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            streamed = list(
                GridEngine(STREAM_CONFIG).run_iter(with_measures=True, n_workers=2)
            )
        assert streamed == serial_records

    def test_stream_is_incremental(self):
        """The first records surface before every group has been evaluated."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = GridEngine(STREAM_CONFIG)
            iterator = engine.run_iter(with_measures=False)
            first = next(iterator)
        # The first canonical cell belongs to the first group (dim 4), so
        # only that group's pair has been trained so far.
        assert (first.dim, first.precision) == (4, 1)
        assert engine.pipeline.embedding_train_count == 1
        remaining = list(iterator)
        assert engine.pipeline.embedding_train_count == 2
        assert len(remaining) == 3

    def test_batch_run_is_the_ordered_stream(self, serial_records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert GridEngine(STREAM_CONFIG).run(with_measures=True) == serial_records


def _refuse_training(self, name, dim, seed):
    raise AssertionError(f"a worker trained a {name} pair (dim {dim}, seed {seed})")


def _evaluate_group_checked(group):
    """Pool task: evaluate a group, checking the worker started warm."""
    pipeline = scheduler_module._WORKER_PIPELINE
    assert pipeline.corpus_build_count == 0, "a worker generated a corpus"
    records = evaluate_group(pipeline, group)
    assert pipeline.embedding_train_count == 0, "a worker trained an embedding pair"
    return records


class TestEmbeddingShipmentWarmup:
    def test_warm_memory_store_parallel_rerun_ships_pairs(self, monkeypatch):
        """Pairs trained in the parent (a serial run, or a serving process
        answering /measure queries) reach the workers as initializer
        arguments when the grid later fans out -- even though the store has
        no disk tier for workers to share.  The checks run inside the
        workers, in a task: an exception in a pool initializer makes the
        pool respawn workers forever instead of failing the test."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = GridEngine(STREAM_CONFIG, store=ArtifactStore())
            first = engine.run(with_measures=True)            # serial: parent trains
            assert engine.pipeline.embedding_train_count == 2
            # Patched before the pool forks, so every worker inherits both.
            monkeypatch.setattr(InstabilityPipeline, "_make_algorithm", _refuse_training)
            monkeypatch.setattr(
                scheduler_module, "_evaluate_group_in_worker", _evaluate_group_checked
            )
            second = engine.run(with_measures=True, n_workers=2)
        assert second == first
        # Both trained dims (4 and 6) shipped; dim 6 doubles as the EIS anchor.
        assert engine.last_warmup == {"pairs_shipped": 2}
        # The parent trained nothing new for the parallel rerun.
        assert engine.pipeline.embedding_train_count == 2

    def test_spawned_workers_match_the_serial_run(self, monkeypatch):
        """Under ``spawn`` the pool pickles the corpus pair and the trained
        pairs; a warm rerun still reproduces the serial records."""
        monkeypatch.setattr(
            scheduler_module, "get_context",
            lambda method=None: multiprocessing.get_context("spawn"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = GridEngine(STREAM_CONFIG, store=ArtifactStore())
            first = engine.run(with_measures=True)
            second = engine.run(with_measures=True, n_workers=2)
        assert second == first
        assert engine.last_warmup == {"pairs_shipped": 2}

    def test_cold_parallel_run_ships_no_pairs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = GridEngine(STREAM_CONFIG, store=ArtifactStore())
            engine.run(with_measures=False, n_workers=2)
        assert engine.last_warmup["pairs_shipped"] == 0

    def test_init_worker_with_pair_shipment_skips_training(self):
        """A worker whose store was seeded answers embedding_pair from cache."""
        from repro.engine.scheduler import _init_worker
        from repro.engine.store import config_hash

        parent = InstabilityPipeline(STREAM_CONFIG)
        pair = parent.embedding_pair("svd", 4, 0)
        key = config_hash(parent._embedding_fields("svd", 4, 0))
        _init_worker(STREAM_CONFIG, None, parent.corpus_pair, {key: pair})
        try:
            worker = scheduler_module._WORKER_PIPELINE
            assert worker.store.stat("embedding_pair").preloads == 1
            shipped = worker.embedding_pair("svd", 4, 0)
            assert worker.embedding_train_count == 0
            assert (shipped[0].vectors == pair[0].vectors).all()
            assert (shipped[1].vectors == pair[1].vectors).all()
        finally:
            scheduler_module._WORKER_PIPELINE = None
