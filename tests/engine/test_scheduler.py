"""Engine equivalence and determinism tests.

The acceptance bar of the engine: the parallel scheduler is bit-identical to
the serial path, a warm artifact store performs zero retrainings, and tied
seeds reproduce identical downstream results.
"""

import json
import warnings

import pytest

from repro.analysis.reporting import records_to_csv
from repro.corpus.synthetic import SyntheticCorpusConfig
from repro.engine import ArtifactStore, GridEngine, plan_groups, stats
from repro.instability.pipeline import InstabilityPipeline, PipelineConfig

TINY_GRID_CONFIG = PipelineConfig(
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
def serial_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return GridEngine(TINY_GRID_CONFIG).run(with_measures=True)


class TestPlanGroups:
    def test_one_group_per_embedding_pair(self):
        groups = plan_groups(
            ("svd", "mc"), (4, 8), (1, 32), (0, 1), ("sst2",), anchor_dim=8
        )
        assert len(groups) == 2 * 2 * 2
        assert all(g.precisions == (1, 32) for g in groups)
        assert all(g.n_cells == 2 for g in groups)

    def test_anchor_groups_scheduled_first(self):
        groups = plan_groups(
            ("svd",), (4, 8, 6), (1,), (0,), ("sst2",), anchor_dim=8, with_measures=True
        )
        # The dim-8 group is every other group's EIS-anchor ancestor.
        assert groups[0].dim == 8

    def test_no_reorder_without_measures(self):
        groups = plan_groups(("svd",), (4, 8), (1,), (0,), ("sst2",), anchor_dim=8)
        assert [g.dim for g in groups] == [4, 8]


class TestParallelEquivalence:
    def test_parallel_bit_identical_to_serial(self, serial_records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            parallel = GridEngine(TINY_GRID_CONFIG).run(with_measures=True, n_workers=2)
        assert parallel == serial_records  # dataclass equality: exact floats

    def test_record_order_is_axis_product_order(self, serial_records):
        keys = [(r.algorithm, r.dim, r.precision, r.seed, r.task) for r in serial_records]
        expected = [
            ("svd", d, p, 0, "sst2") for d in (4, 6) for p in (1, 32)
        ]
        assert keys == expected


class TestWarmStore:
    def test_warm_rerun_trains_nothing(self, tmp_path, serial_records):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cold = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path))
            cold_records = cold.run(with_measures=True)
            assert cold.pipeline.embedding_train_count > 0
            assert cold.pipeline.downstream_train_count > 0

            warm = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path))
            warm_records = warm.run(with_measures=True)

        # Zero retraining, asserted via the engine's aggregate stats() surface
        # (the same snapshot the serving layer's /metrics endpoint exposes)...
        snapshot = stats(warm)
        assert snapshot["pipeline"]["embedding_train_count"] == 0
        assert snapshot["pipeline"]["downstream_train_count"] == 0
        # ... whose store counters show every downstream/measure lookup hit
        # and no embedding pair ever missed -- the warm run is lazy enough
        # never to look one up, so the kind is absent from the snapshot
        # (stats() only reports kinds that saw traffic).
        assert snapshot["store"].get("embedding_pair", {}).get("misses", 0) == 0
        assert snapshot["store"]["downstream"]["misses"] == 0
        assert snapshot["store"]["downstream"]["hits"] > 0
        assert snapshot["store"]["measures"]["misses"] == 0
        assert snapshot["store"]["measures"]["hits"] > 0
        # The warm records are bit-identical to both the cold and in-memory runs.
        assert warm_records == cold_records == serial_records

    def test_disk_store_warm_rerun_trains_nothing_bit_identical(
        self, tmp_path, serial_records
    ):
        """A warm rerun against one disk tree performs zero retrainings and
        zero new decompositions, reads every artifact from that one tier, and
        its records match the in-memory run exactly."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cold = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path))
            cold_records = cold.run(with_measures=True)

            warm = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path))
            warm_records = warm.run(with_measures=True)

        snapshot = stats(warm)
        assert snapshot["pipeline"]["embedding_train_count"] == 0
        assert snapshot["pipeline"]["downstream_train_count"] == 0
        assert snapshot["store"]["measures"]["puts"] == 0
        assert snapshot["store"].get("decomposition", {}).get("puts", 0) == 0
        (disk,) = snapshot["store_tiers"]
        assert disk["name"] == "disk" and disk["hits"] > 0
        assert disk["root"] == str(tmp_path)
        assert warm_records == cold_records == serial_records

    def test_disk_store_parallel_warm_rerun_bit_identical(
        self, tmp_path, serial_records
    ):
        """Pool workers rebuild the disk tier from the store's spec and
        find every artifact the parent wrote."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path)).run(with_measures=True)
            warm = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path))
            records = warm.run(with_measures=True, n_workers=2)
        assert records == serial_records
        assert warm.pipeline.embedding_train_count == 0

    def test_cold_and_warm_runs_list_measures_in_one_order(self, tmp_path):
        """Computed and stored measures both come back sorted by name, so a
        cold run and its warm rerun write the same row and CSV bytes."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cold = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path / "store"))
            cold_records = cold.run(with_measures=True)
            warm = GridEngine(TINY_GRID_CONFIG, store=ArtifactStore(tmp_path / "store"))
            warm_records = warm.run(with_measures=True)
        assert warm.pipeline.embedding_train_count == 0
        assert json.dumps([r.to_row() for r in cold_records]) == json.dumps(
            [r.to_row() for r in warm_records]
        )
        cold_csv = records_to_csv(cold_records, tmp_path / "cold.csv")
        warm_csv = records_to_csv(warm_records, tmp_path / "warm.csv")
        assert cold_csv.read_bytes() == warm_csv.read_bytes()

    def test_repeated_cells_hit_the_cache_in_one_run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = GridEngine(TINY_GRID_CONFIG)
            engine.run(with_measures=False)
            first_train_count = engine.pipeline.embedding_train_count
            engine.run(with_measures=False)  # same grid again, same process
        assert engine.pipeline.embedding_train_count == first_train_count


class TestDeterminism:
    def test_tied_seeds_reproduce_identical_downstream_results(self):
        results = []
        for _ in range(2):
            pipeline = InstabilityPipeline(TINY_GRID_CONFIG)
            results.append(pipeline.evaluate("sst2", "svd", 4, 1, 0))
        assert results[0] == results[1]  # exact float equality

    def test_measures_reproduce_exactly(self):
        values = []
        for _ in range(2):
            pipeline = InstabilityPipeline(TINY_GRID_CONFIG)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                values.append(pipeline.compute_measures("svd", 4, 1, 0))
        assert values[0] == values[1]


class TestGridPlan:
    """The extracted group plan shared by local and distributed execution."""

    def test_axes_default_to_the_config(self):
        from repro.engine import plan_grid
        from repro.instability.pipeline import PipelineConfig

        config = PipelineConfig(
            algorithms=("svd",), dimensions=(4, 8), precisions=(1, 32),
            seeds=(0, 1), tasks=("sst2",),
        )
        plan = plan_grid(config, with_measures=True)
        assert plan.dimensions == (4, 8) and plan.seeds == (0, 1)
        assert plan.anchor_dim == 8
        assert plan.n_cells == 2 * 2 * 2        # dims x precisions x seeds
        assert len(plan.groups) == 4

    def test_explicit_axes_override_and_coerce(self):
        from repro.engine import plan_grid
        from repro.instability.pipeline import PipelineConfig

        plan = plan_grid(
            PipelineConfig(algorithms=("svd",), dimensions=(4,), precisions=(1,),
                           seeds=(0,), tasks=("sst2",)),
            dimensions=("4", "6"), precisions=("32",),
        )
        assert plan.dimensions == (4, 6) and plan.precisions == (32,)

    def test_groups_match_plan_groups_and_anchor_order(self):
        from repro.engine import plan_grid, plan_groups
        from repro.instability.pipeline import PipelineConfig

        config = PipelineConfig(
            algorithms=("svd",), dimensions=(4, 8, 6), precisions=(1,),
            seeds=(0,), tasks=("sst2",),
        )
        plan = plan_grid(config, with_measures=True)
        assert list(plan.groups) == plan_groups(
            ("svd",), (4, 8, 6), (1,), (0,), ("sst2",),
            anchor_dim=8, with_measures=True,
        )
        assert plan.groups[0].dim == 8          # the anchor group leads

    def test_cell_keys_are_the_canonical_product_order(self):
        from repro.engine import canonical_cell_keys, plan_grid
        from repro.instability.pipeline import PipelineConfig

        config = PipelineConfig(
            algorithms=("svd",), dimensions=(4, 6), precisions=(1, 32),
            seeds=(0,), tasks=("sst2",),
        )
        plan = plan_grid(config)
        assert plan.cell_keys() == canonical_cell_keys(
            ("svd",), (4, 6), (1, 32), (0,), ("sst2",)
        )
