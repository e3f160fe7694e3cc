"""Tests for the shared-decomposition measure batch API."""

import numpy as np
import pytest

from repro.measures.base import DecompositionCache
from repro.measures.batch import compute_measure_batch
from repro.measures.eigenspace_instability import EigenspaceInstability
from repro.measures.eigenspace_overlap import EigenspaceOverlapDistance, eigenspace_overlap
from repro.measures.knn import KNNDistance
from repro.measures.pip_loss import PIPLoss, pip_loss
from repro.measures.semantic_displacement import SemanticDisplacement


@pytest.fixture()
def suite(embedding_pair):
    emb_a, emb_b = embedding_pair
    return {
        "eis": EigenspaceInstability(emb_a, emb_b, alpha=3.0),
        "1-knn": KNNDistance(k=3, num_queries=50, seed=0),
        "semantic-displacement": SemanticDisplacement(),
        "pip": PIPLoss(),
        "1-eigenspace-overlap": EigenspaceOverlapDistance(),
    }


class TestDecompositionCache:
    def test_svd_computed_once_per_matrix(self, rng):
        cache = DecompositionCache()
        X = rng.standard_normal((30, 5))
        first = cache.svd(X)
        second = cache.svd(X)
        assert first[0] is second[0]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_identity_keying_distinguishes_equal_content(self, rng):
        cache = DecompositionCache()
        X = rng.standard_normal((10, 3))
        cache.svd(X)
        cache.svd(X.copy())  # equal values, different object -> recomputed
        assert cache.misses == 2

    def test_cross_product_cached(self, rng):
        cache = DecompositionCache()
        X = rng.standard_normal((20, 4))
        Y = rng.standard_normal((20, 6))
        first = cache.cross(X, Y)
        second = cache.cross(X, Y)
        assert first is second

    def test_cached_measures_match_direct(self, rng):
        X = rng.standard_normal((40, 6))
        Y = rng.standard_normal((40, 8))
        cache = DecompositionCache()
        assert pip_loss(X, Y, cache=cache) == pytest.approx(pip_loss(X, Y), rel=1e-9)
        assert eigenspace_overlap(X, Y, cache=cache) == pytest.approx(
            eigenspace_overlap(X, Y), rel=1e-9
        )


class TestDecompositionCacheGauge:
    def test_bytes_in_memory_tracks_factor_arrays(self):
        cache = DecompositionCache()
        assert cache.stats["bytes_in_memory"] == 0
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 8))
        U, S, Vt = cache.svd(X)
        assert cache.stats["bytes_in_memory"] == U.nbytes + S.nbytes + Vt.nbytes

    def test_bytes_in_memory_includes_cross_products(self):
        cache = DecompositionCache()
        rng = np.random.default_rng(1)
        X, Y = rng.normal(size=(30, 6)), rng.normal(size=(30, 5))
        before = cache.stats["bytes_in_memory"]
        product = cache.cross(X, Y)
        after = cache.stats["bytes_in_memory"]
        # Two SVDs plus the cross product landed in the cache.
        assert after > before
        assert after >= product.nbytes


class TestDecompositionCacheBounds:
    def test_lru_eviction_and_counter(self, rng):
        cache = DecompositionCache(max_entries=2)
        matrices = [rng.standard_normal((10, 3)) for _ in range(4)]
        for X in matrices:
            cache.svd(X)
        assert cache.evictions == 2
        assert cache.stats["entries"] <= 2
        # The two most recent entries still hit; the evicted ones re-miss.
        hits_before = cache.hits
        cache.svd(matrices[-1])
        assert cache.hits == hits_before + 1
        misses_before = cache.misses
        cache.svd(matrices[0])
        assert cache.misses == misses_before + 1

    def test_recent_use_protects_from_eviction(self, rng):
        cache = DecompositionCache(max_entries=2)
        X, Y, Z = (rng.standard_normal((8, 3)) for _ in range(3))
        cache.svd(X)
        cache.svd(Y)
        cache.svd(X)           # X becomes most recent
        cache.svd(Z)           # evicts Y, not X
        hits_before = cache.hits
        cache.svd(X)
        assert cache.hits == hits_before + 1

    def test_cross_products_also_bounded(self, rng):
        cache = DecompositionCache(max_entries=1)
        pairs = [(rng.standard_normal((8, 2)), rng.standard_normal((8, 3))) for _ in range(3)]
        for X, Y in pairs:
            cache.cross(X, Y)
        assert cache.evictions > 0

    def test_unbounded_cache(self, rng):
        cache = DecompositionCache(max_entries=None)
        for _ in range(10):
            cache.svd(rng.standard_normal((5, 2)))
        assert cache.evictions == 0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            DecompositionCache(max_entries=0)

    def test_stats_snapshot(self, rng):
        cache = DecompositionCache()
        X = rng.standard_normal((6, 2))
        cache.svd(X)
        cache.svd(X)
        # bytes_in_memory: U (6x2) + S (2,) + Vt (2x2) float64 factors.
        assert cache.stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "bytes_in_memory": 144,
        }



class TestMeasureBatch:
    def test_batch_matches_individual_measures(self, embedding_pair, suite):
        emb_a, emb_b = embedding_pair
        batch = compute_measure_batch(suite, emb_a, emb_b, top_k=None)
        for name, measure in suite.items():
            individual = measure.compute_embeddings(emb_a, emb_b, top_k=None)
            assert batch[name].value == pytest.approx(individual.value, rel=1e-8, abs=1e-10), name
            assert batch[name].n_words == individual.n_words

    def test_one_svd_serves_all_decomposition_measures(self, embedding_pair, suite):
        emb_a, emb_b = embedding_pair
        batch = compute_measure_batch(suite, emb_a, emb_b, top_k=None)
        # EIS, overlap and PIP each need both matrices decomposed; without
        # sharing that is six SVDs, with the cache it is exactly two.
        svd_misses = batch.cache.misses - 1  # one miss is the shared cross product
        assert svd_misses == 2
        assert batch.cache.hits >= 4

    def test_values_dict(self, embedding_pair, suite):
        emb_a, emb_b = embedding_pair
        batch = compute_measure_batch(suite, emb_a, emb_b, top_k=None)
        assert set(batch.values) == set(suite)
        assert all(np.isfinite(v) for v in batch.values.values())
        assert len(batch) == len(suite)

    def test_batch_zero_on_identical_pair(self, embedding_pair, suite):
        emb_a, _ = embedding_pair
        batch = compute_measure_batch(suite, emb_a, emb_a, top_k=None)
        for name, result in batch.results.items():
            # The shared-SVD PIP path carries ~1e-6 of cancellation noise on
            # identical pairs (the exact-zero identity is pinned on the direct
            # path in test_invariance.py); everything else cancels exactly.
            tol = 1e-5 if name == "pip" else 1e-7
            assert result.value == pytest.approx(0.0, abs=tol), name
