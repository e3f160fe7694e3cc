"""Two ablations of pair compression: Procrustes alignment and shared clip thresholds.

Appendix C.2 of the paper reports that aligning the Wiki'18 embedding to the
Wiki'17 embedding before compression reduces instability (especially at high
compression), and that sharing the quantization clipping threshold across the
pair avoids an unnecessary source of instability.  This benchmark measures
both choices directly on the embedding distance measures.
"""

import numpy as np

from repro.compression.uniform_quantization import compress_pair
from repro.embeddings.alignment import align_pair
from repro.measures.knn import KNNDistance
from repro.measures.semantic_displacement import SemanticDisplacement


def test_alignment_and_threshold_ablation(benchmark, pipeline):
    algorithm, dim, seed, bits = "mc", 16, 0, 2

    def build():
        emb_a, emb_b_aligned = pipeline.embedding_pair(algorithm, dim, seed)
        # Re-train the drifted embedding *without* alignment by fitting directly.
        model = pipeline._make_algorithm(algorithm, dim, seed)
        emb_b_raw = model.fit(pipeline.corpus_pair.drifted, vocab=pipeline.vocab)
        rows = []
        for label, emb_b in (("aligned", emb_b_aligned), ("unaligned", emb_b_raw)):
            for shared in (True, False):
                qa, qb = compress_pair(emb_a, emb_b, bits, share_threshold=shared)
                rows.append(
                    {
                        "alignment": label,
                        "shared_clip_threshold": shared,
                        "semantic_displacement": SemanticDisplacement().compute_embeddings(qa, qb).value,
                        "one_minus_knn": KNNDistance(num_queries=200).compute_embeddings(qa, qb).value,
                    }
                )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    for row in rows:
        print("  ", row)
    aligned = [r for r in rows if r["alignment"] == "aligned"]
    unaligned = [r for r in rows if r["alignment"] == "unaligned"]
    # Paper shape: alignment reduces the measured embedding distance.
    assert np.mean([r["semantic_displacement"] for r in aligned]) <= np.mean(
        [r["semantic_displacement"] for r in unaligned]
    ) + 1e-9
