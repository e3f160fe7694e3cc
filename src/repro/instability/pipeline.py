"""End-to-end instability pipeline.

Reproduces the paper's experimental pipeline (Appendix A.5):

1. generate the Corpus'17 / Corpus'18 pair;
2. train an embedding pair per (algorithm, dimension, seed), aligning the
   drifted embedding to the base one with orthogonal Procrustes;
3. uniformly quantize the pair to a precision (sharing the clipping
   threshold);
4. train downstream models on each embedding with tied seeds and measure the
   prediction disagreement on the task's test split -- the models that share
   a training config train in one lockstep stack (:meth:`evaluate_many`);
5. compute the embedding distance measures between the pair.

Everything expensive is cached because the grid study reuses the same
full-precision embeddings across many precisions and tasks.  Caching goes
through the engine's content-addressed :class:`~repro.engine.store.ArtifactStore`:
the default store is in-memory (matching the seed behaviour), and handing the
pipeline a disk-backed store makes every trained embedding pair, anchor
decomposition, measure value and downstream result persistent, so a warm rerun
performs zero retrainings.  Quantized pairs are derived, not stored: a
quantization is a ~2.4 ms function of the stored full-precision pair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.compression.memory import bits_per_word
from repro.compression.uniform_quantization import FULL_PRECISION_BITS, compress_pair
from repro.corpus.synthetic import CorpusPair, SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.corpus.vocabulary import Vocabulary
from repro.embeddings.alignment import align_pair
from repro.embeddings.base import EMBEDDING_ALGORITHMS, Embedding
from repro.engine.store import ArtifactStore, config_hash, default_store
from repro.instability.downstream import prediction_disagreement
from repro.measures.base import DEFAULT_TOP_K
from repro.measures.batch import compute_measure_batch
from repro.measures.eigenspace_instability import (
    AnchorFactors,
    EigenspaceInstability,
    anchor_factors,
)
from repro.measures.eigenspace_overlap import EigenspaceOverlapDistance
from repro.measures.knn import KNNDistance
from repro.measures.pip_loss import PIPLoss
from repro.measures.semantic_displacement import SemanticDisplacement
from repro.models.bilstm_tagger import BiLSTMTagger
from repro.models.bow_classifier import BowClassifier
from repro.models.cnn_classifier import CNNClassifier
from repro.models.trainer import TrainingConfig
from repro.nn.data import BatchIterator
from repro.tasks.datasets import DatasetSplits, train_val_test_split
from repro.tasks.lexicons import build_task_lexicons
from repro.tasks.ner import NERTaskConfig, generate_ner_dataset
from repro.tasks.sentiment import SENTIMENT_TASKS, generate_sentiment_dataset
from repro.telemetry.trace import span
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["PipelineConfig", "InstabilityPipeline", "DownstreamResult"]

#: Task names understood by the pipeline; "conll" is the NER task.
SENTIMENT_TASK_NAMES = tuple(SENTIMENT_TASKS)
NER_TASK_NAME = "conll"
#: Names of the measures in :meth:`InstabilityPipeline.measure_suite`, the
#: only names a ``measures=`` selection may use.
SUITE_MEASURES = ("eis", "1-knn", "semantic-displacement", "pip", "1-eigenspace-overlap")
#: Artifact keys a pipeline memoises before it forgets the oldest.  A cold
#: default ``/select`` derives 25 keys, so 4096 keys (1.15 MB measured) keep
#: the keys of the last ~160 ancestries while a server answers new seeds
#: forever; a forgotten key costs one re-hash of its config.
KEY_MEMO_ENTRIES = 4096

# Settings the paper holds fixed while it sweeps dimension, precision,
# algorithm, seed and task.  They are constants, not PipelineConfig fields,
# because no caller needs another value.  Those that feed an artifact key
# still appear in it under their old field names, so stores stay warm;
# giving one of them a second value needs a config field and key field again.
#: Minimum count of a word in both corpora to enter the shared vocabulary.
VOCAB_MIN_COUNT = 2
#: Context window of every embedding trainer the pipeline builds.
EMBEDDING_WINDOW = 5
#: Seed of the task datasets and their train/val/test split.
TASK_SEED = 0
VAL_FRACTION = 0.15
TEST_FRACTION = 0.25
NER_CONFIG = NERTaskConfig(n_sentences=260, sentence_length=14, entity_density=0.35)
#: The paper trains its NER BiLSTM with plain SGD; at the scale of the
#: synthetic substitute Adam converges reliably within the small epoch
#: budget.
NER_OPTIMIZER = "adam"
NER_HIDDEN_DIM = 16
SENTIMENT_LEARNING_RATE = 0.05
NER_LEARNING_RATE = 0.02
#: EIS's alpha and k-NN's k: the values the paper's Table 8 selects.
EIS_ALPHA = 3.0
KNN_K = 5
KNN_NUM_QUERIES = 300


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the end-to-end instability pipeline.

    The defaults are scaled down from the paper (whose corpora have 4.5B
    tokens and dimensions up to 800) so that a full grid runs on a laptop in
    minutes; every knob the paper sweeps is still exposed.  What the paper
    holds fixed is a module constant (``EIS_ALPHA``, ``KNN_K``,
    ``EMBEDDING_WINDOW``, ...), the measures' top-k cut is
    :data:`~repro.measures.base.DEFAULT_TOP_K`, embedding pairs are always
    Procrustes-aligned, quantized pairs always share their clipping
    threshold, and the EIS anchors are the largest dimension.
    """

    # Corpus.
    corpus: SyntheticCorpusConfig = field(default_factory=lambda: SyntheticCorpusConfig(
        vocab_size=300, n_documents=300, doc_length_mean=80, seed=0,
    ))
    #: Content-addressed keys of a (base, drifted) corpus-snapshot pair (see
    #: :mod:`repro.corpus.snapshots`).  When set, the pipeline loads both
    #: corpora from the artifact store instead of generating them from
    #: ``corpus``; the keys join every artifact key, so each snapshot pair is
    #: its own cache universe.  Snapshots are first-class grid inputs: the
    #: pipeline is rebuilt from its JSON config alone, so snapshot retrains
    #: distribute over the cluster fleet like any other grid.
    snapshot_pair: tuple[str, str] | None = None

    # Embeddings.
    algorithms: tuple[str, ...] = ("cbow", "glove", "mc")
    dimensions: tuple[int, ...] = (8, 16, 32, 64)
    precisions: tuple[int, ...] = (1, 2, 4, 8, 32)
    seeds: tuple[int, ...] = (0, 1, 2)
    embedding_epochs: int = 10

    # Downstream tasks.
    tasks: tuple[str, ...] = ("sst2", "subj", NER_TASK_NAME)
    downstream_epochs: int = 15
    ner_epochs: int = 12
    fine_tune_embeddings: bool = False

    def __post_init__(self) -> None:
        for algo in self.algorithms:
            if algo not in EMBEDDING_ALGORITHMS:
                raise KeyError(
                    f"unknown embedding algorithm {algo!r}; known: {EMBEDDING_ALGORITHMS.names()}"
                )
        for task in self.tasks:
            if task not in SENTIMENT_TASK_NAMES and task != NER_TASK_NAME:
                raise KeyError(f"unknown task {task!r}")
        if not self.dimensions or not self.precisions or not self.seeds:
            raise ValueError("dimensions, precisions and seeds must be non-empty")
        if self.snapshot_pair is not None:
            if (
                len(self.snapshot_pair) != 2
                or not all(isinstance(k, str) and k for k in self.snapshot_pair)
            ):
                raise ValueError(
                    "snapshot_pair must be a (base_key, drifted_key) pair of "
                    f"non-empty strings, got {self.snapshot_pair!r}"
                )

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PipelineConfig":
        """Rebuild a config from its :func:`~repro.utils.io.to_jsonable` form.

        The cluster ships pipeline configurations between hosts as plain JSON
        (never pickle -- coordinator and workers are mutually untrusted
        network peers), so this is the deserialisation half of that wire
        format.  Nested dataclasses are reconstructed, JSON lists return to
        tuples, and unknown or invalid fields raise (``TypeError`` from the
        constructor, or the usual ``__post_init__`` validation errors).
        """
        data = dict(payload)
        if isinstance(data.get("corpus"), dict):
            data["corpus"] = SyntheticCorpusConfig(**data["corpus"])
        for name in ("algorithms", "dimensions", "precisions", "seeds", "tasks",
                     "snapshot_pair"):
            if isinstance(data.get(name), list):
                data[name] = tuple(data[name])
        return cls(**data)

    @property
    def resolved_anchor_dim(self) -> int:
        return max(self.dimensions)


@dataclass(frozen=True)
class DownstreamResult:
    """Result of training a downstream model pair on one embedding pair."""

    task: str
    disagreement: float
    accuracy_a: float
    accuracy_b: float

    @property
    def mean_accuracy(self) -> float:
        return 0.5 * (self.accuracy_a + self.accuracy_b)


def _fit_summary(
    histories: list[dict[str, list[float]]], config: TrainingConfig, n_train: int
) -> dict:
    """Span attributes that let a slow lockstep fit explain itself, one list
    entry per model in stack order."""
    epochs = [len(history["train_loss"]) for history in histories]
    return {
        "models": len(histories),
        "batches_per_epoch": len(BatchIterator(n_train, config.batch_size)),
        "epochs_run": epochs,
        # Epochs are counted from 1; None when every epoch ran.
        "stopped_epoch": [n if n < config.epochs else None for n in epochs],
        "final_train_loss": [h["train_loss"][-1] if h["train_loss"] else None for h in histories],
        "best_val_accuracy": [
            max(h["val_accuracy"]) if h["val_accuracy"] else None for h in histories
        ],
    }


class InstabilityPipeline:
    """Caches and orchestrates embeddings, compression, tasks and models.

    Parameters
    ----------
    config:
        Pipeline configuration (quick defaults when omitted).
    store:
        Artifact store for every expensive artifact.  ``None`` uses the
        process default (in-memory unless configured otherwise).
    warm_corpus_pair:
        A pre-built corpus pair **trusted to be identical** to the one this
        config would generate -- the scheduler's pool initializer passes the
        parent's pair here so workers skip regeneration.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        *,
        store: ArtifactStore | None = None,
        warm_corpus_pair: CorpusPair | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.store = store if store is not None else default_store()
        generator = SyntheticCorpusGenerator(self.config.corpus)
        #: Number of corpus pairs this pipeline actually generated; worker
        #: warm-up tests pin this to zero for warm-started pipelines.
        self.corpus_build_count = 0
        if warm_corpus_pair is not None:
            self.corpus_pair = warm_corpus_pair
        elif self.config.snapshot_pair is not None:
            # The keys are content-addressed, so any host whose store fabric
            # reaches the snapshot bytes (cluster workers fetch them through
            # their remote tier) rebuilds the exact same corpora from JSON.
            from repro.corpus.snapshots import load_snapshot

            base_key, drifted_key = self.config.snapshot_pair
            self.corpus_pair = CorpusPair(
                base=load_snapshot(self.store, base_key),
                drifted=load_snapshot(self.store, drifted_key),
                config=self.config.corpus,
            )
        else:
            self.corpus_pair = generator.generate_pair(seed=self.config.corpus.seed)
            self.corpus_build_count = 1
        self.vocab: Vocabulary = self.corpus_pair.shared_vocabulary(min_count=VOCAB_MIN_COUNT)
        self.lexicons = build_task_lexicons(generator, self.vocab)
        self._datasets: dict[str, DatasetSplits] = {}
        #: Artifact-key memo: hashing re-serialises the whole (frozen) config,
        #: which at serving rates costs more than some measure evaluations.
        #: Safe because PipelineConfig is frozen.
        #: Bounded by :data:`KEY_MEMO_ENTRIES` (oldest first out); the lock
        #: guards inserts only, so a hit stays one dict lookup.
        self._key_memo: dict[tuple, str] = {}
        self._key_memo_lock = threading.Lock()
        #: Number of embedding pairs actually trained (cache misses) and of
        #: downstream models actually fit; warm-cache tests pin these to zero.
        self.embedding_train_count = 0
        self.downstream_train_count = 0
        logger.info(
            "pipeline ready: %d-word vocabulary, %d/%d tokens",
            len(self.vocab),
            self.corpus_pair.base.num_tokens,
            self.corpus_pair.drifted.num_tokens,
        )

    # -- artifact keys -----------------------------------------------------------

    def _memoised_key(self, memo_key: tuple, fields_fn) -> str:
        """Cache ``config_hash(fields_fn())`` under ``memo_key`` for this pipeline."""
        key = self._key_memo.get(memo_key)
        if key is None:
            key = config_hash(fields_fn())
            with self._key_memo_lock:
                if len(self._key_memo) >= KEY_MEMO_ENTRIES:
                    del self._key_memo[next(iter(self._key_memo))]
                self._key_memo[memo_key] = key
        return key

    def _corpus_fields(self) -> dict:
        return {
            "corpus": self.config.corpus,
            "vocab_min_count": VOCAB_MIN_COUNT,
            "snapshot_pair": self.config.snapshot_pair,
            # Always None since custom-corpus pipelines went; kept so stores
            # stay warm.
            "salt": None,
        }

    def _embedding_fields(self, algorithm: str, dim: int, seed: int) -> dict:
        fields = self._corpus_fields()
        fields.update(
            algorithm=algorithm,
            dim=int(dim),
            seed=int(seed),
            # Pairs are always aligned since the option went; kept so stores
            # stay warm.
            align=True,
            epochs=self.config.embedding_epochs,
            window=EMBEDDING_WINDOW,
            # A constant since the SVD-kernel policy went; kept so stores stay warm.
            kernel_policy={"svd": "exact"},
        )
        return fields

    def _quantized_fields(self, algorithm: str, dim: int, precision: int, seed: int) -> dict:
        fields = self._embedding_fields(algorithm, dim, seed)
        fields.update(
            precision=int(precision),
            # Pairs always share their clipping threshold since the option
            # went; kept so stores stay warm.
            share_clip_threshold=True,
        )
        return fields

    # -- datasets --------------------------------------------------------------

    def dataset(self, task: str) -> DatasetSplits:
        """Train/val/test splits of a downstream task (built lazily, cached)."""
        if task not in self._datasets:
            if task == NER_TASK_NAME:
                full = generate_ner_dataset(
                    NER_CONFIG, self.lexicons, seed=TASK_SEED, vocab=self.vocab
                )
            else:
                full = generate_sentiment_dataset(
                    task, self.lexicons, seed=TASK_SEED, vocab=self.vocab
                )
            self._datasets[task] = train_val_test_split(
                full, val_fraction=VAL_FRACTION, test_fraction=TEST_FRACTION, seed=TASK_SEED
            )
        return self._datasets[task]

    # -- embeddings -------------------------------------------------------------

    def _make_algorithm(self, name: str, dim: int, seed: int):
        cls = EMBEDDING_ALGORITHMS.get(name)
        kwargs = {"dim": dim, "seed": seed, "window_size": EMBEDDING_WINDOW}
        if name != "svd":
            kwargs["epochs"] = self.config.embedding_epochs
        return cls(**kwargs)

    def embedding_pair(self, algorithm: str, dim: int, seed: int) -> tuple[Embedding, Embedding]:
        """Full-precision (base, drifted) embedding pair, Procrustes-aligned."""
        key = self._memoised_key(
            ("embedding", algorithm, int(dim), int(seed)),
            lambda: self._embedding_fields(algorithm, dim, seed),
        )
        pair = self.store.get_embedding_pair("embedding_pair", key)
        if pair is None:
            with span("pipeline.train", metric="phase", label="train",
                      algorithm=algorithm, dim=int(dim), seed=int(seed)):
                model_a = self._make_algorithm(algorithm, dim, seed)
                model_b = self._make_algorithm(algorithm, dim, seed)
                emb_a = model_a.fit(self.corpus_pair.base, vocab=self.vocab)
                emb_b = align_pair(emb_a, model_b.fit(self.corpus_pair.drifted, vocab=self.vocab))
                pair = (emb_a, emb_b)
                self.embedding_train_count += 1
                self.store.put_embedding_pair("embedding_pair", key, pair)
            logger.debug("trained %s pair dim=%d seed=%d", algorithm, dim, seed)
        return pair

    def compressed_pair(
        self, algorithm: str, dim: int, precision: int, seed: int,
        *, pairs: dict | None = None,
    ) -> tuple[Embedding, Embedding]:
        """Embedding pair quantized to ``precision`` bits (threshold shared).

        Derived from the stored full-precision pair on each call, never
        stored.  ``pairs`` is a memo the caller owns, keyed by ``(algorithm,
        dim, precision, seed)``: a caller that needs one pair in several
        places (a grid group's measures and its downstream models) passes
        one, so each pair is quantized once and dropped with the memo.
        """
        cell = (algorithm, int(dim), int(precision), int(seed))
        if pairs is not None and cell in pairs:
            return pairs[cell]
        pair = self.embedding_pair(algorithm, dim, seed)
        if precision < FULL_PRECISION_BITS:
            with span("pipeline.quantize", metric="phase", label="quantize",
                      algorithm=algorithm, dim=int(dim), precision=int(precision)):
                pair = compress_pair(*pair, precision)
        if pairs is not None:
            pairs[cell] = pair
        return pair

    def anchors(self, algorithm: str, seed: int) -> tuple[Embedding, Embedding]:
        """Anchor embeddings for the EIS measure: highest-dim, full precision."""
        return self.embedding_pair(algorithm, self.config.resolved_anchor_dim, seed)

    # -- measures ----------------------------------------------------------------

    def anchor_decomposition(self, algorithm: str, seed: int) -> AnchorFactors:
        """SVD factors of the aligned anchor pair, shared across grid cells.

        One decomposition of the (largest-dimension) anchors serves the EIS
        evaluation of every (dimension, precision) cell with the same
        (algorithm, seed); with a persistent store it also survives reruns.
        """

        def fields_fn() -> dict:
            fields = self._embedding_fields(algorithm, self.config.resolved_anchor_dim, seed)
            # dtype is a constant since float32 measures went; kept so stores stay warm.
            fields.update(kind="anchor-svd", alpha=EIS_ALPHA, top_k=DEFAULT_TOP_K,
                          dtype="float64")
            return fields

        key = self._memoised_key(("anchor-svd", algorithm, int(seed)), fields_fn)
        # All pipeline embeddings share one vocabulary, so the aligned word
        # order of any pair is the vocabulary's frequency order.
        words = tuple(self.vocab.words[:DEFAULT_TOP_K])
        arrays = self.store.get_arrays("decomposition", key)
        if arrays is None:
            anchor_a, anchor_b = self.anchors(algorithm, seed)
            with span("pipeline.anchor_svd", metric="phase", label="anchor_svd",
                      algorithm=algorithm, seed=int(seed)):
                ra, rb = Embedding.aligned_pair(anchor_a, anchor_b, top_k=DEFAULT_TOP_K)
                factors = anchor_factors(
                    ra.vectors, rb.vectors, alpha=EIS_ALPHA, words=tuple(ra.vocab.words)
                )
            self.store.put_arrays("decomposition", key, {
                "P": factors.P, "Ra": factors.Ra,
                "P_t": factors.P_t, "Ra_t": factors.Ra_t,
            })
            return factors
        return AnchorFactors(
            P=arrays["P"], Ra=arrays["Ra"], P_t=arrays["P_t"], Ra_t=arrays["Ra_t"],
            words=words,
        )

    def measure_suite(self, algorithm: str, seed: int) -> dict[str, object]:
        """The :data:`SUITE_MEASURES`, with anchors resolved.

        Built on each call and kept by nobody: every measure is stateless
        across calls (k-NN reseeds from an int each time, and EIS receives
        the stored anchor factors), so a cached suite would only pin the
        anchor arrays past the store's memory bound.
        """
        anchor_a, anchor_b = self.anchors(algorithm, seed)
        return {
            "eis": EigenspaceInstability(
                anchor_a, anchor_b, alpha=EIS_ALPHA,
                factors=self.anchor_decomposition(algorithm, seed),
            ),
            "1-knn": KNNDistance(k=KNN_K, num_queries=KNN_NUM_QUERIES, seed=0),
            "semantic-displacement": SemanticDisplacement(),
            "pip": PIPLoss(),
            "1-eigenspace-overlap": EigenspaceOverlapDistance(),
        }

    def measures_key(
        self, algorithm: str, dim: int, precision: int, seed: int,
        *, measures: tuple[str, ...] | None = None,
    ) -> str:
        """Artifact key of one measure evaluation.

        Public so callers that deduplicate work by artifact identity (the
        serving layer's single-flight coalescing) agree exactly with the
        store's caching: two requests with the same key are the same
        computation.  A selection is keyed as the sorted set of its names,
        so neither order nor repeats make a new key.
        """
        selected = tuple(sorted(set(measures))) if measures is not None else None

        def fields_fn() -> dict:
            fields = self._quantized_fields(algorithm, dim, precision, seed)
            fields.update(
                kind="measures",
                measures=list(selected) if selected is not None else None,
                top_k=DEFAULT_TOP_K,
                eis_alpha=EIS_ALPHA,
                knn_k=KNN_K,
                knn_num_queries=KNN_NUM_QUERIES,
                anchor_dim=self.config.resolved_anchor_dim,
                # A constant since float32 measures went; kept so stores stay warm.
                dtype="float64",
            )
            return fields

        return self._memoised_key(
            ("measures", algorithm, int(dim), int(precision), int(seed), selected),
            fields_fn,
        )

    def compute_measures(
        self, algorithm: str, dim: int, precision: int, seed: int,
        *, measures: tuple[str, ...] | None = None, pairs: dict | None = None,
    ) -> dict[str, float]:
        """Evaluate embedding distance measures on a compressed pair.

        The suite runs as a batch sharing one vocabulary alignment and one
        :class:`~repro.measures.base.DecompositionCache`, so each embedding
        matrix is decomposed once for EIS, eigenspace overlap and PIP loss
        together; values are cached in the artifact store.  They come back
        sorted by name, the order a stored value is read back in, so a
        cold and a warm run list them alike.  An empty
        selection, or one naming a measure outside the suite, raises
        ``KeyError`` before the store is consulted.  ``pairs`` is the
        caller's quantized-pair memo (see :meth:`compressed_pair`).
        """
        if measures is not None:
            unknown = [name for name in measures if name not in SUITE_MEASURES]
            if unknown or not measures:
                raise KeyError(
                    f"cannot evaluate {unknown or 'no measures'}; known: {SUITE_MEASURES}"
                )
        key = self.measures_key(algorithm, dim, precision, seed, measures=measures)
        cached = self.store.get_json("measures", key)
        if cached is not None:
            return dict(cached)
        emb_a, emb_b = self.compressed_pair(algorithm, dim, precision, seed, pairs=pairs)
        suite = self.measure_suite(algorithm, seed)
        selected = {
            name: measure for name, measure in suite.items()
            if measures is None or name in measures
        }
        with span("pipeline.measures", metric="phase", label="measures",
                  algorithm=algorithm, dim=int(dim), precision=int(precision),
                  seed=int(seed)):
            batch = compute_measure_batch(selected, emb_a, emb_b)
            out = dict(sorted(batch.values.items()))
            self.store.put_json("measures", key, out)
        return out

    # -- downstream models ----------------------------------------------------------

    def training_config(
        self, task: str, seed: int, *, learning_rate: float | None = None,
        init_seed: int | None = None, sampling_seed: int | None = None,
    ) -> TrainingConfig:
        """The resolved training configuration of one downstream model.

        Both seeds default to ``seed`` (the paper's tied seeds); ``init_seed``
        and ``sampling_seed`` untie them.  Models whose resolved configs are
        equal train in one lockstep stack.
        """
        ner = task == NER_TASK_NAME
        default_lr = NER_LEARNING_RATE if ner else SENTIMENT_LEARNING_RATE
        return TrainingConfig(
            learning_rate=default_lr if learning_rate is None else learning_rate,
            epochs=self.config.ner_epochs if ner else self.config.downstream_epochs,
            optimizer=NER_OPTIMIZER if ner else "adam",
            patience=None if ner else 4,
            anneal_factor=0.5 if ner else None,
            fine_tune_embeddings=self.config.fine_tune_embeddings,
            init_seed=int(seed if init_seed is None else init_seed),
            sampling_seed=int(seed if sampling_seed is None else sampling_seed),
        )

    def fit_downstream(
        self, task: str, config: TrainingConfig, embeddings: list[Embedding],
        *, model_type: str = "bow", use_crf: bool = False,
    ) -> tuple[list[np.ndarray], list[float]]:
        """Train one downstream model per embedding, all in one lockstep fit.

        Returns each model's test-split predictions (flattened over tokens
        for NER) and its test score (accuracy; entity F1 for NER).  CNN and
        CRF models take one embedding per call.
        """
        splits = self.dataset(task)
        if task == NER_TASK_NAME:
            label = "bilstm"
            model = BiLSTMTagger(
                embeddings, num_tags=splits.train.num_tags,
                hidden_dim=NER_HIDDEN_DIM, use_crf=use_crf, config=config,
            )
        elif model_type == "bow":
            label, model = "bow", BowClassifier(embeddings, num_classes=2, config=config)
        elif model_type == "cnn":
            (embedding,) = embeddings
            label, model = "cnn", CNNClassifier(embedding, num_classes=2, config=config)
        else:
            raise ValueError(f"unknown classifier type {model_type!r}")
        with span("pipeline.downstream_train", metric="phase", label="downstream",
                  task=task, model=label, seed=config.init_seed) as handle:
            histories = model.fit(splits.train, splits.val)
            histories = [histories] if label == "cnn" else histories
            handle.set(**_fit_summary(histories, config, len(splits.train)))
        self.downstream_train_count += len(embeddings)
        if label == "cnn":
            return [model.predict(splits.test)], [model.accuracy(splits.test)]
        if label == "bow":
            return list(model.predict(splits.test)), model.accuracy(splits.test)
        predictions = [np.concatenate(tags) for tags in model.predict(splits.test)]
        return predictions, model.entity_f1(splits.test)

    def downstream_results(
        self,
        task: str,
        pairs: list[tuple[Embedding, Embedding]],
        seed: int,
        *,
        model_type: str = "bow",
        use_crf: bool = False,
        learning_rate: float | None = None,
        init_seed_b: int | None = None,
        sampling_seed_b: int | None = None,
    ) -> list[DownstreamResult]:
        """Train the downstream model pair of every embedding pair and measure
        each pair's prediction disagreement.

        The models are bucketed by resolved training config and table shape,
        and each bucket trains as one lockstep stack (:meth:`fit_downstream`);
        CNN and CRF models train alone.  ``init_seed_b`` / ``sampling_seed_b``
        override the seeds of the second model of each pair only, reproducing
        the "relaxed seed constraint" study of Appendix E.3 / Figure 14a.
        """
        config_a = self.training_config(task, seed, learning_rate=learning_rate)
        config_b = self.training_config(
            task, seed, learning_rate=learning_rate,
            init_seed=init_seed_b, sampling_seed=sampling_seed_b,
        )
        models = [(config, emb) for pair in pairs for config, emb in zip((config_a, config_b), pair)]
        alone = use_crf or (task != NER_TASK_NAME and model_type == "cnn")
        buckets: dict[object, list[int]] = {}
        for index, (config, emb) in enumerate(models):
            key = index if alone else (config, emb.vectors.shape)
            buckets.setdefault(key, []).append(index)
        predictions: list = [None] * len(models)
        scores: list = [None] * len(models)
        for indices in buckets.values():
            bucket_predictions, bucket_scores = self.fit_downstream(
                task, models[indices[0]][0], [models[i][1] for i in indices],
                model_type=model_type, use_crf=use_crf,
            )
            for i, prediction, score in zip(indices, bucket_predictions, bucket_scores):
                predictions[i], scores[i] = prediction, score
        # NER instability counts gold-entity tokens only.
        mask = (
            np.concatenate(self.dataset(task).test.entity_token_mask())
            if task == NER_TASK_NAME else None
        )
        return [
            DownstreamResult(
                task=task,
                disagreement=prediction_disagreement(
                    predictions[2 * k], predictions[2 * k + 1], mask=mask
                ),
                accuracy_a=scores[2 * k],
                accuracy_b=scores[2 * k + 1],
            )
            for k in range(len(pairs))
        ]

    def downstream_result(
        self,
        task: str,
        emb_a: Embedding,
        emb_b: Embedding,
        seed: int,
        *,
        model_type: str = "bow",
        use_crf: bool = False,
        learning_rate: float | None = None,
        init_seed_b: int | None = None,
        sampling_seed_b: int | None = None,
    ) -> DownstreamResult:
        """Train the downstream model pair of one embedding pair and measure
        their prediction disagreement (see :meth:`downstream_results`)."""
        (result,) = self.downstream_results(
            task, [(emb_a, emb_b)], seed, model_type=model_type, use_crf=use_crf,
            learning_rate=learning_rate, init_seed_b=init_seed_b,
            sampling_seed_b=sampling_seed_b,
        )
        return result

    def _downstream_key(
        self, task: str, algorithm: str, dim: int, precision: int, seed: int,
        model_type: str, use_crf: bool,
    ) -> str:
        fields = self._quantized_fields(algorithm, dim, precision, seed)
        fields.update(
            kind="downstream",
            task=task,
            model_type=model_type,
            use_crf=use_crf,
            task_seed=TASK_SEED,
            val_fraction=VAL_FRACTION,
            test_fraction=TEST_FRACTION,
            downstream_epochs=self.config.downstream_epochs,
            sentiment_learning_rate=SENTIMENT_LEARNING_RATE,
            ner=NER_CONFIG,
            ner_optimizer=NER_OPTIMIZER,
            ner_epochs=self.config.ner_epochs,
            ner_hidden_dim=NER_HIDDEN_DIM,
            ner_learning_rate=NER_LEARNING_RATE,
            fine_tune=self.config.fine_tune_embeddings,
            # Downstream models train in float32; results stored by float64
            # training recompute once.
            dtype="float32",
        )
        return config_hash(fields)

    def evaluate_many(
        self,
        cells: list[tuple[str, str, int, int, int]],
        *,
        model_type: str = "bow",
        use_crf: bool = False,
        pairs: dict | None = None,
    ) -> list[DownstreamResult]:
        """Cached end-to-end evaluation of many ``(task, algorithm, dim,
        precision, seed)`` grid points, in order.

        Cells whose result is stored are read back; the rest train through
        one :meth:`downstream_results` call per (task, seed), so every
        bucket of models sharing a training config trains in lockstep.  Each
        result is stored under its cell's own key.  ``pairs`` is the
        caller's quantized-pair memo (see :meth:`compressed_pair`).
        """
        keys = [self._downstream_key(*cell, model_type, use_crf) for cell in cells]
        results: dict[str, DownstreamResult] = {}
        missing: dict[tuple[str, int], dict[str, tuple]] = {}
        for key, cell in zip(keys, cells):
            payload = self.store.get_json("downstream", key)
            if payload is None:
                task, seed = cell[0], cell[4]
                missing.setdefault((task, seed), {})[key] = cell
            else:
                results[key] = DownstreamResult(
                    task=payload["task"],
                    disagreement=payload["disagreement"],
                    accuracy_a=payload["accuracy_a"],
                    accuracy_b=payload["accuracy_b"],
                )
        for (task, seed), todo in missing.items():
            todo_pairs = [
                self.compressed_pair(*cell[1:], pairs=pairs) for cell in todo.values()
            ]
            trained = self.downstream_results(
                task, todo_pairs, seed, model_type=model_type, use_crf=use_crf
            )
            for key, result in zip(todo, trained):
                results[key] = result
                self.store.put_json("downstream", key, result)
        return [results[key] for key in keys]

    def evaluate(
        self,
        task: str,
        algorithm: str,
        dim: int,
        precision: int,
        seed: int,
        *,
        model_type: str = "bow",
        use_crf: bool = False,
    ) -> DownstreamResult:
        """Cached end-to-end evaluation of one grid point."""
        (result,) = self.evaluate_many(
            [(task, algorithm, dim, precision, seed)], model_type=model_type, use_crf=use_crf
        )
        return result

    # -- bookkeeping ------------------------------------------------------------------

    @staticmethod
    def memory(dim: int, precision: int) -> int:
        return bits_per_word(dim, precision)
