"""Per-layer timing from outside the program: wrappers around entry points.

The traced run replaces public functions and methods of ``repro`` with
thin wrappers that count and time their calls; nothing under ``src/``
knows it is measured.  The untraced run installs nothing, so its
end-to-end numbers carry no wrapper cost, and the difference between the
two runs is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from perfbench import stats

_FAMILIES = ("json", "arrays", "embedding_pair")

#: Timed layers whose calls count as *covered* time: a caller's self time
#: (``engine.self_s``) is its wall time minus the time covered by these.
COVERING: dict[str, tuple[str, ...]] = {
    "corpus.generate": ("repro.corpus.synthetic:SyntheticCorpusGenerator.generate_pair",),
    "embeddings.align": ("repro.embeddings.alignment:align_pair",),
    "compression.quantize": ("repro.compression.uniform_quantization:compress_pair",),
    "measures.batch": ("repro.measures.batch:compute_measure_batch",),
    "measures.anchor": ("repro.measures.eigenspace_instability:anchor_factors",),
    "models.bilstm_fit": ("repro.models.bilstm_tagger:BiLSTMTagger.fit",),
    "models.bow_fit": ("repro.models.bow_classifier:BowClassifier.fit",),
    "store.get": tuple(f"repro.engine.store:ArtifactStore.get_{f}" for f in _FAMILIES),
    "store.put": tuple(f"repro.engine.store:ArtifactStore.put_{f}" for f in _FAMILIES),
}

#: Timed layers above the pipeline; they nest around the covering ones.
SERVICE: dict[str, str] = {
    "service.select": "repro.serving.service:StabilityService.select",
    "service.measure": "repro.serving.service:StabilityService.measure",
    "service.etag": "repro.serving.service:StabilityService.measure_etag",
    "pipeline.compute_measures": (
        "repro.instability.pipeline:InstabilityPipeline.compute_measures"
    ),
}

#: Autograd hot paths: counted, not timed -- two clock reads per tensor
#: would cost more than many of the tensors do.
COUNTED: dict[str, str] = {
    "nn.tensor_init": "repro.nn.tensor:Tensor.__init__",
    "nn.backward": "repro.nn.tensor:Tensor.backward",
}


@dataclass(frozen=True)
class Mark:
    """Recorder state at the start of a measurement window."""

    calls: dict[str, int]
    seconds: dict[str, float]
    samples: dict[str, int]
    covered: float


class LayerRecorder:
    """Per-layer call counts, busy seconds and per-call samples; thread-safe.

    ``covered`` is wall time spent inside at least one covering layer on a
    thread.  Nested layer calls (an anchor factorization inside a measure
    batch) count in both layers' own times but are covered once, so a
    caller's self time never subtracts an interval twice.  A layer that
    calls itself (a subclass ``fit`` calling its parent's) counts once.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.covered = 0.0

    def timed(self, layer: str, fn: Callable, *, covers: bool = True) -> Callable:
        """``fn`` wrapped to count and time its calls under ``layer``."""
        self.calls.setdefault(layer, 0)
        self.seconds.setdefault(layer, 0.0)
        samples = self.samples.setdefault(layer, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._local
            if not hasattr(state, "open"):
                state.open, state.depth = set(), 0
            if layer in state.open:
                return fn(*args, **kwargs)
            outermost = covers and state.depth == 0
            state.open.add(layer)
            if covers:
                state.depth += 1
            start = self._clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                state.open.discard(layer)
                if covers:
                    state.depth -= 1
                with self._lock:
                    self.calls[layer] += 1
                    self.seconds[layer] += elapsed
                    samples.append(elapsed)
                    if outermost:
                        self.covered += elapsed

        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls under ``layer``."""
        self.calls.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self) -> Mark:
        with self._lock:
            return Mark(
                dict(self.calls), dict(self.seconds),
                {layer: len(s) for layer, s in self.samples.items()}, self.covered,
            )

    def report(self, since: Mark | None = None) -> dict:
        """Calls, seconds and median call per layer since ``since`` (default: ever)."""
        since = since or Mark({}, {}, {}, 0.0)
        with self._lock:
            layers = {}
            for layer, calls in self.calls.items():
                entry = {"calls": calls - since.calls.get(layer, 0)}
                if layer in self.seconds:
                    entry["seconds"] = self.seconds[layer] - since.seconds.get(layer, 0.0)
                window = self.samples.get(layer, [])[since.samples.get(layer, 0):]
                if window:
                    entry["median_s"] = statistics.median(window)
                layers[layer] = entry
            return {"layers": layers, "covered_s": self.covered - since.covered}


def install(recorder: LayerRecorder) -> None:
    """Wrap every layer's entry points in this process, once, before use."""
    # The serving stack imports every module that binds an entry point by
    # name, so the binding scan in _patch sees all of them.
    importlib.import_module("repro.serving.api")
    for layer, targets in COVERING.items():
        for target in targets:
            _patch(target, functools.partial(recorder.timed, layer))
    for target in _embedding_fits():
        _patch(target, functools.partial(recorder.timed, "embeddings.fit"))
    for layer, target in SERVICE.items():
        _patch(target, functools.partial(recorder.timed, layer, covers=False))
    for layer, target in COUNTED.items():
        _patch(target, functools.partial(recorder.counted, layer))


def _embedding_fits() -> list[str]:
    """``fit`` of every registered embedding algorithm, once per defining class."""
    from repro.embeddings.base import EMBEDDING_ALGORITHMS

    targets: list[str] = []
    for name in EMBEDDING_ALGORITHMS.names():
        cls = EMBEDDING_ALGORITHMS.get(name)
        owner = next(c for c in cls.__mro__ if "fit" in vars(c))
        target = f"{owner.__module__}:{owner.__qualname__}.fit"
        if target not in targets:
            targets.append(target)
    return targets


def _patch(target: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``module:function`` or ``module:Class.method`` with ``wrap(it)``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    original = vars(owner)[name]
    wrapper = wrap(original)
    setattr(owner, name, wrapper)
    if not classes:
        # Modules that imported the function by name hold their own binding.
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("repro") and vars(loaded).get(name) is original:
                setattr(loaded, name, wrapper)


def layer_metrics(window: dict, whole: dict) -> dict[str, float]:
    """The per-layer metrics the wrappers measure, named as in BENCHMARK.json.

    ``window`` covers the measured phase; ``whole`` the process's life,
    which is where set-up layers (corpus generation) did their work.
    """
    layers = window["layers"]

    def seconds(layer: str) -> float:
        return layers.get(layer, {}).get("seconds", 0.0)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def median_ms(layer: str) -> float:
        return 1e3 * layers.get(layer, {}).get("median_s", 0.0)

    metrics = {
        "models.bilstm_fit_s": seconds("models.bilstm_fit"),
        "models.bilstm_fit_calls": calls("models.bilstm_fit"),
        "models.bow_fit_s": seconds("models.bow_fit"),
        "models.bow_fit_calls": calls("models.bow_fit"),
        "nn.tensors_created": calls("nn.tensor_init"),
        "nn.backward_calls": calls("nn.backward"),
        "embeddings.fit_s": seconds("embeddings.fit"),
        "embeddings.fit_calls": calls("embeddings.fit"),
        "embeddings.align_s": seconds("embeddings.align"),
        "compression.quantize_s": seconds("compression.quantize"),
        "compression.quantize_calls": calls("compression.quantize"),
        "measures.batch_s": seconds("measures.batch"),
        "measures.batch_calls": calls("measures.batch"),
        "measures.anchor_s": seconds("measures.anchor"),
        "store.put_s": seconds("store.put"),
        "store.puts": calls("store.put"),
        "store.get_s": seconds("store.get"),
        "store.gets": calls("store.get"),
        "corpus.generate_s": whole["layers"].get("corpus.generate", {}).get("median_s", 0.0),
        "service.select_ms": median_ms("service.select"),
        "service.measure_ms": median_ms("service.measure"),
        "service.measure_calls": calls("service.measure"),
        "service.etag_ms": median_ms("service.etag"),
        "pipeline.compute_measures_ms": median_ms("pipeline.compute_measures"),
    }
    # Single-flight bookkeeping plus the executor hop around the pipeline.
    metrics["service.handoff_ms"] = stats.self_time(
        metrics["service.measure_ms"], metrics["pipeline.compute_measures_ms"]
    )
    return metrics
