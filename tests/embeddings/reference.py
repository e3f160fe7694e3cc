"""References the embedding trainers must match.

MC, GloVe, fastText and TransE apply their row updates through
:func:`repro.linalg.kernels.scatter_add_rows`, looked up in their own module
namespace at call time.  ``patch_add_at`` points each of those names back at
a plain ``np.add.at`` on the 2-D table, so a fit under the patch is the
reference fit.

CBOW's updates are sparse products.  ``patch_sequential_cbow`` swaps in
:func:`sequential_cbow_train`, the loop it replaced: the same random draws,
with each example's row updates applied one at a time by ``np.add.at``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.embeddings import fasttext, glove, matrix_completion
from repro.embeddings.word2vec import (
    BATCH_SIZE,
    LEARNING_RATE,
    NEGATIVE_SAMPLES,
    CBOWModel,
    build_cbow_examples,
)
from repro.kge import transe

#: Trainer module -> the key its reference calls are counted under.
TRAINER_MODULES = {
    matrix_completion: "mc",
    glove: "glove",
    fasttext: "fasttext",
    transe: "transe",
}


def patch_add_at(monkeypatch, calls: Counter) -> None:
    """Route every trainer module's ``scatter_add_rows`` to ``np.add.at``,
    counting calls under the module's key in ``TRAINER_MODULES``."""
    for module, key in TRAINER_MODULES.items():

        def reference(X, index, values, key=key):
            calls[key] += 1
            np.add.at(X, index, values)

        monkeypatch.setattr(module, "scatter_add_rows", reference)


def sequential_cbow_train(
    self: CBOWModel, docs: list[np.ndarray], vocab, rng: np.random.Generator
) -> np.ndarray:
    """``CBOWModel._train`` with each row update applied one at a time."""
    n_words = len(vocab)
    pad_id = n_words  # one extra all-zero row used for padding
    contexts, sizes, targets = build_cbow_examples(docs, self.window_size, pad_id)
    n_examples = len(targets)

    # Input (context) vectors W_in with an extra frozen pad row; output
    # vectors W_out start at zero as in word2vec.
    W_in = (rng.random((n_words + 1, self.dim)) - 0.5) / self.dim
    W_in[pad_id] = 0.0
    W_out = np.zeros((n_words, self.dim))

    if n_examples == 0:
        return W_in[:n_words]

    neg_probs = self._negative_table(vocab)
    total_steps = self.epochs * int(np.ceil(n_examples / BATCH_SIZE))
    step = 0

    for _epoch in range(self.epochs):
        order = rng.permutation(n_examples)
        for start in range(0, n_examples, BATCH_SIZE):
            lr = LEARNING_RATE * max(1e-1, 1.0 - step / max(total_steps, 1))
            step += 1
            batch = order[start : start + BATCH_SIZE]
            ctx = contexts[batch]                       # (B, 2w)
            size = sizes[batch].astype(np.float64)      # (B,)
            tgt = targets[batch]                        # (B,)
            B = len(batch)

            # Mean of context vectors (pad rows are zero so the sum is fine).
            hidden = W_in[ctx].sum(axis=1) / size[:, None]   # (B, d)

            # One positive target plus NEGATIVE_SAMPLES negatives.
            negs = rng.choice(n_words, size=(B, NEGATIVE_SAMPLES), p=neg_probs)
            samples = np.concatenate([tgt[:, None], negs], axis=1)   # (B, 1+k)
            labels = np.zeros((B, 1 + NEGATIVE_SAMPLES))
            labels[:, 0] = 1.0

            out_vecs = W_out[samples]                   # (B, 1+k, d)
            scores = np.einsum("bkd,bd->bk", out_vecs, hidden)
            probs = self._sigmoid(scores)
            delta = probs - labels                      # (B, 1+k)

            grad_hidden = np.einsum("bk,bkd->bd", delta, out_vecs)
            grad_out = delta[:, :, None] * hidden[:, None, :]

            np.add.at(W_out, samples.ravel(), (-lr * grad_out).reshape(-1, self.dim))
            # Each context word receives grad_hidden / context_size.
            ctx_grad = (-lr) * grad_hidden / size[:, None]
            expanded = np.repeat(ctx_grad, ctx.shape[1], axis=0)
            np.add.at(W_in, ctx.ravel(), expanded)
            W_in[pad_id] = 0.0

    return W_in[:n_words]


def patch_sequential_cbow(monkeypatch, calls: Counter) -> None:
    """Route ``CBOWModel._train`` to :func:`sequential_cbow_train`, counting
    its calls under ``"cbow"``."""

    def reference(self, docs, vocab, rng):
        calls["cbow"] += 1
        return sequential_cbow_train(self, docs, vocab, rng)

    monkeypatch.setattr(CBOWModel, "_train", reference)
