"""Linear-chain conditional random field for sequence tagging.

The paper's full NER model is a BiLSTM-CRF (Akbik et al., 2018); the main
experiments disable the CRF for efficiency and Appendix E.2 re-enables it on a
subset.  The CRF here provides the negative log-likelihood (forward algorithm)
as an autograd-friendly loss and Viterbi decoding for prediction.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import check_random_state

__all__ = ["LinearChainCRF"]


def _init_scores(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(0, 0.1, size=shape).astype(np.float32)


def _logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    return (x - shift).exp().sum(axis=axis, keepdims=True).log() + shift


class LinearChainCRF(Module):
    """Linear-chain CRF over per-token emission scores.

    Parameters
    ----------
    num_tags:
        Number of output tags.
    seed:
        Initialisation seed of the transition matrix.
    """

    def __init__(self, num_tags: int, *, seed: int = 0):
        super().__init__()
        if num_tags < 1:
            raise ValueError("num_tags must be >= 1")
        rng = check_random_state(seed)
        self.num_tags = int(num_tags)
        self.transitions = Tensor(_init_scores(rng, (num_tags, num_tags)), requires_grad=True)
        self.start_scores = Tensor(_init_scores(rng, num_tags), requires_grad=True)
        self.end_scores = Tensor(_init_scores(rng, num_tags), requires_grad=True)

    # -- training ------------------------------------------------------------

    def _score_sequence(self, emissions: Tensor, tags: np.ndarray) -> Tensor:
        """Unnormalised score of a specific tag sequence."""
        tags = np.asarray(tags, dtype=np.int64)
        seq_len = emissions.shape[0]
        score = self.start_scores[tags[0]] + emissions[0, tags[0]]
        for t in range(1, seq_len):
            score = score + self.transitions[tags[t - 1], tags[t]] + emissions[t, tags[t]]
        return score + self.end_scores[tags[-1]]

    def _partition(self, emissions: Tensor) -> Tensor:
        """Log partition function via the forward algorithm."""
        seq_len = emissions.shape[0]
        alpha = self.start_scores + emissions[0]                     # (T,)
        for t in range(1, seq_len):
            # alpha_j = logsumexp_i(alpha_i + trans_ij) + emit_tj
            scores = alpha.reshape(self.num_tags, 1) + self.transitions
            alpha = _logsumexp(scores, axis=0).reshape(self.num_tags) + emissions[t]
        alpha = alpha + self.end_scores
        return _logsumexp(alpha.reshape(1, self.num_tags), axis=1).reshape(())

    def neg_log_likelihood(self, emissions: Tensor, tags: np.ndarray) -> Tensor:
        """Negative log-likelihood of ``tags`` given ``(seq_len, num_tags)`` emissions."""
        if emissions.shape[0] != len(tags):
            raise ValueError("emissions and tags must have equal length")
        return self._partition(emissions) - self._score_sequence(emissions, tags)

    # -- decoding ------------------------------------------------------------

    def viterbi_decode(self, emissions: Tensor | np.ndarray) -> np.ndarray:
        """Most likely tag sequence (plain NumPy; no gradients needed)."""
        scores = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)
        seq_len, num_tags = scores.shape
        trans = self.transitions.data
        viterbi = self.start_scores.data + scores[0]
        backpointers = np.zeros((seq_len, num_tags), dtype=np.int64)
        for t in range(1, seq_len):
            candidate = viterbi[:, None] + trans        # (prev, cur)
            backpointers[t] = np.argmax(candidate, axis=0)
            viterbi = candidate[backpointers[t], np.arange(num_tags)] + scores[t]
        viterbi = viterbi + self.end_scores.data
        best_last = int(np.argmax(viterbi))
        path = [best_last]
        for t in range(seq_len - 1, 0, -1):
            path.append(int(backpointers[t, path[-1]]))
        return np.asarray(path[::-1], dtype=np.int64)

    # -- convenience ------------------------------------------------------------

    def marginal_predictions(self, emissions: Tensor | np.ndarray) -> np.ndarray:
        """Greedy per-token argmax (used when the CRF layer is disabled)."""
        scores = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)
        return np.argmax(scores, axis=-1)

    @staticmethod
    def emission_argmax(emissions: Tensor | np.ndarray) -> np.ndarray:
        scores = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions)
        return np.argmax(scores, axis=-1)

    def forward(self, emissions: Tensor, tags: np.ndarray) -> Tensor:
        return self.neg_log_likelihood(emissions, tags)
