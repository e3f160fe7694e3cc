"""1-D convolution over token sequences (for the CNN sentence classifier).

Appendix E.2 of the paper checks that the stability-memory tradeoff survives
with a more complex downstream model: a Kim (2014)-style CNN with kernel
widths {3, 4, 5}, 100 output channels, ReLU, and max-over-time pooling.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Module, _init_weight
from repro.nn.tensor import Tensor
from repro.utils.rng import check_random_state

__all__ = ["Conv1d", "max_over_time"]


class Conv1d(Module):
    """Valid-mode 1-D convolution over a ``(seq_len, dim)`` input.

    Implemented as an unfold ("im2col") followed by a matmul so the autograd
    engine only has to differentiate indexing and matrix multiplication.
    """

    def __init__(self, in_dim: int, out_channels: int, kernel_width: int, *, seed: int = 0):
        super().__init__()
        if kernel_width < 1:
            raise ValueError("kernel_width must be >= 1")
        rng = check_random_state(seed)
        self.in_dim = int(in_dim)
        self.out_channels = int(out_channels)
        self.kernel_width = int(kernel_width)
        self.weight = Tensor(
            _init_weight(rng, kernel_width * in_dim, out_channels), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        """Convolve ``x`` of shape ``(seq_len, in_dim)`` -> ``(windows, out_channels)``.

        Sequences shorter than the kernel are implicitly zero-padded on the
        right so at least one window exists.
        """
        seq_len = x.shape[0]
        k = self.kernel_width
        if seq_len < k:
            pad = Tensor(np.zeros((k - seq_len, self.in_dim), dtype=np.float32))
            x = Tensor.concatenate([x, pad], axis=0)
            seq_len = k
        n_windows = seq_len - k + 1
        # Unfold into (n_windows, k * in_dim) with an index-based gather so the
        # gradient flows back through Tensor.__getitem__.
        window_rows = np.arange(n_windows)[:, None] + np.arange(k)[None, :]
        unfolded = x[window_rows.ravel()].reshape(n_windows, k * self.in_dim)
        return unfolded @ self.weight + self.bias


def max_over_time(features: Tensor) -> Tensor:
    """Max-pool a ``(windows, channels)`` feature map over the window axis."""
    return features.max(axis=0)
