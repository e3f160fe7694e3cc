"""A minimal reverse-mode automatic differentiation engine and NN layers.

The paper's downstream models (linear bag-of-words classifier, CNN sentence
classifier, BiLSTM tagger with optional CRF) are trained with PyTorch in the
original artifact.  Offline we build the substrate ourselves: a small
define-by-run autograd engine over NumPy arrays (:mod:`repro.nn.tensor`),
standard layers, recurrent layers, a linear-chain CRF, and optimisers.

The two hot paths of downstream training are fused graph nodes with
hand-written backward passes: :class:`LSTM`/:class:`BiLSTM` run one scan
node per call instead of a dozen tensors per step
(:mod:`repro.nn.recurrent`), and :func:`functional.cross_entropy` is one
node instead of the ``nll_loss(log_softmax(.))`` chain.  Both are
bit-identical to the per-op graphs they replace; :class:`LSTMCell` remains
the per-step op.  Layers, the cross-entropy and the optimisers also take a
leading model axis, on which the downstream models train in lockstep.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional
from repro.nn.layers import Dropout, Embedding, Linear, Module, ReLU, Sequential, Tanh
from repro.nn.recurrent import BiLSTM, LSTM, LSTMCell
from repro.nn.conv import Conv1d, max_over_time
from repro.nn.crf import LinearChainCRF
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.data import BatchIterator, pad_sequences

__all__ = [
    "Adam",
    "BatchIterator",
    "BiLSTM",
    "Conv1d",
    "Dropout",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "Linear",
    "LinearChainCRF",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Tanh",
    "Tensor",
    "functional",
    "max_over_time",
    "no_grad",
    "pad_sequences",
]
