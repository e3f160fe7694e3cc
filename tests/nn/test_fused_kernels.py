"""The fused LSTM scan and cross-entropy node against their per-op references.

Equality is bitwise (``np.array_equal``), not approximate: the fused nodes
evaluate the same numpy expressions as the unrolled autograd graph and
accumulate every gradient in the same order, so any difference is a bug.
Inputs, output gradients and logits are float32, the dtype the downstream
models train in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.recurrent import LSTM, BiLSTM
from repro.nn.tensor import Tensor, no_grad
from tests.nn.reference import per_op_cross_entropy, unrolled_bilstm, unrolled_lstm

F32 = np.float32


def _inputs(seed, seq_len, batch, dim, *, batch_major):
    """``(seq_len, batch, dim)`` float32 inputs; ``batch_major`` makes them a
    transposed view of a ``(batch, seq_len, dim)`` array, the layout the
    tagger feeds."""
    rng = np.random.default_rng(seed)
    if batch_major:
        return rng.standard_normal((batch, seq_len, dim), dtype=F32).transpose(1, 0, 2)
    return rng.standard_normal((seq_len, batch, dim), dtype=F32)


def _run(module, forward, data, out_grad, *, input_grad):
    """Output, loss, parameter grads and input grad of ``sum(forward * out_grad)``."""
    x = Tensor(data, requires_grad=input_grad)
    out = forward(x)
    loss = (out * Tensor(out_grad)).sum()
    module.zero_grad()
    loss.backward()
    return out.data, loss.data, [p.grad for p in module.parameters()], x.grad


def _assert_bitwise(fused, reference, *, input_grad):
    (out, loss, grads, x_grad), (ref_out, ref_loss, ref_grads, ref_x_grad) = fused, reference
    assert np.array_equal(out, ref_out)
    assert np.array_equal(loss, ref_loss)
    assert len(grads) == len(ref_grads)
    for grad, ref_grad in zip(grads, ref_grads):
        assert np.array_equal(grad, ref_grad)
    if input_grad:
        assert np.array_equal(x_grad, ref_x_grad)
    else:
        assert x_grad is None and ref_x_grad is None


def _check_bilstm(seq_len, batch, dim, half, *, input_grad, batch_major, seed=0):
    data = _inputs(seed, seq_len, batch, dim, batch_major=batch_major)
    out_grad = np.random.default_rng(seed + 1).standard_normal(
        (seq_len, batch, 2 * half), dtype=F32
    )
    bilstm = BiLSTM(dim, 2 * half, seed=seed)
    fused = _run(bilstm, bilstm, data, out_grad, input_grad=input_grad)
    reference = _run(
        bilstm, lambda x: unrolled_bilstm(bilstm, x), data, out_grad, input_grad=input_grad
    )
    _assert_bitwise(fused, reference, input_grad=input_grad)


def _check_lstm(seq_len, batch, dim, hidden, *, reverse, input_grad, seed=0):
    data = _inputs(seed, seq_len, batch, dim, batch_major=False)
    out_grad = np.random.default_rng(seed + 1).standard_normal((seq_len, batch, hidden), dtype=F32)
    lstm = LSTM(dim, hidden, seed=seed)
    fused = _run(lstm, lambda x: lstm(x, reverse=reverse), data, out_grad, input_grad=input_grad)
    reference = _run(
        lstm, lambda x: unrolled_lstm(lstm, x, reverse=reverse), data, out_grad,
        input_grad=input_grad,
    )
    _assert_bitwise(fused, reference, input_grad=input_grad)


class TestFusedBiLSTM:
    @pytest.mark.parametrize(
        "seq_len,batch,dim,half",
        # dim 1 makes the input-weight gradient a matrix-vector product, whose
        # rounding depends on the input vector's stride.
        [(1, 4, 5, 3), (6, 1, 7, 4), (1, 1, 3, 2), (9, 32, 12, 8), (14, 32, 8, 8), (2, 2, 1, 1)],
    )
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_bitwise_equal_to_unrolled_cells(self, seq_len, batch, dim, half, input_grad):
        _check_bilstm(seq_len, batch, dim, half, input_grad=input_grad, batch_major=True)

    @settings(max_examples=40, deadline=None)
    @given(
        seq_len=st.integers(1, 12),
        batch=st.integers(1, 24),
        dim=st.integers(1, 40).filter(lambda d: d not in (8, 16, 32)),
        half=st.integers(1, 12),
        input_grad=st.booleans(),
        batch_major=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_over_shapes(
        self, seq_len, batch, dim, half, input_grad, batch_major, seed
    ):
        _check_bilstm(
            seq_len, batch, dim, half, input_grad=input_grad, batch_major=batch_major, seed=seed
        )

    def test_no_grad_output_has_no_graph(self, rng):
        bilstm = BiLSTM(5, 6, seed=0)
        with no_grad():
            out = bilstm(Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True))
        assert not out.requires_grad
        assert out._prev == () and out._backward is None

    def test_frozen_inputs_and_parameters_build_no_graph(self, rng):
        bilstm = BiLSTM(5, 6, seed=0)
        for param in bilstm.parameters():
            param.requires_grad = False
        out = bilstm(Tensor(rng.standard_normal((4, 3, 5))))
        assert not out.requires_grad and out._prev == ()


class TestFusedLSTM:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("input_grad", [False, True])
    @pytest.mark.parametrize("seq_len,batch,dim,hidden", [(1, 1, 3, 2), (7, 5, 11, 6)])
    def test_bitwise_equal_to_unrolled_cells(
        self, seq_len, batch, dim, hidden, reverse, input_grad
    ):
        _check_lstm(seq_len, batch, dim, hidden, reverse=reverse, input_grad=input_grad)

    @settings(max_examples=25, deadline=None)
    @given(
        seq_len=st.integers(1, 10),
        batch=st.integers(1, 16),
        dim=st.integers(1, 20),
        hidden=st.integers(1, 10),
        reverse=st.booleans(),
        input_grad=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_over_shapes(
        self, seq_len, batch, dim, hidden, reverse, input_grad, seed
    ):
        _check_lstm(
            seq_len, batch, dim, hidden, reverse=reverse, input_grad=input_grad, seed=seed
        )

    def test_no_grad_output_has_no_graph(self, rng):
        lstm = LSTM(3, 4, seed=0)
        with no_grad():
            out = lstm(Tensor(rng.standard_normal((5, 2, 3))), reverse=True)
        assert out._prev == () and not out.requires_grad


def _check_cross_entropy(logits, targets, upstream=1.0):
    results = []
    for loss_fn in (F.cross_entropy, per_op_cross_entropy):
        x = Tensor(logits, requires_grad=True)
        loss = loss_fn(x, targets)
        (loss * upstream).backward()
        results.append((loss.data, x.grad))
    (loss, grad), (ref_loss, ref_grad) = results
    assert np.array_equal(loss, ref_loss)
    assert np.array_equal(grad, ref_grad)


class TestFusedCrossEntropy:
    @pytest.mark.parametrize(
        "logits,targets",
        [
            (np.array([[0.3, -1.2]], F32), np.array([1])),
            (np.array([[1e3, -1e3], [-1e3, 1e3], [1e3, 1e3]], F32), np.array([1, 1, 0])),
            (np.array([[-1e3, 0.5, 1e3, -2.0]], F32), np.array([0])),
        ],
        ids=["n1-c2", "saturated", "clipped-exp"],
    )
    def test_bitwise_equal_to_nll_of_log_softmax(self, logits, targets):
        _check_cross_entropy(logits, targets)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        classes=st.integers(2, 9),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
        upstream=st.sampled_from([1.0, 0.5, -2.25]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_equal_over_shapes(self, n, classes, scale, upstream, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((n, classes), dtype=F32) * scale
        _check_cross_entropy(logits, rng.integers(0, classes, n), upstream)

    def test_is_one_graph_node(self, rng):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        loss = F.cross_entropy(x, np.array([0, 1, 2, 0, 1]))
        assert loss._prev == (x,)

    def test_no_grad_builds_no_graph(self, rng):
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        with no_grad():
            loss = F.cross_entropy(x, np.array([0, 1, 2, 0, 1]))
        assert not loss.requires_grad and loss._prev == ()


class TestModelAxis:
    """A layer with ``models=M`` equals ``M`` single layers, slice by slice."""

    @pytest.mark.parametrize(
        "seq_len,batch,dim,half,models",
        [(1, 1, 3, 2, 1), (6, 1, 7, 4, 3), (9, 5, 12, 3, 4), (14, 32, 8, 8, 10)],
    )
    @pytest.mark.parametrize("input_grad", [False, True])
    def test_stacked_bilstm_equals_single_bilstms(
        self, seq_len, batch, dim, half, models, input_grad
    ):
        rng = np.random.default_rng(seq_len + batch)
        stacked = BiLSTM(dim, 2 * half, seed=3, models=models)
        for param in stacked.parameters():  # make the models differ
            param.data = param.data + 0.1 * rng.standard_normal(param.shape, dtype=F32)
        data = rng.standard_normal((batch, seq_len, models, dim), dtype=F32).transpose(1, 2, 0, 3)
        out_grad = rng.standard_normal((seq_len, models, batch, 2 * half), dtype=F32)
        out, _, grads, x_grad = _run(stacked, stacked, data, out_grad, input_grad=input_grad)
        for m in range(models):
            single = BiLSTM(dim, 2 * half, seed=3)
            for param, stacked_param in zip(single.parameters(), stacked.parameters()):
                param.data = stacked_param.data[m].reshape(param.shape).copy()
            ref_out, _, ref_grads, ref_x_grad = _run(
                single, single, data[:, m], out_grad[:, m], input_grad=input_grad
            )
            assert np.array_equal(out[:, m], ref_out)
            for grad, ref_grad in zip(grads, ref_grads):
                assert np.array_equal(grad[m].reshape(ref_grad.shape), ref_grad)
            if input_grad:
                assert np.array_equal(x_grad[:, m], ref_x_grad)

    def test_stacked_cells_step_like_the_fused_scan(self, rng):
        stacked = BiLSTM(5, 6, seed=1, models=3)
        data = rng.standard_normal((4, 3, 2, 5), dtype=F32)
        out_grad = rng.standard_normal((4, 3, 2, 6), dtype=F32)
        fused = _run(stacked, stacked, data, out_grad, input_grad=True)
        reference = _run(
            stacked, lambda x: unrolled_bilstm(stacked, x), data, out_grad, input_grad=True
        )
        _assert_bitwise(fused, reference, input_grad=True)

    @settings(max_examples=40, deadline=None)
    @given(
        models=st.integers(1, 10),
        n=st.integers(1, 64),
        classes=st.integers(2, 9),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_cross_entropy_equals_one_per_model(self, models, n, classes, scale, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((models, n, classes), dtype=F32) * scale
        targets = rng.integers(0, classes, n)
        upstream = rng.standard_normal(models, dtype=F32)
        x = Tensor(logits, requires_grad=True)
        loss = F.cross_entropy(x, targets)
        assert loss.shape == (models,)
        loss.backward(upstream)
        for m in range(models):
            single = Tensor(logits[m], requires_grad=True)
            single_loss = F.cross_entropy(single, targets)
            single_loss.backward(upstream[m])
            assert np.array_equal(loss.data[m], single_loss.data)
            assert np.array_equal(x.grad[m], single.grad)
