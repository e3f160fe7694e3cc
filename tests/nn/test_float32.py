"""The engine's dtype rule, and a log floor that survives float32."""

import warnings

import numpy as np
import pytest

from repro.nn.tensor import Tensor


class TestDtypeRule:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_arrays_keep_their_dtype(self, dtype):
        data = np.ones(3, dtype=dtype)
        assert Tensor(data).data.dtype == dtype
        assert Tensor(data[0]).data.dtype == dtype

    @pytest.mark.parametrize(
        "value", [[1.0, 2.0], 3.5, 2, np.arange(3), np.ones(2, dtype=bool), np.ones(2, np.float16)]
    )
    def test_anything_else_is_float32(self, value):
        assert Tensor(value).data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_numbers_take_the_tensor_dtype(self, dtype):
        x = Tensor(np.full(2, 3.0, dtype=dtype), requires_grad=True)
        y = (0.1 * x + 1.0 - x / 3.0) / 7.0 + (1.0 - x) + 2.0 / x
        assert y.data.dtype == dtype
        expected = (0.1 * x.data + 1.0 - x.data / 3.0) / 7.0 + (1.0 - x.data) + 2.0 / x.data
        assert np.array_equal(y.data, expected)
        y.sum().backward()
        assert x.grad.dtype == dtype


class TestFloorsInFloat32:
    def test_log_of_zero_is_finite_and_silent(self):
        x = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = x.log()
            out.sum().backward()
        assert out.data.dtype == np.float32
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, np.log(np.finfo(np.float32).tiny))  # about -87.3
        assert np.all(np.isfinite(x.grad))
