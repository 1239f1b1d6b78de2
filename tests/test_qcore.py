import math

import numpy as np
import pytest

from lpyolo.qcore import ACT_DTYPE, FloatTensor, QuantParams, QuantTensor


class TestQuantParams:
    def test_signed_ranges(self):
        p = QuantParams(bits=4, signed=True, scale=1.0)
        assert (p.qmin, p.qmax) == (-8, 7)
        p8 = QuantParams(bits=8, signed=True, scale=1.0)
        assert (p8.qmin, p8.qmax) == (-128, 127)

    def test_unsigned_ranges(self):
        p = QuantParams(bits=1, signed=False, scale=1.0)
        assert (p.qmin, p.qmax) == (0, 1)
        p8 = QuantParams(bits=8, signed=False, scale=1.0)
        assert (p8.qmin, p8.qmax) == (0, 255)

    def test_bad_bits(self):
        for bits in (0, 9, -1):
            with pytest.raises(ValueError):
                QuantParams(bits=bits, signed=False, scale=1.0)

    def test_bad_scale(self):
        for s in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                QuantParams(bits=8, signed=False, scale=s)


class TestTensors:
    def test_shape_data_mismatch(self):
        p = QuantParams(bits=8, signed=False, scale=1.0)
        with pytest.raises(ValueError):
            QuantTensor(shape=(2, 2, 1), data=np.zeros(3, dtype=np.int32), params=p)

    def test_range_enforced(self):
        p = QuantParams(bits=2, signed=False, scale=1.0)
        with pytest.raises(ValueError, match="lattice range"):
            QuantTensor(shape=(1, 1, 1), data=np.array([4], dtype=ACT_DTYPE), params=p)
        # from_grid checks before narrowing, so neither value can wrap into range
        for v in (4, -1, 256 + 3, -256 + 2):
            with pytest.raises(ValueError, match="lattice range"):
                QuantTensor.from_grid(np.array([[[v]]]), p)

    def test_rejects_float_data(self):
        p = QuantParams(bits=8, signed=False, scale=1.0)
        with pytest.raises(ValueError):
            QuantTensor(shape=(1, 1, 1), data=np.array([1.0]), params=p)

    def test_rejects_wider_integer_data(self):
        # one in-memory format: activations are ACT_DTYPE, never int32
        p = QuantParams(bits=8, signed=False, scale=1.0)
        with pytest.raises(ValueError, match="expected uint8"):
            QuantTensor(shape=(1, 1, 1), data=np.array([1], dtype=np.int32), params=p)

    def test_grid_round_trip(self):
        p = QuantParams(bits=8, signed=False, scale=1.0)
        g = np.arange(24, dtype=np.int32).reshape(2, 3, 4)
        t = QuantTensor.from_grid(g, p)
        assert t.shape == (2, 3, 4)
        assert t.data.dtype == ACT_DTYPE
        assert np.array_equal(t.grid(), g)

    def test_float_tensor_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FloatTensor.from_grid(np.array([[[np.inf]]]))
