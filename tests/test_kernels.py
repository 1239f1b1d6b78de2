import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpyolo import kernels
from lpyolo.kernels import (
    ACC_LIMIT,
    ConvWeights,
    RequantSpec,
    acc_plan,
    conv2d_acc,
    conv2d_real,
    maxpool,
    maxpool_grid,
    requantize,
    rescaled_hardtanh,
    sigmoid,
)
from lpyolo.qcore import QuantParams, QuantTensor

from oracles import random_layer, seven_loop_conv


def _u8(scale=1.0):
    return QuantParams(bits=8, signed=False, scale=scale)


def _wp(bits=8, scale=1.0):
    return QuantParams(bits=bits, signed=True, scale=scale)


class TestActivations:
    def test_sigmoid_values(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert sigmoid(np.array(50.0)) == pytest.approx(1.0)
        assert sigmoid(np.array(-50.0)) == pytest.approx(0.0, abs=1e-20)

    def test_sigmoid_complement(self):
        x = np.linspace(-20, 20, 401)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_hardtanh_values(self):
        x = np.array([-5.0, -2.0, 0.0, 2.0, 5.0])
        assert np.array_equal(rescaled_hardtanh(x), [0.0, 0.0, 0.5, 1.0, 1.0])
        assert rescaled_hardtanh(np.array(1.0)) == 0.75

    def test_hardtanh_tracks_sigmoid(self):
        x = np.linspace(-10, 10, 5001)
        gap = np.abs(rescaled_hardtanh(x) - sigmoid(x))
        assert gap.max() < 0.12
        # the worst case sits exactly at the saturation knees
        assert gap.max() == pytest.approx(1.0 - sigmoid(np.array(2.0)), abs=1e-9)


class TestConvWeights:
    def test_validates_range(self):
        w = np.full((1, 1, 3, 3), 10, dtype=np.int32)
        with pytest.raises(ValueError):
            ConvWeights(weights=w, w_params=_wp(bits=4))

    def test_rejects_even_kernel(self):
        w = np.zeros((1, 1, 2, 2), dtype=np.int32)
        with pytest.raises(ValueError):
            ConvWeights(weights=w, w_params=_wp())

    def test_rejects_bias_length_mismatch(self):
        w = np.zeros((2, 1, 1, 1), dtype=np.int32)
        with pytest.raises(ValueError):
            ConvWeights(weights=w, w_params=_wp(), bias=np.zeros(3, dtype=np.int32))

    def test_properties(self):
        w = np.zeros((5, 3, 3, 3), dtype=np.int32)
        cw = ConvWeights(weights=w, w_params=_wp())
        assert (cw.out_channels, cw.in_channels, cw.kernel) == (5, 3, 3)

    def test_accumulator_bound_terms(self):
        w = np.array([[1, -2, 3], [-4, 0, 4]], dtype=np.int32).reshape(2, 3, 1, 1)
        bias = np.array([-9, 7], dtype=np.int32)
        cw = ConvWeights(weights=w, w_params=_wp(), bias=bias)
        assert (cw.l1_max, cw.bias_max) == (8, 9)
        assert ConvWeights(weights=w, w_params=_wp()).bias_max == 0

    def test_rejects_most_negative_int32_bias(self):
        # |-2^31| wraps to -2^31 in int32, which once slipped past the check
        w = np.zeros((1, 1, 1, 1), dtype=np.int32)
        bias = np.array([-(1 << 31)], dtype=np.int32)
        with pytest.raises(ValueError, match="32-bit"):
            ConvWeights(weights=w, w_params=_wp(), bias=bias)

    def test_callers_later_bias_write_does_not_reach_the_conv(self):
        # planned float32 for a zero bias; 2^24 + 1 is the first integer
        # float32 cannot hold, so a shared bias array would break exactness
        bias = np.zeros(1, dtype=np.int32)
        cw = ConvWeights(weights=np.ones((1, 1, 1, 1), dtype=np.int32), w_params=_wp(),
                         bias=bias)
        bias[0] = (1 << 24) + 1
        x = QuantTensor.from_grid(np.full((1, 1, 1), 255, dtype=np.int32), _u8())
        acc = conv2d_acc(x, cw)
        assert acc.dtype == np.float32 and acc[0, 0, 0] == 255


class TestConv:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = QuantTensor.from_grid(
            rng.integers(0, 256, size=(7, 5, 3)).astype(np.int32), _u8()
        )
        w = np.zeros((3, 3, 1, 1), dtype=np.int32)
        for c in range(3):
            w[c, c, 0, 0] = 1
        acc = conv2d_acc(x, ConvWeights(weights=w, w_params=_wp()))
        assert np.array_equal(acc, x.grid())

    def test_zero_input_bias_broadcast(self):
        x = QuantTensor.from_grid(np.zeros((4, 4, 2), dtype=np.int32), _u8())
        w = np.ones((3, 2, 3, 3), dtype=np.int32)
        bias = np.array([5, -7, 11], dtype=np.int32)
        acc = conv2d_acc(x, ConvWeights(weights=w, w_params=_wp(), bias=bias))
        assert np.array_equal(acc, np.broadcast_to(bias, (4, 4, 3)))

    def test_channel_mismatch(self):
        x = QuantTensor.from_grid(np.zeros((4, 4, 2), dtype=np.int32), _u8())
        w = np.zeros((1, 3, 3, 3), dtype=np.int32)
        with pytest.raises(ValueError):
            conv2d_acc(x, ConvWeights(weights=w, w_params=_wp()))

    def test_matches_seven_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 5))
            h, wd = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            k = int(rng.choice([1, 3]))
            x = QuantTensor.from_grid(
                rng.integers(0, 256, size=(h, wd, cin)).astype(np.int32), _u8()
            )
            w = rng.integers(-128, 128, size=(cout, cin, k, k)).astype(np.int32)
            bias = rng.integers(-500, 500, size=cout).astype(np.int32)
            cw = ConvWeights(weights=w, w_params=_wp(), bias=bias)
            assert np.array_equal(
                conv2d_acc(x, cw), seven_loop_conv(x.grid(), w, bias)
            )

    def test_real_conv_matches_integer_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, cw, _ = random_layer(rng, wbits=8, abits=8)
            acc_i = conv2d_acc(x, cw)
            acc_f = conv2d_real(x.grid().astype(np.float64), cw.weights, cw.bias)
            assert np.array_equal(acc_i, acc_f.astype(np.int64))
            assert np.array_equal(acc_i.astype(np.float64), acc_f)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        w = rng.integers(-8, 8, size=(4, 3, 3, 3)).astype(np.int32)
        cw = ConvWeights(weights=w, w_params=_wp(bits=5))
        a = rng.integers(0, 100, size=(6, 6, 3)).astype(np.int32)
        b = rng.integers(0, 100, size=(6, 6, 3)).astype(np.int32)
        p = _u8()
        acc_sum = conv2d_acc(QuantTensor.from_grid(a + b, p), cw)
        acc_a = conv2d_acc(QuantTensor.from_grid(a, p), cw)
        acc_b = conv2d_acc(QuantTensor.from_grid(b, p), cw)
        assert np.array_equal(acc_sum, acc_a + acc_b)

    def test_overflow_guard(self):
        # a bias pushing the largest window sum to exactly 2^31 must trip it
        x = QuantTensor.from_grid(np.full((8, 8, 3), 255, dtype=np.int32), _u8())
        w = np.full((1, 3, 3, 3), 127, dtype=np.int32)
        bias = np.array([ACC_LIMIT - 255 * 127 * 27], dtype=np.int32)
        with pytest.raises(ValueError, match="overflow"):
            conv2d_acc(x, ConvWeights(weights=w, w_params=_wp(), bias=bias))

    @settings(max_examples=60, deadline=None)
    @given(
        wbits=st.integers(2, 8),
        abits=st.integers(1, 8),
        k=st.sampled_from([1, 3]),
        cin=st.integers(1, 4),
        cout=st.integers(1, 3),
        h=st.integers(1, 6),
        wd=st.integers(1, 6),
        pool_stride=st.sampled_from([None, 1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_for_every_bit_config(
        self, wbits, abits, k, cin, cout, h, wd, pool_stride, seed
    ):
        if pool_stride == 2:
            h, wd = h + h % 2, wd + wd % 2
        rng = np.random.default_rng(seed)
        wp, ap = _wp(bits=wbits), QuantParams(bits=abits, signed=False, scale=1.0)
        x = QuantTensor.from_grid(
            rng.integers(0, ap.qmax + 1, size=(h, wd, cin)).astype(np.int32), ap
        )
        w = rng.integers(wp.qmin, wp.qmax + 1, size=(cout, cin, k, k)).astype(np.int32)
        bias = rng.integers(-1000, 1001, size=cout).astype(np.int32)
        cw = ConvWeights(weights=w, w_params=wp, bias=bias)
        want = seven_loop_conv(x.grid(), w, bias)
        if pool_stride is not None:
            want = maxpool_grid(want, pool_stride)
        assert np.array_equal(conv2d_acc(x, cw, pool_stride=pool_stride), want)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "bound, dtype",
        [((1 << 24) - 1, np.float32), (1 << 24, np.float64), ((1 << 24) + 1, np.float64),
         ((1 << 31) - 1, np.float64)],
    )
    def test_dtype_boundary_worst_case(self, k, bound, dtype):
        _check_worst_case(k, bound, dtype)

    @pytest.mark.parametrize("h, wd", [(5, 6), (6, 5), (1, 1)])
    def test_odd_dims_under_stride_2_pool_rejected_first(self, h, wd, monkeypatch):
        x, cw = _conv_case(np.random.default_rng(2), h, wd)
        monkeypatch.setattr(np, "matmul", _no_matmul)
        with pytest.raises(ValueError, match="even"):
            conv2d_acc(x, cw, pool_stride=2)

    @pytest.mark.parametrize("stride", [0, 3, 4, -2, 2.5])
    def test_bad_pool_stride_rejected_first(self, stride, monkeypatch):
        x, cw = _conv_case(np.random.default_rng(3), 4, 4)
        monkeypatch.setattr(np, "matmul", _no_matmul)
        with pytest.raises(ValueError, match="stride"):
            conv2d_acc(x, cw, pool_stride=stride)

    def test_bound_past_guard_raises(self):
        # the bound admits 2^31, so the layer is refused although this
        # input's accumulator would stay below it: the guard is the bound
        x = QuantTensor.from_grid(np.zeros((3, 3, 1), dtype=np.int32), _u8())
        w = np.ones((1, 1, 3, 3), dtype=np.int32)
        bias = np.array([ACC_LIMIT - 1], dtype=np.int32)
        cw = ConvWeights(weights=w, w_params=_wp(), bias=bias)
        with pytest.raises(ValueError, match=r"2\^31"):
            acc_plan(x.params, cw)
        with pytest.raises(ValueError, match=r"2\^31"):
            conv2d_acc(x, cw)

    def test_plan_rejects_bound_past_float64(self):
        w = np.full((1, 1, 1, 1), -128, dtype=np.int32)
        cw = ConvWeights(weights=w, w_params=_wp())
        assert acc_plan(_u8(), cw) == (255 * 128, np.dtype(np.float32))
        # no filter bank that fits in memory gets near 2^53, so forge the norm
        object.__setattr__(cw, "l1_max", (1 << 53) // 255 + 1)
        with pytest.raises(ValueError, match=r"2\^31"):
            acc_plan(_u8(), cw)


class TestRequantize:
    def test_relu_examples(self):
        spec = RequantSpec(
            in_scale=0.5, w_scale=0.25, out_scale=0.125, out_bits=4, activation="relu"
        )
        acc = np.array([[[0, 1, -3, 100]]], dtype=np.int64)
        out = requantize(acc, spec)
        # M = 0.5*0.25/0.125 = 1.0
        assert out.data.tolist() == [0, 1, 0, 15]
        assert out.params == QuantParams(bits=4, signed=False, scale=0.125)
        # M = 0.5*0.25/0.25 = 0.5 puts every odd accumulator on a tie:
        # 0.5, 1.5 and 2.5 round to the even neighbour
        spec = RequantSpec(
            in_scale=0.5, w_scale=0.25, out_scale=0.25, out_bits=4, activation="relu"
        )
        ties = requantize(np.array([[[1, 3, 5]]], dtype=np.int64), spec)
        assert ties.data.tolist() == [0, 2, 2]

    def test_hardtanh_zero_maps_to_midpoint(self):
        spec = RequantSpec(
            in_scale=1.0,
            w_scale=1.0,
            out_scale=1.0 / 255.0,
            out_bits=8,
            activation="rescaled_hardtanh",
        )
        out = requantize(np.zeros((2, 2, 3), dtype=np.int64), spec)
        assert np.all(out.data == 128)  # 127.5 rounds half-even to 128

    def test_hardtanh_saturates(self):
        spec = RequantSpec(
            in_scale=1.0,
            w_scale=1.0,
            out_scale=1.0 / 255.0,
            out_bits=8,
            activation="rescaled_hardtanh",
        )
        out = requantize(np.array([[[-1000, 1000]]], dtype=np.int64), spec)
        assert out.data.tolist() == [0, 255]

    def test_hardtanh_requires_pinned_scale(self):
        with pytest.raises(ValueError):
            RequantSpec(
                in_scale=1.0,
                w_scale=1.0,
                out_scale=0.01,
                out_bits=8,
                activation="rescaled_hardtanh",
            )

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            RequantSpec(
                in_scale=1.0, w_scale=1.0, out_scale=1.0, out_bits=8, activation="gelu"
            )

    def test_relu_clamp_equals_pre_activation(self):
        # clamping after the round is the same as relu before it
        rng = np.random.default_rng(9)
        spec = RequantSpec(
            in_scale=0.03, w_scale=0.07, out_scale=0.11, out_bits=6, activation="relu"
        )
        acc = rng.integers(-(10**6), 10**6, size=(5, 5, 4))
        out = requantize(acc, spec)
        pre = np.maximum(acc, 0).astype(np.float64) * spec.multiplier()
        ref = np.clip(np.rint(pre), 0, 63).astype(np.int32)
        assert np.array_equal(out.grid(), ref)

    def test_int_and_float_accumulators_agree(self):
        rng = np.random.default_rng(13)
        spec = RequantSpec(
            in_scale=0.5, w_scale=0.02, out_scale=0.4, out_bits=3, activation="relu"
        )
        acc = rng.integers(-(10**9), 10**9, size=(3, 3, 2))
        a = requantize(acc, spec)
        b = requantize(acc.astype(np.float64), spec)
        assert np.array_equal(a.data, b.data)


class TestMaxPool:
    def test_stride2_example(self):
        g = np.array([[1, 2], [3, 4]], dtype=np.int32).reshape(2, 2, 1)
        out = maxpool_grid(g, stride=2)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4

    def test_stride2_blocks(self):
        g = np.arange(32, dtype=np.int32).reshape(4, 4, 2)
        out = maxpool_grid(g, stride=2)
        assert out.shape == (2, 2, 2)
        # each output is the max of its own 2x2 block, channel-wise
        for by in range(2):
            for bx in range(2):
                blk = g[2 * by : 2 * by + 2, 2 * bx : 2 * bx + 2]
                assert np.array_equal(out[by, bx], blk.max(axis=(0, 1)))

    def test_stride2_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            maxpool_grid(np.zeros((3, 4, 1), dtype=np.int32), stride=2)

    def test_stride1_shape_preserved(self):
        g = np.arange(9, dtype=np.int32).reshape(3, 3, 1)
        out = maxpool_grid(g, stride=1)
        assert out.shape == (3, 3, 1)
        assert np.array_equal(
            out[:, :, 0], np.array([[4, 5, 5], [7, 8, 8], [7, 8, 8]])
        )

    def test_stride1_padding_never_wins(self):
        g = np.full((4, 4, 1), -5, dtype=np.int32)
        out = maxpool_grid(g, stride=1)
        assert np.all(out == -5)

    @pytest.mark.parametrize("shape", [(2, 2, 1), (1, 5, 2), (4, 1, 1), (5, 6, 3)])
    def test_stride1_edge_window_takes_max_of_what_it_covers(self, shape):
        # all negative, so a zero standing in for the missing row or column
        # would win at the bottom and right edges
        g = np.random.default_rng(19).integers(-100, 0, size=shape).astype(np.int32)
        before = g.copy()
        out = maxpool_grid(g, stride=1)
        h, w, _c = shape
        want = [[g[y : y + 2, x : x + 2].max(axis=(0, 1)) for x in range(w)] for y in range(h)]
        assert out.dtype == g.dtype
        assert np.array_equal(out, np.array(want))
        assert np.array_equal(g, before)

    def test_stride1_matches_naive(self):
        rng = np.random.default_rng(17)
        g = rng.integers(0, 16, size=(6, 7, 3)).astype(np.int32)
        out = maxpool_grid(g, stride=1)
        h, w, c = g.shape
        for y in range(h):
            for x in range(w):
                vals = g[y : min(y + 2, h), x : min(x + 2, w)]
                assert np.array_equal(out[y, x], vals.max(axis=(0, 1)))

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            maxpool_grid(np.zeros((2, 2, 1), dtype=np.int32), stride=3)

    def test_tensor_wrapper_keeps_params(self):
        p = QuantParams(bits=4, signed=False, scale=0.25)
        t = QuantTensor.from_grid(
            np.arange(16, dtype=np.int32).reshape(4, 4, 1) % 16, p
        )
        out = maxpool(t, stride=2)
        assert out.params == p
        assert out.shape == (2, 2, 1)


class TestPoolBeforeRequantize:
    """conv2d_acc pools the raw accumulator and forward requantizes after;
    the reference order requantizes first and pools the lattice."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_pooling_the_lattice(self, data):
        activation = data.draw(st.sampled_from(["relu", "rescaled_hardtanh"]))
        bits = data.draw(st.integers(1, 8))
        stride = data.draw(st.sampled_from([1, 2]))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        # power-of-two scales make acc * M exact, so ties at n + 1/2 occur
        in_scale = 2.0 ** data.draw(st.integers(-6, 0))
        w_scale = 2.0 ** data.draw(st.integers(-6, 0))
        if activation == "relu":
            out_scale = 2.0 ** data.draw(st.integers(-6, 0))
        else:
            out_scale = 1.0 / ((1 << bits) - 1)
        spec = RequantSpec(in_scale, w_scale, out_scale, bits, activation)
        m, off, qmax = spec.multiplier(), spec.offset(), spec.out_params.qmax
        # accumulators whose image acc * M + off lands on a tie n + 1/2, or
        # on and around the clamp edges 0 and qmax
        targets = [n + 0.5 for n in range(-2, qmax + 2)] + [0.0, float(qmax)]
        special = [
            float(np.floor((t - off) / m) + d) for t in targets for d in (-1, 0, 1)
        ]
        special = [v for v in special if abs(v) < 1 << 24]
        values = st.one_of(st.integers(-(1 << 20), 1 << 20), st.sampled_from(special))
        h = data.draw(st.integers(1, 4)) * stride
        w = data.draw(st.integers(1, 4)) * stride
        c = data.draw(st.integers(1, 3))
        acc = np.array(
            data.draw(st.lists(values, min_size=h * w * c, max_size=h * w * c)),
            dtype=dtype,
        ).reshape(h, w, c)
        fused = requantize(maxpool_grid(acc, stride), spec)
        reference = maxpool(requantize(acc, spec), stride)
        assert fused.params == reference.params
        assert fused.shape == reference.shape
        assert np.array_equal(fused.data, reference.data)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_pool_stride_pools_the_accumulator(self, stride):
        rng = np.random.default_rng(21)
        x = QuantTensor.from_grid(rng.integers(0, 256, (6, 8, 3)).astype(np.int32), _u8())
        w = rng.integers(-128, 128, (4, 3, 3, 3)).astype(np.int32)
        bias = rng.integers(-500, 500, 4).astype(np.int32)
        cw = ConvWeights(weights=w, w_params=_wp(), bias=bias)
        want = maxpool_grid(seven_loop_conv(x.grid(), w, bias), stride)
        assert np.array_equal(conv2d_acc(x, cw, pool_stride=stride), want)


def _check_worst_case(k, bound, dtype):
    # every pixel at qmax and every weight at qmin make the interior
    # accumulator reach -bound exactly; 2^24 + 1 is the first integer
    # float32 cannot hold, 2^31 - 1 the largest bound acc_plan accepts.
    # On 6x6 the pool window at pooled pixel (1, 1) is all interior.
    ap, wp = _u8(), _wp(bits=8)
    cin, cout = 4, 2
    x = QuantTensor.from_grid(np.full((6, 6, cin), ap.qmax, dtype=np.int32), ap)
    w = np.full((cout, cin, k, k), wp.qmin, dtype=np.int32)
    reach = ap.qmax * (-wp.qmin) * cin * k * k
    bias = np.full(cout, -(bound - reach), dtype=np.int32)
    cw = ConvWeights(weights=w, w_params=wp, bias=bias)
    assert acc_plan(ap, cw) == (bound, np.dtype(dtype))
    want = seven_loop_conv(x.grid(), w, bias)
    for acc, ref in ((conv2d_acc(x, cw), want),
                     (conv2d_acc(x, cw, pool_stride=2), maxpool_grid(want, 2))):
        assert acc.dtype == dtype
        assert acc.min() == -bound
        assert np.array_equal(acc, ref)


def _no_matmul(*args, **kwargs):
    raise AssertionError("matmul ran before the arguments were checked")


def _conv_case(rng, h, wd, cin=3, cout=4, k=3, wdtype=np.int32):
    x = QuantTensor.from_grid(rng.integers(1, 256, (h, wd, cin)).astype(np.int32), _u8())
    w = rng.integers(-128, 128, (cout, cin, k, k)).astype(wdtype)
    bias = rng.integers(-500, 500, cout).astype(np.int32)
    return x, ConvWeights(weights=w, w_params=_wp(), bias=bias)


class TestScratch:
    """conv2d_acc reuses one buffer per role and thread across calls."""

    def test_held_results_stay_independent(self):
        rng = np.random.default_rng(8)
        (x1, cw), (x2, _) = _conv_case(rng, 6, 6), _conv_case(rng, 6, 6)
        a = conv2d_acc(x1, cw)
        pooled_a = conv2d_acc(x1, cw, pool_stride=2)
        b = conv2d_acc(x2, cw)
        pooled_b = conv2d_acc(x2, cw, pool_stride=2)
        want_a = seven_loop_conv(x1.grid(), cw.weights, cw.bias)
        want_b = seven_loop_conv(x2.grid(), cw.weights, cw.bias)
        assert np.array_equal(a, want_a)
        assert np.array_equal(pooled_a, maxpool_grid(want_a, 2))
        assert np.array_equal(b, want_b)
        assert np.array_equal(pooled_b, maxpool_grid(want_b, 2))
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(pooled_a, pooled_b)

    def test_alternating_padding_with_colliding_shapes(self):
        # a 5x6 input under a 3x3 kernel (padded to 7x8) and a 7x8 input under
        # a 1x1 kernel (no padding) both fill the same 7x8 padded buffer: the
        # border must not keep the other call's pixels
        rng = np.random.default_rng(9)
        for i in range(6):
            x, cw = _conv_case(rng, 5, 6) if i % 2 == 0 else _conv_case(rng, 7, 8, k=1)
            want = seven_loop_conv(x.grid(), cw.weights, cw.bias)
            assert np.array_equal(conv2d_acc(x, cw), want)

    def test_threads_interleaving_calls_are_exact(self):
        # four threads switching every 10 µs, each with its own shapes
        rng = np.random.default_rng(10)
        cases = [[_conv_case(rng, 4 + t, 9 - t, k=k) for k in (1, 3)] for t in range(4)]
        wants = [
            [seven_loop_conv(x.grid(), cw.weights, cw.bias) for x, cw in thread_cases]
            for thread_cases in cases
        ]
        errors = []

        def work(t):
            try:
                for n in range(60):
                    x, cw = cases[t][n % 2]
                    if not np.array_equal(conv2d_acc(x, cw), wants[t][n % 2]):
                        errors.append((t, n))
            except Exception as e:  # reported by the assertion below
                errors.append((t, repr(e)))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(1, 4)]
            for th in workers:
                th.start()
            work(0)
            for th in workers:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in workers)
        assert errors == []


class TestBands:
    """conv2d_acc runs one band of output rows at a time and requantize one
    chunk of elements at a time, both sized by kernels.BAND_BYTES."""

    @pytest.fixture
    def one_row_bands(self, monkeypatch):
        # a budget smaller than any patch row gives bands of one row
        monkeypatch.setattr(kernels, "BAND_BYTES", 1)

    # the taps are held as int8 whatever integer type they arrive in, so every
    # weight dtype draws the same taps and must give the same accumulators;
    # the int32 cases keep their ids, the pool stride alone
    @pytest.mark.parametrize("pool_stride, wdtype", [
        pytest.param(s, t, id=str(s) if t is np.int32 else f"{s}-{t.__name__}")
        for s in (None, 1, 2) for t in (np.int32, np.int8, np.int64)
    ])
    def test_one_row_bands_match_seven_loop(self, one_row_bands, monkeypatch, pool_stride,
                                            wdtype):
        rng = np.random.default_rng(30)
        calls = []

        def counting_matmul(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", counting_matmul)
        for h, wd, k in ((6, 8, 3), (4, 2, 1), (8, 6, 3), (2, 2, 3)):
            x, cw = _conv_case(rng, h, wd, k=k, wdtype=wdtype)
            want = seven_loop_conv(x.grid(), cw.weights, cw.bias)
            if pool_stride is not None:
                want = maxpool_grid(want, pool_stride)
            calls.clear()
            assert np.array_equal(conv2d_acc(x, cw, pool_stride=pool_stride), want)
            assert len(calls) == (h // 2 if pool_stride == 2 else h)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bound", [1 << 24, (1 << 24) + 1, (1 << 31) - 1])
    def test_one_row_bands_float64_worst_case(self, one_row_bands, k, bound):
        _check_worst_case(k, bound, np.float64)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_chunked_requantize_equals_the_formula(self, data):
        activation = data.draw(st.sampled_from(["relu", "rescaled_hardtanh"]))
        bits = data.draw(st.integers(1, 8))
        dtype = data.draw(st.sampled_from([np.float32, np.float64, np.int64]))
        in_scale = 2.0 ** data.draw(st.integers(-8, 0))
        w_scale = data.draw(st.floats(1e-3, 1.0))
        out_scale = (2.0 ** data.draw(st.integers(-6, 0)) if activation == "relu"
                     else 1.0 / ((1 << bits) - 1))
        spec = RequantSpec(in_scale, w_scale, out_scale, bits, activation)
        h, w, c = (data.draw(st.integers(1, 5)) for _ in range(3))
        n = h * w * c
        acc = np.array(
            data.draw(st.lists(st.integers(-(1 << 20), 1 << 20), min_size=n, max_size=n)),
            dtype=dtype,
        ).reshape(h, w, c)
        # a chunk of 1..n elements: below n every chunk edge falls mid-array
        chunk = data.draw(st.integers(1, n))
        p = spec.out_params
        want = np.clip(np.rint(acc.astype(np.float64) * spec.multiplier() + spec.offset()),
                       p.qmin, p.qmax)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BAND_BYTES", 8 * chunk)
            got = requantize(acc, spec)
        assert got.shape == (h, w, c)
        assert got.data.dtype == np.uint8
        assert np.array_equal(got.data, want.reshape(-1))

    def test_requantize_writes_one_byte_per_activation(self):
        spec = RequantSpec(1.0, 1.0, 1.0, 8, "relu")
        acc = np.arange(-5, 300, dtype=np.float32).reshape(305, 1, 1)
        q = requantize(acc, spec)
        assert q.data.dtype == np.uint8
        assert np.array_equal(q.data, np.clip(np.arange(-5, 300), 0, 255))
