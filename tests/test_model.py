import dataclasses
import json
import resource
import threading

import numpy as np
import pytest

from lpyolo.model import (
    CONV_PLAN,
    PIXEL_SCALE,
    BadMagicError,
    BitWidthError,
    ConvLayer,
    LayerCountError,
    LayerRecord,
    ModelConfig,
    RunConfig,
    TruncatedFileError,
    WeightFile,
    WeightFileError,
    build_model,
    forward,
    forward_float,
    load_run_config,
    load_weights,
    plan_shapes,
    random_init,
    save_weights,
    validate_model,
)
from lpyolo.qcore import FloatTensor, QuantParams, QuantTensor

F32_PIXEL = float(np.float32(1.0 / 255.0))


def u8_input(rng=None, fill=None):
    if fill is not None:
        g = np.full((416, 416, 3), fill, dtype=np.int32)
    else:
        g = rng.integers(0, 256, size=(416, 416, 3)).astype(np.int32)
    p = QuantParams(bits=8, signed=False, scale=PIXEL_SCALE)
    return QuantTensor.from_grid(g, p)


def zero_weight_records():
    """Handmade records: all-zero weights, no bias, simple interior scales."""
    records = []
    in_scale = F32_PIXEL
    for i, (cin, cout, k) in enumerate(CONV_PLAN, start=1):
        last = i == len(CONV_PLAN)
        out_scale = F32_PIXEL if last else 0.5
        records.append(
            LayerRecord(
                index=i,
                kernel=k,
                in_ch=cin,
                out_ch=cout,
                w_scale=0.25,
                in_scale=in_scale,
                out_scale=out_scale,
                weights=np.zeros((cout, cin, k, k), dtype=np.int32),
                bias=None,
            )
        )
        in_scale = out_scale
    return records


class TestPlan:
    def test_sixteen_layers(self):
        rows = plan_shapes()
        assert len(rows) == 16
        names = [r[0] for r in rows]
        assert names[:4] == ["conv1", "pool1", "conv2", "pool2"]
        assert names[-3:] == ["conv8", "conv9", "conv10"]

    def test_endpoints(self):
        rows = plan_shapes()
        assert rows[0][1] == (416, 416, 3)
        assert rows[0][2] == (416, 416, 8)
        assert rows[-1][2] == (13, 13, 18)

    def test_last_pool_keeps_shape(self):
        rows = {name: (i, o) for name, i, o in plan_shapes()}
        assert rows["pool6"] == ((13, 13, 104), (13, 13, 104))
        assert rows["pool5"] == ((26, 26, 56), (13, 13, 56))

    def test_parameter_count(self):
        # recomputed from the channel plan by hand
        plan = [
            (3, 8, 3),
            (8, 8, 3),
            (8, 16, 3),
            (16, 32, 3),
            (32, 56, 3),
            (56, 104, 3),
            (104, 208, 3),
            (208, 56, 1),
            (56, 104, 3),
            (104, 18, 3),
        ]
        expected = sum(cin * cout * k * k for cin, cout, k in plan)
        assert expected == 350696
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        assert sum(l.weights.weights.size for l in m.conv_layers()) == expected


class TestConfigs:
    def test_bit_ranges(self):
        with pytest.raises(ValueError):
            ModelConfig(weight_bits=1, act_bits=4)
        with pytest.raises(ValueError):
            ModelConfig(weight_bits=9, act_bits=4)
        with pytest.raises(ValueError):
            ModelConfig(weight_bits=4, act_bits=0)
        ModelConfig(weight_bits=2, act_bits=1)
        ModelConfig(weight_bits=8, act_bits=8)

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(weight_bits=4, act_bits=4, anchors=((10, 10), (20, 20)))
        with pytest.raises(ValueError):
            ModelConfig(
                weight_bits=4, act_bits=4, anchors=((10, 10), (20, 20), (0, 5))
            )
        with pytest.raises(ValueError):
            ModelConfig(
                weight_bits=4, act_bits=4, anchors=((10, 10), (20, 20), (30, 500))
            )

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(nms_iou=1.5)
        with pytest.raises(ValueError):
            RunConfig(conf_threshold=-0.1)
        with pytest.raises(ValueError):
            RunConfig(decode_mode="banana")

    def test_run_config_bit_resolution(self):
        rc = RunConfig()
        cfg = rc.model_config(4, 4)
        assert (cfg.weight_bits, cfg.act_bits) == (4, 4)
        rc2 = RunConfig(weight_bits=4, act_bits=4)
        rc2.model_config(4, 4)
        with pytest.raises(ValueError, match="declares"):
            rc2.model_config(6, 4)

    def test_load_run_config(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"conf_threshold": 0.5, "decode_mode": "direct"}))
        rc = load_run_config(p)
        assert rc.conf_threshold == 0.5
        assert rc.decode_mode == "direct"
        assert rc.nms_iou == 0.45

    def test_load_run_config_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"conf_thresh": 0.5}))
        with pytest.raises(ValueError, match="conf_thresh"):
            load_run_config(p)


class TestRandomInit:
    def test_deterministic(self):
        a = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=123)
        b = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=123)
        for la, lb in zip(a.conv_layers(), b.conv_layers()):
            assert np.array_equal(la.weights.weights, lb.weights.weights)
            assert la.requant == lb.requant

    def test_seeds_differ(self):
        a = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        b = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=1)
        assert not np.array_equal(
            a.conv_layers()[0].weights.weights, b.conv_layers()[0].weights.weights
        )

    def test_passes_validation(self):
        for wb, ab in [(2, 4), (3, 5), (4, 2), (4, 4), (6, 4), (8, 3)]:
            m = random_init(ModelConfig(weight_bits=wb, act_bits=ab), seed=7)
            validate_model(m)

    def test_bit_placement(self):
        m = random_init(ModelConfig(weight_bits=6, act_bits=4), seed=0)
        convs = m.conv_layers()
        assert convs[0].weights.w_params.bits == 8
        assert convs[0].requant.out_bits == 8
        assert all(c.weights.w_params.bits == 6 for c in convs[1:9])
        assert all(c.requant.out_bits == 4 for c in convs[1:9])
        assert convs[9].weights.w_params.bits == 8
        assert convs[9].requant.out_bits == 8
        assert convs[9].requant.activation == "rescaled_hardtanh"
        assert all(c.requant.activation == "relu" for c in convs[:9])

    def test_no_bias_option(self):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0, with_bias=False)
        assert all(c.weights.bias is None for c in m.conv_layers())

    def test_layers_are_ten_conv_steps_with_fused_pools(self):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        assert all(type(l) is ConvLayer for l in m.layers)
        assert [l.name for l in m.layers] == [f"conv{i}" for i in range(1, 11)]
        assert tuple(l.pool_stride for l in m.layers) == (
            2, 2, 2, 2, 2, 1, None, None, None, None
        )


class TestValidateModel:
    def _with_step(self, index, **changes):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        layers = list(m.layers)
        layers[index] = dataclasses.replace(layers[index], **changes)
        return dataclasses.replace(m, layers=tuple(layers))

    @pytest.mark.parametrize("index, stride", [(0, 1), (5, 2), (5, None), (6, 2)])
    def test_rejects_wrong_pool_stride(self, index, stride):
        with pytest.raises(ValueError, match=f"conv{index + 1}: pool stride"):
            validate_model(self._with_step(index, pool_stride=stride))

    @pytest.mark.parametrize("index", [0, 4, 9])
    def test_rejects_broken_scale_chain(self, index):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        rq = dataclasses.replace(m.layers[index].requant, in_scale=0.75)
        with pytest.raises(ValueError, match=f"conv{index + 1}: input scale"):
            validate_model(self._with_step(index, requant=rq))


class TestForward:
    def test_zero_weights_give_uniform_midpoint(self):
        cfg = ModelConfig(weight_bits=4, act_bits=4)
        m = build_model(cfg, WeightFile(4, 4, tuple(zero_weight_records())))
        out = forward(m, u8_input(fill=0))
        assert out.shape == (13, 13, 18)
        assert np.all(out.data == 128)
        assert out.params.scale == PIXEL_SCALE

    def test_input_validation(self):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        p = QuantParams(bits=8, signed=False, scale=PIXEL_SCALE)
        with pytest.raises(ValueError, match="shape"):
            forward(m, QuantTensor.from_grid(np.zeros((8, 8, 3), dtype=np.int32), p))
        bad = QuantParams(bits=8, signed=False, scale=0.5)
        with pytest.raises(ValueError, match="1/255"):
            forward(
                m, QuantTensor.from_grid(np.zeros((416, 416, 3), dtype=np.int32), bad)
            )

    def test_deterministic(self):
        m = random_init(ModelConfig(weight_bits=2, act_bits=4), seed=5)
        rng = np.random.default_rng(6)
        x = u8_input(rng)
        assert np.array_equal(forward(m, x).data, forward(m, x).data)

    def test_fake_quant_path_is_bit_exact(self):
        m = random_init(ModelConfig(weight_bits=2, act_bits=4), seed=11)
        rng = np.random.default_rng(12)
        x = u8_input(rng)
        out_int = forward(m, x)
        xf = FloatTensor.from_grid(x.grid().astype(np.float64) * PIXEL_SCALE)
        out_ref = forward_float(m, xf, mode="fake_quant")
        ref_q = np.rint(out_ref.data / PIXEL_SCALE).astype(np.int32)
        assert np.array_equal(out_int.data, ref_q)

    def test_steady_state_worker_maps_no_fresh_pages(self):
        # pipeline threads run forward off the main thread; once warm, a
        # pass must reuse its memory rather than fault in fresh pages
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        x = u8_input(np.random.default_rng(2))
        faults = []

        def work():
            for _ in range(3):
                forward(m, x)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                forward(m, x)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert faults and faults[0] / 5 <= 10

    def test_pure_float_midpoint_and_range(self):
        cfg = ModelConfig(weight_bits=4, act_bits=4)
        m = build_model(cfg, WeightFile(4, 4, tuple(zero_weight_records())))
        xf = FloatTensor.from_grid(np.zeros((416, 416, 3)))
        out = forward_float(m, xf, mode="pure_float")
        assert np.allclose(out.data, 0.5)
        m2 = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=3)
        rng = np.random.default_rng(4)
        xf2 = FloatTensor.from_grid(rng.uniform(0, 1, size=(416, 416, 3)))
        out2 = forward_float(m2, xf2, mode="pure_float")
        assert out2.data.min() > 0.0 and out2.data.max() < 1.0

    def test_float_input_range_checked(self):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        bad = FloatTensor.from_grid(np.full((416, 416, 3), 1.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            forward_float(m, bad)


class TestWeightFiles:
    def _file(self, tmp_path, wb=4, ab=4, seed=0):
        m = random_init(ModelConfig(weight_bits=wb, act_bits=ab), seed=seed)
        path = tmp_path / "w.lpyq"
        save_weights(m, path)
        return m, path

    def test_round_trip_identical_forward(self, tmp_path):
        m, path = self._file(tmp_path)
        m2 = build_model(m.config, load_weights(path))
        rng = np.random.default_rng(0)
        x = u8_input(rng)
        assert np.array_equal(forward(m, x).data, forward(m2, x).data)

    def test_resave_is_byte_identical(self, tmp_path):
        m, path = self._file(tmp_path)
        m2 = build_model(m.config, load_weights(path))
        path2 = tmp_path / "w2.lpyq"
        save_weights(m2, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        _, path = self._file(tmp_path, wb=6, ab=3)
        blob = path.read_bytes()
        assert blob[:4] == b"LPYQ"
        assert blob[4] == 1  # version
        assert blob[5] == 6  # weight bits
        assert blob[6] == 3  # act bits
        assert blob[7] == 10  # conv layer count

    def test_bad_magic(self, tmp_path):
        _, path = self._file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_weights(path)

    def test_bad_version(self, tmp_path):
        _, path = self._file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 2
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFileError, match="version"):
            load_weights(path)

    def test_bad_bit_width(self, tmp_path):
        _, path = self._file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[5] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(BitWidthError):
            load_weights(path)

    def test_bad_layer_count(self, tmp_path):
        _, path = self._file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[7] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(LayerCountError):
            load_weights(path)

    def test_truncated(self, tmp_path):
        _, path = self._file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            load_weights(path)

    def test_trailing_bytes(self, tmp_path):
        _, path = self._file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(WeightFileError, match="trailing"):
            load_weights(path)

    def test_error_types_are_weight_file_errors(self):
        for exc in (BadMagicError, TruncatedFileError, BitWidthError, LayerCountError):
            assert issubclass(exc, WeightFileError)
            assert issubclass(exc, ValueError)


class TestBuildModel:
    def test_config_file_bit_mismatch(self, tmp_path):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        path = tmp_path / "w.lpyq"
        save_weights(m, path)
        with pytest.raises(ValueError, match="4W4A"):
            build_model(ModelConfig(weight_bits=6, act_bits=4), load_weights(path))

    def test_shape_mismatch_names_layer(self):
        records = zero_weight_records()
        bad = records[2]
        records[2] = LayerRecord(
            index=bad.index,
            kernel=bad.kernel,
            in_ch=bad.in_ch + 1,
            out_ch=bad.out_ch,
            w_scale=bad.w_scale,
            in_scale=bad.in_scale,
            out_scale=bad.out_scale,
            weights=bad.weights,
            bias=None,
        )
        with pytest.raises(ValueError, match="conv3"):
            build_model(
                ModelConfig(weight_bits=4, act_bits=4),
                WeightFile(4, 4, tuple(records)),
            )

    def test_broken_scale_chain_names_layer(self):
        records = zero_weight_records()
        bad = records[4]
        records[4] = LayerRecord(
            index=bad.index,
            kernel=bad.kernel,
            in_ch=bad.in_ch,
            out_ch=bad.out_ch,
            w_scale=bad.w_scale,
            in_scale=0.75,  # breaks continuity with conv4's output
            out_scale=bad.out_scale,
            weights=bad.weights,
            bias=None,
        )
        with pytest.raises(ValueError, match="conv5"):
            build_model(
                ModelConfig(weight_bits=4, act_bits=4),
                WeightFile(4, 4, tuple(records)),
            )

    def test_first_scale_must_be_pixel_scale(self):
        records = zero_weight_records()
        first = records[0]
        records[0] = LayerRecord(
            index=1,
            kernel=first.kernel,
            in_ch=first.in_ch,
            out_ch=first.out_ch,
            w_scale=first.w_scale,
            in_scale=0.5,
            out_scale=first.out_scale,
            weights=first.weights,
            bias=None,
        )
        with pytest.raises(ValueError, match="1/255"):
            build_model(
                ModelConfig(weight_bits=4, act_bits=4),
                WeightFile(4, 4, tuple(records)),
            )

    def test_weight_range_error_names_layer(self):
        records = zero_weight_records()
        bad = records[1]
        w = bad.weights.copy()
        w[0, 0, 0, 0] = 100  # outside 4-bit signed range
        records[1] = LayerRecord(
            index=bad.index,
            kernel=bad.kernel,
            in_ch=bad.in_ch,
            out_ch=bad.out_ch,
            w_scale=bad.w_scale,
            in_scale=bad.in_scale,
            out_scale=bad.out_scale,
            weights=w,
            bias=None,
        )
        with pytest.raises(ValueError, match="conv2"):
            build_model(
                ModelConfig(weight_bits=4, act_bits=4),
                WeightFile(4, 4, tuple(records)),
            )
