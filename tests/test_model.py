import dataclasses
import hashlib
import json
import logging
import os
import resource
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from lpyolo.model import (
    CONV_PLAN,
    PIXEL_SCALE,
    POOL_STRIDES,
    BadMagicError,
    BitWidthError,
    ConvLayer,
    LayerCountError,
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
from lpyolo import kernels
from lpyolo.cli import main
from lpyolo.imaging import Image, write_ppm
from lpyolo.kernels import ConvWeights, RequantSpec
from lpyolo.qcore import FloatTensor, QuantParams, QuantTensor

F32_PIXEL = float(np.float32(1.0 / 255.0))


def u8_input(rng=None, fill=None):
    if fill is not None:
        g = np.full((416, 416, 3), fill, dtype=np.int32)
    else:
        g = rng.integers(0, 256, size=(416, 416, 3)).astype(np.int32)
    p = QuantParams(bits=8, signed=False, scale=PIXEL_SCALE)
    return QuantTensor.from_grid(g, p)


def zero_weight_steps():
    """Handmade 4W4A conv steps: all-zero weights, no bias, simple interior
    scales."""
    steps = []
    in_scale = PIXEL_SCALE
    for i, (cin, cout, k) in enumerate(CONV_PLAN, start=1):
        last = i == len(CONV_PLAN)
        bits = 8 if i in (1, len(CONV_PLAN)) else 4
        out_scale = PIXEL_SCALE if last else 0.5
        weights = ConvWeights(
            np.zeros((cout, cin, k, k), dtype=np.int32), QuantParams(bits, True, 0.25)
        )
        requant = RequantSpec(
            in_scale, 0.25, out_scale, bits, "rescaled_hardtanh" if last else "relu"
        )
        stride = POOL_STRIDES[i - 1] if i <= len(POOL_STRIDES) else None
        steps.append(ConvLayer(f"conv{i}", weights, requant, stride))
        in_scale = out_scale
    return steps


# sha256 of save_weights(random_init(ModelConfig(w, a), seed, with_bias=b)),
# keyed ((w, a), seed, b): the files the benchmark's references were recorded
# from must not move
WEIGHT_FILE_SHA256 = {
    ((2, 2), 0, True): "a5f524d9bbc27ad89d2fd8afe7d24b6ac06cac9f2ffa7db28cbd2257de615591",
    ((2, 2), 0, False): "7353abf6d688a29a1d5b414328777656f5acd9354a7035db4ce1d4cc598fe711",
    ((2, 2), 1, True): "94007c651d87ce02d05f159003a5b39f7bb3b1e5eece0431002cc18c213630a4",
    ((2, 2), 1, False): "4b36c9d33565ee6dda81447cbf930c91e14c868b23f542eab2c600ad311fee2b",
    ((4, 4), 0, True): "d31cebce5316455004a4ea16da73d31760f65eea0c5a6e5017ac051b11c1e72d",
    ((4, 4), 0, False): "6423bf42f4b60fc14140e43607421530da5894d32f59dd80ce646cf1c0e2690b",
    ((4, 4), 1, True): "1f7cfc1559d33b5e2265a92d02430b02b8e9d6eb93de1f9ca2af45cde5676ead",
    ((4, 4), 1, False): "c26df4ce4fe1e543bea7b71844c6356f22a2edac2dd6e5d1838815df892a8d20",
    ((8, 8), 0, True): "8b996fd32b025ab118c4f237955057d77797f756b391c6b1bd7704d38f069aed",
    ((8, 8), 0, False): "91183ec536d2175d23d96729fb3e0c7a392d86c0ccfae4e3286bd50f5dc1daa5",
    ((8, 8), 1, True): "cdc0ec1e08fb1a16b90b7d9f6116409ea91fe5d993f1ce795bc45b41b1bfe88b",
    ((8, 8), 1, False): "15f27568f5a40d27091a6d5ccf1628ecd068dd082384ee1b1702372704236b19",
    ((3, 5), 0, True): "a155c22ac54047c8b1a3ed5d4c3d3023aa1ea0401ad9622d7cc0cb8ff4236b47",
    ((3, 5), 0, False): "b20b26ee058b7c1c223f135a5e30c986231f91fc407c16ac7ae74eab622c1e35",
    ((3, 5), 1, True): "89c412ac095ed3c5dfea376f0c6e75f6298406832ca8ff1121c203cd3fad9e32",
    ((3, 5), 1, False): "12b77d1f7a1fac9f427e2a37fbaa97e582b6cdce236f26bc66fa5372c4aa8708",
    ((8, 1), 0, True): "074b0efd8593b4dc402c64cf2dd0d5a47157a9b1b31c569dd2268d43837c1a03",
    ((8, 1), 0, False): "27e5eb919b603d96f244fbd6c0cefd414c2428a00761b1e73e2a959c50957e86",
    ((8, 1), 1, True): "ef36fb98eddc799ef593baacf97ab17ef23aa6e0321fa4b5ad7a06a75532fac2",
    ((8, 1), 1, False): "7cae9756f89fe68882579f8ea56488fd159f878513d3e83a0fb31454301a41a5",
}


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
        assert sum(l.weights.weights.size for l in m.layers) == expected


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

    def test_run_config_checks_anchors_like_model_config(self):
        for bad in (((10, 10), (20, 20)), ((10, 10), (20, 20), (0, 5)),
                    ((10, 10), (20, 20), (30, 500)), ((10, 10), (20, 20), (30, float("inf")))):
            with pytest.raises(ValueError, match="anchors must"):
                RunConfig(anchors=bad)
            with pytest.raises(ValueError, match="anchors must"):
                ModelConfig(weight_bits=4, act_bits=4, anchors=bad)
        assert RunConfig(anchors=[[1, 2], [3, 4], [416, 5]]).anchors == (
            (1.0, 2.0), (3.0, 4.0), (416.0, 5.0))

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(nms_iou=1.5)
        with pytest.raises(ValueError):
            RunConfig(conf_threshold=-0.1)
        with pytest.raises(ValueError):
            RunConfig(decode_mode="banana")

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
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights.weights, lb.weights.weights)
            assert la.requant == lb.requant

    def test_seeds_differ(self):
        a = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        b = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=1)
        assert not np.array_equal(
            a.layers[0].weights.weights, b.layers[0].weights.weights
        )

    def test_passes_validation(self):
        for wb, ab in [(2, 4), (3, 5), (4, 2), (4, 4), (6, 4), (8, 3)]:
            m = random_init(ModelConfig(weight_bits=wb, act_bits=ab), seed=7)
            validate_model(m)

    def test_bit_placement(self):
        m = random_init(ModelConfig(weight_bits=6, act_bits=4), seed=0)
        convs = m.layers
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
        assert all(c.weights.bias is None for c in m.layers)

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
        m = build_model(cfg, WeightFile(4, 4, tuple(zero_weight_steps())))
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

    def test_warm_main_thread_forward_maps_few_fresh_pages(self):
        # lpyolo bench runs forward in the main thread between to_input and
        # detect, every array of a pass freed before the next, as here; with
        # whole-frame temporaries a warm pass faulted in ~676 fresh pages,
        # with row bands and uint8 activations 0-8. A child interpreter
        # starts from a fresh heap, as bench does; the faults depend on it.
        code = textwrap.dedent("""
            import resource
            import numpy as np
            from lpyolo.imaging import Image, to_input
            from lpyolo.model import ModelConfig, RunConfig, forward, random_init
            from lpyolo.postprocess import detect
            m = random_init(ModelConfig(4, 4), seed=0)
            rng = np.random.default_rng(3)
            img = Image(640, 480, rng.integers(0, 256, 640 * 480 * 3, dtype=np.uint8).tobytes())
            run = RunConfig()

            def one_pass():
                x = to_input(img)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                out = forward(m, x)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                detect(out, m.config, run)
                return faults

            print(*(one_pass() for _ in range(8)))
        """)
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert proc.returncode == 0, proc.stderr
        faults = [int(v) for v in proc.stdout.split()]
        assert len(faults) == 8
        assert sum(faults[3:]) / 5 <= 32, faults

    def test_per_thread_scratch_is_capped(self):
        # a fresh thread's scratch after a 4W4A and an 8W8A forward holds
        # conv1's padded input and one band of patch, phase product and
        # requantize chunk, not whole-frame temporaries (~18 MB)
        models = [random_init(ModelConfig(b, b), seed=0) for b in (4, 8)]
        x = u8_input(np.random.default_rng(4))
        sizes = []

        def work():
            for m in models:
                forward(m, x)
            sizes.append(kernels.scratch_bytes())

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert sizes and 0 < sizes[0] <= 8 * 10**6

    def test_activations_are_one_byte(self):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        assert forward(m, u8_input(np.random.default_rng(5))).data.dtype == np.uint8

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

    def test_load_gives_the_saved_steps(self, tmp_path):
        m, path = self._file(tmp_path, wb=3, ab=5)
        for got, want in zip(load_weights(path).layers, m.layers, strict=True):
            assert np.array_equal(got.weights.weights, want.weights.weights)
            assert got.weights.w_params == want.weights.w_params
            assert np.array_equal(got.weights.bias, want.weights.bias)
            assert got.requant == want.requant
            assert (got.name, got.pool_stride) == (want.name, want.pool_stride)

    def test_loaded_taps_are_held_once_as_int8(self, tmp_path):
        # each conv holds one C-contiguous (out, k, k, in) int8 array, weights
        # being its [out][in][kh][kw] view, and its bias: nothing else
        m, path = self._file(tmp_path)
        held = {}
        for layer in load_weights(path).layers:
            w = layer.weights.weights
            out_ch, in_ch, k, _ = w.shape
            assert w.dtype == np.int8
            assert isinstance(w.base, np.ndarray) and w.base.flags.owndata
            assert w.base.flags.c_contiguous and w.base.shape == (out_ch, k, k, in_ch)
            assert np.array_equal(w.base.transpose(0, 3, 1, 2), w)
            for v in vars(layer.weights).values():
                if isinstance(v, np.ndarray):
                    owner = v if v.base is None else v.base
                    held[id(owner)] = owner.nbytes
        bias_bytes = sum(layer.weights.bias.nbytes for layer in m.layers)
        assert sum(held.values()) == 350696 + bias_bytes

    def test_taps_and_bias_are_read_only(self, tmp_path):
        # acc_plan's proof rests on l1_max and bias_max, fixed at construction
        m, path = self._file(tmp_path)
        for layers in (m.layers, load_weights(path).layers):
            for layer in layers:
                w = layer.weights
                with pytest.raises(ValueError, match="read-only"):
                    w.weights[0, 0, 0, 0] = 1
                with pytest.raises(ValueError, match="read-only"):
                    w.bias[0] = (1 << 24) + 1

    @pytest.mark.parametrize("key", sorted(WEIGHT_FILE_SHA256))
    def test_file_bytes_are_pinned(self, tmp_path, key):
        (wb, ab), seed, with_bias = key
        path = tmp_path / "w.lpyq"
        save_weights(random_init(ModelConfig(wb, ab), seed, with_bias=with_bias), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WEIGHT_FILE_SHA256[key]

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
        with pytest.raises(ValueError, match="conv2: weight bits"):
            build_model(ModelConfig(weight_bits=6, act_bits=4), load_weights(path))

    def test_shape_mismatch_names_layer(self):
        steps = zero_weight_steps()
        w = dataclasses.replace(steps[2].weights, weights=np.zeros((16, 9, 3, 3), np.int32))
        steps[2] = dataclasses.replace(steps[2], weights=w)
        with pytest.raises(ValueError, match="conv3"):
            build_model(
                ModelConfig(weight_bits=4, act_bits=4),
                WeightFile(4, 4, tuple(steps)),
            )

    def test_accumulator_bound_past_2_31_names_layer(self):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        steps = list(m.layers)
        w = dataclasses.replace(steps[3].weights, bias=np.full(32, (1 << 31) - 1, np.int32))
        steps[3] = dataclasses.replace(steps[3], weights=w)
        with pytest.raises(ValueError, match=r"conv4: accumulator bound .* 2\^31"):
            build_model(m.config, WeightFile(4, 4, tuple(steps)))

    def test_weight_range_error_names_layer(self, tmp_path):
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0, with_bias=False)
        path = tmp_path / "w.lpyq"
        save_weights(m, path)
        blob = bytearray(path.read_bytes())
        # file header, conv1's layer head and 8*3*3*3 weights, conv2's head
        blob[8 + 19 + 216 + 19] = 100  # outside 4-bit signed range
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFileError, match="conv2"):
            load_weights(path)


def _openblas_with_symbols():
    lib = kernels._openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        pytest.skip("numpy without its bundled scipy-openblas")
    return lib


class TestBlasThreads:
    """Building a model sets numpy's OpenBLAS to one thread, process-wide;
    each test first sets two, as if no model had been built yet."""

    def test_pins_blas_to_one_thread(self, caplog):
        lib = _openblas_with_symbols()
        lib.scipy_openblas_set_num_threads64_(2)
        with caplog.at_level(logging.INFO, logger="lpyolo.kernels"):
            random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        assert lib.scipy_openblas_get_num_threads64_() == 1
        assert "BLAS threads: found 2, set 1" in caplog.messages
        assert kernels._pin_blas_threads() is True

    def test_build_model_pins(self, tmp_path):
        lib = _openblas_with_symbols()
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        path = tmp_path / "w.lpyq"
        save_weights(m, path)
        lib.scipy_openblas_set_num_threads64_(2)
        wf = load_weights(path)
        assert lib.scipy_openblas_get_num_threads64_() == 2  # parsing alone does not
        build_model(m.config, wf)
        assert lib.scipy_openblas_get_num_threads64_() == 1

    def test_cli_infer_pins(self, tmp_path):
        lib = _openblas_with_symbols()
        weights, frame = tmp_path / "w.lpyq", tmp_path / "f.ppm"
        save_weights(random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0), weights)
        write_ppm(Image(width=8, height=8, pixels=bytes(3 * 8 * 8)), frame)
        lib.scipy_openblas_set_num_threads64_(2)
        assert main(["infer", "--weights", str(weights), "--image", str(frame),
                     "--out", str(tmp_path / "o.ppm")]) == 0
        assert lib.scipy_openblas_get_num_threads64_() == 1

    @pytest.mark.parametrize("found", [lambda: None, object], ids=["no-library", "no-symbol"])
    def test_runs_without_blas_symbols(self, monkeypatch, caplog, found):
        monkeypatch.setattr(kernels, "_openblas", found)
        with caplog.at_level(logging.INFO, logger="lpyolo.kernels"):
            m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        assert forward(m, u8_input(fill=7)).shape == (13, 13, 18)
        assert kernels._pin_blas_threads() is False
        assert caplog.messages == []
