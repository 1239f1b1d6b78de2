"""The detector network: ten fused steps (a quantized convolution, the 2x2
max pool that follows convs 1..6, then requantize) shrinking 416x416x3 RGB
input to a 13x13x18 prediction grid.

Owns bit-width configuration (m-bit weights, n-bit activations, with the
first and last convolutions pinned to 8 bits), weight file serialization,
deterministic random initialization for fixtures, and the integer forward
pass with its fake-quant float reference.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .kernels import (
    ConvWeights,
    RequantSpec,
    _pin_blas_threads,
    acc_plan,
    conv2d_acc,
    conv2d_real,
    maxpool_grid,
    requantize,
)
from .qcore import FloatTensor, QuantParams, QuantTensor

__all__ = [
    "ModelConfig",
    "RunConfig",
    "ConvLayer",
    "Model",
    "WeightFile",
    "WeightFileError",
    "BadMagicError",
    "TruncatedFileError",
    "BitWidthError",
    "LayerCountError",
    "CONV_PLAN",
    "POOL_STRIDES",
    "INPUT_SIZE",
    "FIRST_LAST_BITS",
    "OUTPUT_GRID",
    "OUTPUT_CHANNELS",
    "PIXEL_SCALE",
    "PIXEL_LATTICE",
    "INPUT_SHAPE",
    "OUTPUT_SHAPE",
    "DEFAULT_ANCHORS",
    "DECODE_MODES",
    "plan_shapes",
    "precision_plan",
    "build_model",
    "random_init",
    "forward",
    "forward_float",
    "save_weights",
    "load_weights",
    "load_run_config",
]

INPUT_SIZE = 416
FIRST_LAST_BITS = 8
OUTPUT_GRID = 13
OUTPUT_CHANNELS = 18

# (in_channels, out_channels, kernel) for conv1..conv10. Convs 1..6 are each
# followed by a 2x2 max pool; the sixth pool is stride 1 (shape-preserving),
# the rest stride 2.
CONV_PLAN = (
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
)
POOL_STRIDES = (2, 2, 2, 2, 2, 1)

# One step of the 8-bit unsigned lattice spanning [0, 1]: pixel 255 -> 1.0.
# Kept as an exact float64 expression; the 32-bit copy a weight file stores
# is re-derived back to this value on load.
PIXEL_SCALE = 1.0 / 255.0

# The network's I/O contract: input pixels and output grid share one lattice.
PIXEL_LATTICE = QuantParams(bits=8, signed=False, scale=PIXEL_SCALE)
INPUT_SHAPE = (INPUT_SIZE, INPUT_SIZE, 3)
OUTPUT_SHAPE = (OUTPUT_GRID, OUTPUT_GRID, OUTPUT_CHANNELS)

DEFAULT_ANCHORS = ((81.0, 82.0), (135.0, 169.0), (344.0, 319.0))

DECODE_MODES = ("direct", "anchor_pow2")


class WeightFileError(ValueError):
    pass


class BadMagicError(WeightFileError):
    pass


class TruncatedFileError(WeightFileError):
    pass


class BitWidthError(WeightFileError):
    pass


class LayerCountError(WeightFileError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Bit widths and anchor priors. weight_bits/act_bits govern convolutions
    2..9; the first and last convolutions always run at FIRST_LAST_BITS."""

    weight_bits: int
    act_bits: int
    anchors: tuple = DEFAULT_ANCHORS

    def __post_init__(self) -> None:
        if not 2 <= self.weight_bits <= 8:
            raise ValueError(f"weight_bits {self.weight_bits} outside 2..8")
        if not 1 <= self.act_bits <= 8:
            raise ValueError(f"act_bits {self.act_bits} outside 1..8")
        object.__setattr__(self, "anchors", _anchors(self.anchors))


@dataclass(frozen=True)
class RunConfig:
    """Run-file settings: anchors and the postprocessing knobs. Bit widths
    are not among them; they come from the weight file's header."""

    anchors: tuple = DEFAULT_ANCHORS
    conf_threshold: float = 0.25
    nms_iou: float = 0.45
    decode_mode: str = "anchor_pow2"

    def __post_init__(self) -> None:
        # values arrive from JSON, so each is checked for type before use
        conf = _finite_number("conf_threshold", self.conf_threshold)
        if conf < 0.0:
            raise ValueError(f"conf_threshold {conf} negative")
        iou = _finite_number("nms_iou", self.nms_iou)
        if not 0.0 <= iou <= 1.0:
            raise ValueError(f"nms_iou {iou} outside [0, 1]")
        if self.decode_mode not in DECODE_MODES:
            raise ValueError(f"unknown decode_mode {self.decode_mode!r}")
        object.__setattr__(self, "conf_threshold", conf)
        object.__setattr__(self, "nms_iou", iou)
        object.__setattr__(self, "anchors", _anchors(self.anchors))

    def model_config(self, weight_bits: int, act_bits: int) -> ModelConfig:
        """The model config for a weight file declaring weight_bits/act_bits."""
        return ModelConfig(weight_bits, act_bits, self.anchors)


def _anchors(pairs) -> tuple:
    """pairs as 3 (w, h) float pairs, each in (0, INPUT_SIZE]; ValueError
    naming anchors for anything else."""
    if not (
        isinstance(pairs, (list, tuple))
        and len(pairs) == 3
        and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)
    ):
        raise ValueError(f"anchors must be 3 [w, h] pairs, got {pairs!r}")
    anchors = tuple(tuple(_finite_number("anchors", v) for v in p) for p in pairs)
    for w, h in anchors:
        if not (0.0 < w <= INPUT_SIZE and 0.0 < h <= INPUT_SIZE):
            raise ValueError(f"anchors must lie in (0, {INPUT_SIZE}], got ({w}, {h})")
    return anchors


def _finite_number(key: str, value) -> float:
    """value as a finite float; ValueError naming key for anything else,
    bool, string and an int beyond float range included."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        v = float(value) if number else math.nan
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return v


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except RecursionError:
            raise ValueError("run config nests too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("run config must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown run config keys: {', '.join(unknown)}")
    return RunConfig(**raw)


@dataclass(frozen=True)
class ConvLayer:
    """One step: convolution, the 2x2 max pool of stride pool_stride (None:
    no pool), then requantize."""

    name: str
    weights: ConvWeights
    requant: RequantSpec
    pool_stride: int | None


@dataclass(frozen=True)
class Model:
    """Immutable built network, the ten conv steps forward runs; safe to
    share across worker threads."""

    config: ModelConfig
    layers: tuple = field(repr=False)

    def conv_layers(self) -> list:
        """The steps as a list (every layer is a conv step). Kept because the
        benchmark's output check, perfbench/check.py, calls it."""
        return list(self.layers)


def _pool_stride(index: int) -> int | None:
    """Stride of the pool fused into conv `index` (1-based), None past conv6."""
    return POOL_STRIDES[index - 1] if index <= len(POOL_STRIDES) else None


def plan_shapes() -> list:
    """Static (name, in_shape, out_shape) chain of the 16-layer graph."""
    rows = []
    h, w, c = INPUT_SHAPE
    for i, (cin, cout, _k) in enumerate(CONV_PLAN, start=1):
        if cin != c:
            raise AssertionError(f"conv{i} plan expects {cin} channels, chain has {c}")
        rows.append((f"conv{i}", (h, w, c), (h, w, cout)))
        c = cout
        stride = _pool_stride(i)
        if stride is not None:
            oh, ow = (h // 2, w // 2) if stride == 2 else (h, w)
            rows.append((f"pool{i}", (h, w, c), (oh, ow, c)))
            h, w = oh, ow
    if (h, w, c) != OUTPUT_SHAPE:
        raise AssertionError(f"chain ends at {(h, w, c)}")
    return rows


def _layer_bits(weight_bits: int, act_bits: int, index: int) -> tuple[int, int]:
    """(weight_bits, output act_bits) for conv `index` (1-based) of a
    weight_bits/act_bits model."""
    if index in (1, len(CONV_PLAN)):
        return FIRST_LAST_BITS, FIRST_LAST_BITS
    return weight_bits, act_bits


def _conv_step(index: int, weight_bits: int, act_bits: int, weights: np.ndarray,
               bias: np.ndarray | None, w_scale: float, in_scale: float,
               out_scale: float) -> ConvLayer:
    """Conv `index` (1-based) of a weight_bits/act_bits model as the step
    forward runs; bit widths, activation and pool stride follow from the
    position. Raises ValueError naming the layer."""
    name = f"conv{index}"
    wbits, abits = _layer_bits(weight_bits, act_bits, index)
    activation = "rescaled_hardtanh" if index == len(CONV_PLAN) else "relu"
    try:
        conv = ConvWeights(weights, QuantParams(bits=wbits, signed=True, scale=w_scale), bias)
        requant = RequantSpec(in_scale, w_scale, out_scale, abits, activation)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from e
    return ConvLayer(name, conv, requant, _pool_stride(index))


def validate_model(model: Model) -> None:
    """Walk the conv steps against the static plan; raise naming the first
    offending layer. Covers shapes, kernels, pool strides, bit widths,
    activation kinds, exact scale-chain continuity from 1/255 to 1/255, and
    the accumulator bound of every layer staying below 2^31 (precision_plan),
    so no forward pass of a valid model can overflow."""
    if len(model.layers) != len(CONV_PLAN):
        raise ValueError(f"layer count {len(model.layers)} != {len(CONV_PLAN)}")
    in_scale = PIXEL_SCALE
    for i, (layer, (cin, cout, k)) in enumerate(zip(model.layers, CONV_PLAN), start=1):
        name = f"conv{i}"
        if layer.name != name:
            raise ValueError(f"layer {layer.name} where {name} expected")
        w = layer.weights
        if (w.in_channels, w.out_channels, w.kernel) != (cin, cout, k):
            raise ValueError(
                f"{name}: weights {w.in_channels}->{w.out_channels} k={w.kernel}, "
                f"plan wants {cin}->{cout} k={k}"
            )
        if layer.pool_stride != _pool_stride(i):
            raise ValueError(
                f"{name}: pool stride {layer.pool_stride}, plan wants {_pool_stride(i)}"
            )
        wbits, abits = _layer_bits(model.config.weight_bits, model.config.act_bits, i)
        if w.w_params.bits != wbits:
            raise ValueError(f"{name}: weight bits {w.w_params.bits} != {wbits}")
        if layer.requant.out_bits != abits:
            raise ValueError(f"{name}: act bits {layer.requant.out_bits} != {abits}")
        want_act = "rescaled_hardtanh" if i == len(CONV_PLAN) else "relu"
        if layer.requant.activation != want_act:
            raise ValueError(f"{name}: activation {layer.requant.activation}")
        if layer.requant.w_scale != w.w_params.scale:
            raise ValueError(f"{name}: weight scale mismatch")
        if layer.requant.in_scale != in_scale:
            want = "1/255 exactly" if i == 1 else f"conv{i - 1}'s output scale"
            raise ValueError(f"{name}: input scale must be {want}")
        in_scale = layer.requant.out_scale
    if in_scale != PIXEL_SCALE:
        raise ValueError("final output scale must be 1/255 exactly")
    precision_plan(model)


# ---------------------------------------------------------------------------
# Weight file format, little-endian:
#   magic "LPYQ" (4B) | version u8=1 | weight_bits u8 | act_bits u8
#   | layer_count u8=10
# then per conv layer:
#   index u8 | kernel u8 | in_ch u16 | out_ch u16
#   | w_scale f32 | in_scale f32 | out_scale f32 | bias_flag u8
#   | weights out*in*k*k signed bytes, [out][in][kh][kw] order
#   | bias out_ch x i32 (only when bias_flag=1)

WEIGHT_MAGIC = b"LPYQ"
WEIGHT_VERSION = 1
_HEADER = struct.Struct("<4sBBBB")
_LAYER_HEAD = struct.Struct("<BBHHfffB")


@dataclass(frozen=True)
class WeightFile:
    """A parsed weight file: its header's bit widths and its ten conv steps."""

    weight_bits: int
    act_bits: int
    layers: tuple


def save_weights(model: Model, path) -> None:
    cfg = model.config
    out = bytearray()
    out += _HEADER.pack(
        WEIGHT_MAGIC, WEIGHT_VERSION, cfg.weight_bits, cfg.act_bits, len(CONV_PLAN)
    )
    for i, layer in enumerate(model.layers, start=1):
        w = layer.weights
        rq = layer.requant
        out += _LAYER_HEAD.pack(
            i,
            w.kernel,
            w.in_channels,
            w.out_channels,
            np.float32(rq.w_scale),
            np.float32(rq.in_scale),
            np.float32(rq.out_scale),
            0 if w.bias is None else 1,
        )
        out += w.weights.tobytes()
        if w.bias is not None:
            out += w.bias.astype("<i4").tobytes()
    with open(path, "wb") as f:
        f.write(bytes(out))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedFileError(
                f"weight file truncated at byte {self.pos} (wanted {n} more)"
            )
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk


def load_weights(path) -> WeightFile:
    """Parse a weight file into its conv steps. Checks the format, each
    layer's weight range for the declared bits and the exact 1/255 boundary
    scales; build_model checks the steps against the plan. Every rejection
    is a WeightFileError."""
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob)
    magic, version, wbits, abits, count = _HEADER.unpack(r.take(_HEADER.size))
    if magic != WEIGHT_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {WEIGHT_MAGIC!r}")
    if version != WEIGHT_VERSION:
        raise WeightFileError(f"unsupported version {version}")
    if not 2 <= wbits <= 8:
        raise BitWidthError(f"weight bit width {wbits} outside 2..8")
    if not 1 <= abits <= 8:
        raise BitWidthError(f"activation bit width {abits} outside 1..8")
    if count != len(CONV_PLAN):
        raise LayerCountError(f"layer count {count}, expected {len(CONV_PLAN)}")
    layers = []
    for n in range(1, count + 1):
        idx, kernel, in_ch, out_ch, ws, ins, outs, bias_flag = _LAYER_HEAD.unpack(
            r.take(_LAYER_HEAD.size)
        )
        if idx != n:
            raise WeightFileError(f"layer index {idx} out of order (expected {n})")
        if kernel not in (1, 3):
            raise WeightFileError(f"layer {n}: kernel {kernel} not 1 or 3")
        if bias_flag not in (0, 1):
            raise WeightFileError(f"layer {n}: bias flag {bias_flag}")
        wn = out_ch * in_ch * kernel * kernel
        weights = np.frombuffer(r.take(wn), dtype=np.int8).reshape(out_ch, in_ch, kernel, kernel)
        bias = None
        if bias_flag:
            bias = np.frombuffer(r.take(4 * out_ch), dtype="<i4")
        if n == 1:
            ins = _restore_exact_scale(ins, PIXEL_SCALE, f"conv{n} input")
        if n == count:
            outs = _restore_exact_scale(outs, PIXEL_SCALE, f"conv{n} output")
        try:
            layers.append(_conv_step(n, wbits, abits, weights, bias, ws, ins, outs))
        except ValueError as e:
            raise WeightFileError(str(e)) from e
    if r.pos != len(blob):
        raise WeightFileError(f"{len(blob) - r.pos} trailing bytes after last layer")
    return WeightFile(weight_bits=wbits, act_bits=abits, layers=tuple(layers))


def _restore_exact_scale(stored: float, exact: float, what: str) -> float:
    """Weight files hold 32-bit scales; the two boundary scales are defined
    as exact 1/255. Accept the 32-bit rounding of it, hand back the exact
    64-bit value."""
    if stored != float(np.float32(exact)):
        raise WeightFileError(f"{what}: stored scale {stored!r} is not 1/255")
    return exact


def build_model(cfg: ModelConfig, wf: WeightFile) -> Model:
    """The model of cfg running wf's conv steps, validated against the plan.
    Sets BLAS to one thread, process-wide (kernels._pin_blas_threads), so
    every forward pass, in any thread, runs its matmuls on one thread."""
    model = Model(config=cfg, layers=tuple(wf.layers))
    validate_model(model)
    _pin_blas_threads()
    return model


def _f32(x: float) -> float:
    return float(np.float32(x))


def random_init(cfg: ModelConfig, seed: int, with_bias: bool = True) -> Model:
    """Deterministic in-range weights and scales for fixtures and benchmarks.

    Scales are chosen so mid-lattice activation values actually occur (a
    crude variance-preserving heuristic), and are rounded through 32 bits
    up front so a save/load round trip is bit-exact; the two boundary
    scales are the exact 1/255 a load restores.
    """
    rng = np.random.default_rng(seed)
    layers = []
    in_scale = _f32(PIXEL_SCALE)
    for i, (cin, cout, k) in enumerate(CONV_PLAN, start=1):
        wbits, abits = _layer_bits(cfg.weight_bits, cfg.act_bits, i)
        last = i == len(CONV_PLAN)
        wp = QuantParams(bits=wbits, signed=True, scale=1.0)
        n = cin * k * k
        weights = rng.integers(wp.qmin, wp.qmax + 1, size=(cout, cin, k, k))
        jitter = 2.0 ** rng.uniform(-0.5, 0.5)
        w_scale = _f32(jitter / (wp.qmax * np.sqrt(n)))
        in_bits = 8 if i == 1 else _layer_bits(cfg.weight_bits, cfg.act_bits, i - 1)[1]
        in_qmax = (1 << in_bits) - 1
        acc_real_std = np.sqrt(n) * (in_qmax * in_scale / 2.0) * (
            wp.qmax * w_scale / np.sqrt(3.0)
        )
        out_qmax = (1 << abits) - 1
        if last:
            out_scale = PIXEL_SCALE
        else:
            out_scale = _f32(max(3.5 * acc_real_std / out_qmax, 1e-12))
        bias = None
        if with_bias:
            acc_std = np.sqrt(n) * (in_qmax / 2.0) * (wp.qmax / np.sqrt(3.0))
            b = max(1, int(acc_std / 4.0))
            bias = rng.integers(-b, b + 1, size=cout)
        # conv1 reads the exact pixel lattice; the arithmetic above uses its
        # 32-bit copy, as the recorded benchmark files were made with it
        step_in = PIXEL_SCALE if i == 1 else in_scale
        layers.append(_conv_step(i, cfg.weight_bits, cfg.act_bits, weights, bias, w_scale,
                                 step_in, out_scale))
        in_scale = out_scale
    return build_model(cfg, WeightFile(cfg.weight_bits, cfg.act_bits, tuple(layers)))


# ---------------------------------------------------------------------------
# Forward passes


def _check_input_quant(x: QuantTensor) -> None:
    if x.shape != INPUT_SHAPE:
        raise ValueError(f"input shape {x.shape}, expected {INPUT_SHAPE}")
    if x.params != PIXEL_LATTICE:
        raise ValueError("input must be 8-bit unsigned at scale 1/255")


def precision_plan(model: Model) -> list:
    """(conv name, input lattice qmax, accumulator bound, accumulator dtype)
    per convolution: what conv2d_acc's acc_plan picks for the lattice each
    layer's input arrives on (the 8-bit pixel lattice, then the previous
    conv's output lattice, which pools pass through). Raises ValueError
    naming the first layer whose bound reaches 2^31."""
    rows = []
    params = PIXEL_LATTICE
    for layer in model.layers:
        try:
            bound, dtype = acc_plan(params, layer.weights)
        except ValueError as e:
            raise ValueError(f"{layer.name}: {e}") from e
        rows.append((layer.name, params.qmax, bound, dtype))
        params = layer.requant.out_params
    return rows


def forward(model: Model, x: QuantTensor) -> QuantTensor:
    """Integer inference: each step's conv accumulator is max-pooled by the
    step's pool, if any, then requantized (conv2d_acc says why that order is
    exact)."""
    _check_input_quant(x)
    for layer in model.layers:
        x = requantize(
            conv2d_acc(x, layer.weights, pool_stride=layer.pool_stride), layer.requant
        )
    return x


def forward_float(model: Model, x: FloatTensor, mode: str = "fake_quant") -> FloatTensor:
    """The fake-quant reference forward pass on a real-valued tensor;
    "fake_quant" is the only mode.

    It mirrors every integer rounding decision: inputs are snapped back to
    their lattice (exact, because lattice points dequantize with error far
    below half a step), convolution runs in float64 over those integer
    values (exact, all partial sums are far below 2^53), and the result goes
    through the very same requantize step as the integer path.
    """
    if x.shape != INPUT_SHAPE:
        raise ValueError(f"input shape {x.shape}, expected {INPUT_SHAPE}")
    if mode != "fake_quant":
        raise ValueError(f"unknown mode {mode!r}")
    grid = x.grid()
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("float input must lie in [0, 1]")

    for layer in model.layers:
        w = layer.weights
        rq = layer.requant
        # snap the real carrier back onto the input lattice (exact recovery)
        q_in = np.clip(np.rint(grid / rq.in_scale), 0, None)
        q_out = requantize(conv2d_real(q_in, w.weights, w.bias), rq)
        grid = q_out.grid().astype(np.float64) * rq.out_scale
        # pooling after requantize is the unfused order, so this checks
        # forward's pool-then-requantize independently
        if layer.pool_stride is not None:
            grid = maxpool_grid(grid, layer.pool_stride)
    h, wd, c = grid.shape
    return FloatTensor(shape=(h, wd, c), data=grid.reshape(-1))
