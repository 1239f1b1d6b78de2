"""Layer-level compute: integer convolution, requantizing activations, max
pooling, and the sigmoid / rescaled-hardtanh pair.

The integer path carries integers in float registers: each convolution
accumulates in float32 or float64, whichever a static bound on the
accumulator proves exact (see acc_plan), so BLAS does the matmuls and every
value it produces is an exact integer; a convolution, with its pool, is a
matmul over an im2col copy of its input, built and multiplied one band of
output rows at a time so its scratch stays within a fixed budget (see
conv2d_acc and BAND_BYTES). Requantization then applies a single float64
multiplier that folds the three scales, chunk by chunk, and writes one byte
(qcore.ACT_DTYPE) per activation. The float reference path reuses the exact same requantize
step, which is what makes the two paths provably bit-identical: both hand it
the same integer accumulator values.

Every matmul runs on one BLAS thread: model.build_model calls
_pin_blas_threads, which sets numpy's bundled OpenBLAS to one thread for
the whole process.
"""

from __future__ import annotations

import ctypes
import glob
import logging
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .qcore import ACT_DTYPE, QuantParams, QuantTensor

__all__ = [
    "ConvWeights",
    "RequantSpec",
    "ACTIVATIONS",
    "acc_plan",
    "sigmoid",
    "rescaled_hardtanh",
    "conv2d_acc",
    "conv2d_real",
    "requantize",
    "maxpool",
    "maxpool_grid",
    "scratch_bytes",
]

log = logging.getLogger("lpyolo.kernels")

# Accumulators must stay within signed 32-bit range, as the hardware's do;
# acc_plan refuses any layer whose bound reaches it. The largest bound of the
# random_init models is about 2^23.95 (8W8A conv7).
ACC_LIMIT = 1 << 31

ACTIVATIONS = ("relu", "rescaled_hardtanh")

# Large temporaries of conv2d_acc and requantize (see _scratch). Per thread,
# because a Model is shared by pipeline threads and every TCP client gets new
# stage threads.
_SCRATCH = threading.local()

# Bytes of im2col patch per band of output rows in conv2d_acc, and of float64
# product per chunk in requantize. From a sweep of 64 KiB to whole frames
# (seed-0 4W4A, 2 vCPU): 512 KiB to 1 MiB ran conv1 and conv2 fastest, and
# 512 KiB keeps a thread's scratch at 3.5 MB, conv1's 2.1 MB padded input
# being most of it, against 18.7 MB for whole-frame patches.
BAND_BYTES = 1 << 19


def sigmoid(x):
    """Logistic function 1/(1+e^-x), computed without large exponentials."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rescaled_hardtanh(x):
    """clamp(x/4 + 1/2, 0, 1): sigmoid with tanh replaced by its linear clamp.

    Agrees with sigmoid to within ~0.12 everywhere; the gap peaks near x = +-2
    where the clamp saturates but the logistic has not.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.clip(0.25 * x + 0.5, 0.0, 1.0)


@dataclass(frozen=True)
class ConvWeights:
    """Signed quantized filter bank ordered [out][in][kh][kw].

    bias is optional, one 32-bit integer per output channel, expressed at the
    accumulator's scale (in_scale * w_scale) so it adds directly onto the raw
    integer accumulator.

    l1_max (largest per-output-channel sum of |weight|) and bias_max (largest
    |bias|, 0 without bias) are derived at construction; they bound every
    accumulator this filter bank can produce (see acc_plan).

    The taps are held once, as an int8 copy in patch order (out, kh, kw, in)
    (bits <= 8, so int8 holds every tap); weights is its [out][in][kh][kw]
    view, whatever integer array was passed in.
    """

    weights: np.ndarray
    w_params: QuantParams
    bias: np.ndarray | None = None
    l1_max: int = field(init=False, repr=False, compare=False)
    bias_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = self.weights
        if w.ndim != 4:
            raise ValueError(f"weights must be [out][in][kh][kw], got ndim={w.ndim}")
        if not np.issubdtype(w.dtype, np.integer):
            raise ValueError(f"weights must be integers, got {w.dtype}")
        out_ch, in_ch, kh, kw = w.shape
        if kh != kw or kh not in (1, 3):
            raise ValueError(f"kernel must be 1x1 or 3x3, got {kh}x{kw}")
        if not self.w_params.signed:
            raise ValueError("weight lattice must be signed")
        lo, hi = int(w.min(initial=0)), int(w.max(initial=0))
        if lo < self.w_params.qmin or hi > self.w_params.qmax:
            raise ValueError(
                f"weights [{lo}, {hi}] exceed "
                f"[{self.w_params.qmin}, {self.w_params.qmax}]"
            )
        # in range: the int8 copy is exact, and its abs() in int32 cannot wrap
        hwc = w.transpose(0, 2, 3, 1).astype(np.int8, order="C")
        object.__setattr__(self, "weights", hwc.transpose(0, 3, 1, 2))
        l1 = np.abs(hwc.reshape(out_ch, -1).astype(np.int32)).sum(axis=1, dtype=np.int64)
        object.__setattr__(self, "l1_max", int(l1.max(initial=0)))
        bias_max = 0
        if self.bias is not None:
            b = self.bias
            if b.ndim != 1 or b.size != out_ch:
                raise ValueError(f"bias length {b.size} != out channels {out_ch}")
            if not np.issubdtype(b.dtype, np.integer):
                raise ValueError(f"bias must be integers, got {b.dtype}")
            # widen first: abs() of the most negative int32 wraps to itself
            bias_max = int(np.abs(b.astype(np.int64)).max(initial=0))
            if bias_max >= ACC_LIMIT:
                raise ValueError("bias exceeds 32-bit accumulator range")
        object.__setattr__(self, "bias_max", bias_max)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class RequantSpec:
    """Scales and activation mapping a raw accumulator to the next lattice.

    The requant multiplier is derived once, in float64, inside this class;
    integer and float-reference paths must both go through it so the exact
    same rounding decisions fall out of both.
    """

    in_scale: float
    w_scale: float
    out_scale: float
    out_bits: int
    activation: str

    def __post_init__(self) -> None:
        for name in ("in_scale", "w_scale", "out_scale"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not 1 <= self.out_bits <= 8:
            raise ValueError(f"out_bits {self.out_bits} outside 1..8")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "rescaled_hardtanh":
            forced = 1.0 / ((1 << self.out_bits) - 1)
            if self.out_scale != forced:
                raise ValueError(
                    f"rescaled_hardtanh requires out_scale {forced!r} "
                    f"for {self.out_bits} bits, got {self.out_scale!r}"
                )

    @property
    def out_params(self) -> QuantParams:
        return QuantParams(bits=self.out_bits, signed=False, scale=self.out_scale)

    def multiplier(self) -> float:
        """Folded scale factor applied to the raw accumulator."""
        if self.activation == "relu":
            return self.in_scale * self.w_scale / self.out_scale
        return self.in_scale * self.w_scale / 4.0 / self.out_scale

    def offset(self) -> float:
        """Additive term in lattice units (hardtanh's +1/2, scaled)."""
        if self.activation == "relu":
            return 0.0
        return 0.5 / self.out_scale


def _openblas():
    """numpy's bundled OpenBLAS (the copy numpy already loaded), or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _pin_blas_threads() -> bool:
    """Set numpy's bundled OpenBLAS to one thread for the whole process and
    log the thread counts found and set; change nothing, silently, when the
    library or its thread-count symbols are missing. True when BLAS now
    runs on one thread.

    With OpenBLAS's default threads, each conv matmul in the infer stage of
    a paced stream took at least ~7.5 ms, waiting on OpenBLAS's helper
    thread (a 1x1 conv's 0.2 ms matmul took 7.6 ms), and forward after an
    idle gap took ~146 ms against ~21 ms; with one thread both are gone.
    """
    lib = _openblas()
    try:
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no library (None) or not this build's symbols
        return False
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    found = get()
    put(1)
    now = get()
    log.info("BLAS threads: found %s, set %s", found, now)
    return now == 1


def _check_conv_input(x_shape, w: ConvWeights):
    h, wd, c = x_shape
    if c != w.in_channels:
        raise ValueError(f"input channels {c} != weight channels {w.in_channels}")
    if h < 1 or wd < 1:
        raise ValueError(f"empty {h}x{wd} input")
    return w.kernel, w.kernel // 2


def acc_plan(in_params: QuantParams, w: ConvWeights) -> tuple[int, np.dtype]:
    """Static accumulator bound and the float dtype that carries it exactly.

    bound = max(|qmin_in|, qmax_in) * l1_max + bias_max. Every partial sum
    of every input on the in_params lattice, in any summation order, is an
    integer of magnitude <= bound, so a dtype whose significand holds bound
    makes the whole convolution exact: float32 below 2^24, float64 below
    2^31. At or above 2^31 a 32-bit accumulator could overflow: ValueError.
    """
    bound = max(-in_params.qmin, in_params.qmax) * w.l1_max + w.bias_max
    # a p-bit significand holds every integer of magnitude up to 2^p
    if bound < 1 << 24:
        return bound, np.dtype(np.float32)
    if bound < ACC_LIMIT:
        return bound, np.dtype(np.float64)
    raise ValueError(f"accumulator bound {bound} reaches 2^31: 32-bit overflow possible")


def _scratch(role: str, shape, dtype) -> np.ndarray:
    """This thread's buffer for `role`, viewed as `shape` of `dtype`.

    One buffer per role and thread, grown to the largest request seen and
    reused by every later call, so a forward pass maps no fresh pages. The
    contents are whatever the last call left; callers write before reading.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = getattr(_SCRATCH, role, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_SCRATCH, role, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def scratch_bytes() -> int:
    """Bytes of this thread's conv2d_acc and requantize scratch."""
    return sum(buf.nbytes for buf in vars(_SCRATCH).values())


def conv2d_acc(
    x: QuantTensor, w: ConvWeights, pool_stride: int | None = None
) -> np.ndarray:
    """Integer 'same' convolution, stride 1, returning the raw accumulator,
    max-pooled with `pool_stride` (see maxpool_grid) when given.

    Padding is k // 2 on each side, of value 0, the zero-point, i.e. real 0.
    The result is a float32 or float64 (h, w, out) array chosen by acc_plan;
    it holds exact integer values, bias (if any) included. Unpooled, each
    output pixel's k x k x in window of the padded input is copied once into
    a patch row (im2col), and a (pixels, k*k*in) @ (k*k*in, out) matmul
    gives the accumulator.

    With a stride-2 pool the patch rows are the (k+1) x (k+1) x in windows at
    every other pixel, one per pooled pixel, covering its 2x2 pool window's
    four conv windows. The phase matrix, built per call from the held taps,
    has block p = 2*dy + dx hold them shifted by (dy, dx), zeros elsewhere;
    a matmul by it writes the four phases phase-major, (4*out, pooled
    pixels), so the pool is two maxima over contiguous halves. The bias goes
    on after the pool, on a quarter of the pixels: max(a + b) = max(a) + b.
    The zero taps add nothing, so every output is the same integer sum in
    another order and acc_plan's bound still covers it. A stride-1 pool runs
    maxpool_grid on the result.

    The patch, its matmul, the pool and the bias run one band of output rows
    at a time, as many rows as keep the band's patch within BAND_BYTES (at
    least one). Output rows are independent, so a band is the same sums as
    the whole frame, and one band is the unbanded computation.

    Pooling the accumulator before requantize equals pooling its requantized
    lattice: requantize is monotone non-decreasing (a positive float64
    multiply, +offset, rint and clip each are), and max commutes with a
    monotone map. -inf padding never wins, as qmin never wins on the lattice.

    ValueError for a pool stride other than 1 or 2, or a stride-2 pool of
    odd height or width, before any arithmetic. The large temporaries live
    in this thread's scratch (see _scratch); the returned array is never one.
    """
    k, pad = _check_conv_input(x.shape, w)
    h, wd, cin = x.shape
    if pool_stride not in (None, 1, 2):
        raise ValueError(f"unsupported pool stride {pool_stride}")
    phased = pool_stride == 2
    if phased and (h % 2 or wd % 2):
        raise ValueError(f"stride-2 pool needs even spatial dims, got {h}x{wd}")
    _bound, dtype = acc_plan(x.params, w)
    cout = w.out_channels
    # the whole border is zeroed on every call, since scratch holds old values
    xp = _scratch("padded", (h + 2 * pad, wd + 2 * pad, cin), dtype)
    xp[:pad] = 0
    xp[pad + h :] = 0
    xp[pad : pad + h, :pad] = 0
    xp[pad : pad + h, pad + wd :] = 0
    xp[pad : pad + h, pad : pad + wd] = x.grid()
    step, span = (2, k + 1) if phased else (1, k)
    oh, ow = h // step, wd // step
    sy, sx, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (oh, ow, span, span, cin), (step * sy, step * sx, sy, sx, sc), writeable=False
    )
    # the taps in patch order (out, kh, kw, in): a free view of the held copy
    hwc = w.weights.transpose(0, 2, 3, 1)
    if phased:
        phase = np.zeros((4, cout, span, span, cin), dtype=dtype)
        for p, (dy, dx) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            phase[p, :, dy : dy + k, dx : dx + k] = hwc
        taps = phase.reshape(4 * cout, -1)
    else:
        taps = hwc.reshape(cout, -1).T.astype(dtype)
    # one bias row per output row: cheaper than broadcasting a short vector
    bias = None if w.bias is None else np.tile(w.bias.astype(dtype), ow)
    band = max(1, BAND_BYTES // (ow * span * span * cin * dtype.itemsize))
    out = np.empty((oh, ow, cout), dtype=dtype)
    for r0 in range(0, oh, band):
        rows = min(band, oh - r0)
        n = rows * ow
        patch = _scratch("patch", (rows, ow, span, span, cin), dtype)
        np.copyto(patch, windows[r0 : r0 + rows])
        patch = patch.reshape(n, span * span * cin)
        flat = out[r0 : r0 + rows].reshape(n, cout)
        if phased:
            prod = _scratch("phase", (4 * cout, n), dtype)
            np.matmul(taps, patch.T, out=prod)
            half = np.maximum(prod[: 2 * cout], prod[2 * cout :], out=prod[: 2 * cout])
            np.maximum(half[:cout], half[cout:], out=flat.T)
        else:
            np.matmul(patch, taps, out=flat)
        if bias is not None:
            out_rows = flat.reshape(rows, ow * cout)
            out_rows += bias
    if pool_stride == 1:
        return maxpool_grid(out, 1, pad_value=-np.inf)
    return out


def conv2d_real(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Float64 'same' convolution over raw (h, w, c) / [out][in][kh][kw] arrays.

    The carrier of the fake-quant reference pass. On integer-valued inputs
    it is exact (every partial sum stays far below 2^53) and equals
    conv2d_acc; the independent reference both are checked against is the
    seven-loop convolution in the tests.
    """
    x = np.asarray(x, dtype=np.float64)
    wt = np.asarray(weights, dtype=np.float64)
    out_ch, in_ch, kh, kw = wt.shape
    if x.shape[2] != in_ch:
        raise ValueError(f"input channels {x.shape[2]} != weight channels {in_ch}")
    oh, ow = x.shape[0], x.shape[1]
    pad = kh // 2
    x = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    acc = np.zeros((oh, ow, out_ch))
    for ky in range(kh):
        for kx in range(kw):
            acc += x[ky : ky + oh, kx : kx + ow, :] @ wt[:, :, ky, kx].T
    if bias is not None:
        acc += np.asarray(bias, dtype=np.float64)
    return acc


def requantize(acc: np.ndarray, spec: RequantSpec) -> QuantTensor:
    """Map a raw accumulator onto the unsigned output lattice, one
    ACT_DTYPE byte per activation.

    relu: q = clamp(rint(acc * M), 0, qmax), where rint rounds ties to
    even. Clamping at zero after the round is equivalent to applying ReLU
    before it, since a non-positive accumulator rounds to a non-positive
    integer.

    rescaled_hardtanh: q = clamp(rint(acc * M + qmax/2), 0, qmax)
    with M folded by 1/4 and out_scale pinned to 1/qmax, which is exactly
    clamp(real/4 + 1/2, 0, 1) expressed in lattice units.

    Accepts integer accumulators or their exact float32/float64 image; all
    produce identical results because the multiply happens in float64. It
    runs elementwise in chunks of BAND_BYTES of float64, in this thread's
    scratch (see _scratch).
    """
    h, wd, c = acc.shape
    flat = acc.reshape(-1)
    m, off, p = spec.multiplier(), spec.offset(), spec.out_params
    q = np.empty(flat.size, dtype=ACT_DTYPE)
    chunk = max(1, BAND_BYTES // 8)
    for i in range(0, flat.size, chunk):
        r = _scratch("requant", (min(chunk, flat.size - i),), np.float64)
        np.multiply(flat[i : i + r.size], m, out=r, dtype=np.float64)
        if off:
            r += off
        np.rint(r, out=r)
        np.clip(r, p.qmin, p.qmax, out=r)
        # integers in [0, qmax], qmax <= 255: the cast to ACT_DTYPE is exact
        q[i : i + r.size] = r
    return QuantTensor(shape=(h, wd, c), data=q, params=p)


def maxpool_grid(grid: np.ndarray, stride: int, pad_value=0) -> np.ndarray:
    """2x2 max pool on a raw (h, w, c) array.

    stride 2 halves both spatial dims (they must be even). stride 1 keeps
    the shape, padding one row and column at the bottom/right with
    pad_value, which must be the range minimum so padding never wins.
    """
    if grid.ndim != 3:
        raise ValueError(f"expected (h, w, c) grid, got ndim={grid.ndim}")
    h, w = grid.shape[0], grid.shape[1]
    if stride == 2:
        if h % 2 or w % 2:
            raise ValueError(f"stride-2 pool needs even spatial dims, got {h}x{w}")
        top = np.maximum(grid[0::2, 0::2], grid[0::2, 1::2])
        bottom = np.maximum(grid[1::2, 0::2], grid[1::2, 1::2])
        return np.maximum(top, bottom, out=top)
    if stride == 1:
        padded = np.pad(grid, ((0, 1), (0, 1), (0, 0)), constant_values=pad_value)
        win = np.lib.stride_tricks.sliding_window_view(padded, (2, 2), axis=(0, 1))
        return win.max(axis=(3, 4))
    raise ValueError(f"unsupported pool stride {stride}")


def maxpool(x: QuantTensor, stride: int) -> QuantTensor:
    """2x2 max pool; lattice parameters pass through unchanged."""
    out = maxpool_grid(x.grid(), stride, pad_value=x.params.qmin)
    h, w, c = out.shape
    return QuantTensor(shape=(h, w, c), data=out.reshape(-1), params=x.params)
