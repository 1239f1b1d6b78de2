"""Independent reference implementations and random-instance generators the
tests check the package against. Everything here is deliberately written
the slow, obvious way and shares no code with the package internals beyond
public data types.
"""

from __future__ import annotations

import numpy as np

from lpyolo.kernels import ConvWeights, RequantSpec, conv2d_real, requantize
from lpyolo.model import INPUT_SIZE, OUTPUT_GRID
from lpyolo.postprocess import Detection
from lpyolo.qcore import QuantParams, QuantTensor


def seven_loop_conv(x, w, bias=None):
    """Naive 'same' convolution: seven explicit loops, stride 1."""
    x = np.asarray(x)
    w = np.asarray(w)
    out_ch, in_ch, kh, kw = w.shape
    h, wd, _ = x.shape
    pad = kh // 2
    oh, ow = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    acc = np.zeros((oh, ow, out_ch), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            for oc in range(out_ch):
                s = 0
                for ic in range(in_ch):
                    for ky in range(kh):
                        for kx in range(kw):
                            iy = oy + ky - pad
                            ix = ox + kx - pad
                            if 0 <= iy < h and 0 <= ix < wd:
                                s += int(x[iy, ix, ic]) * int(w[oc, ic, ky, kx])
                if bias is not None:
                    s += int(bias[oc])
                acc[oy, ox, oc] = s
    return acc


def ref_decode_grid(grid, cfg, conf_threshold, decode_mode="anchor_pow2"):
    """decode_grid as a triple loop over (row, col, anchor), one scalar
    float64 expression per value."""
    out = []
    for row in range(OUTPUT_GRID):
        for col in range(OUTPUT_GRID):
            for a, (aw, ah) in enumerate(cfg.anchors):
                tx, ty, tw, th, obj, cls = grid[row, col, a * 6 : (a + 1) * 6]
                if obj * cls < conf_threshold:
                    continue
                if decode_mode == "direct":
                    w, h = tw, th
                else:
                    w = aw * (2.0 * tw) ** 2 / INPUT_SIZE
                    h = ah * (2.0 * th) ** 2 / INPUT_SIZE
                out.append(
                    Detection(
                        cx=(tx + col) / OUTPUT_GRID,
                        cy=(ty + row) / OUTPUT_GRID,
                        w=min(w, 1.0),
                        h=min(h, 1.0),
                        objectness=obj,
                        class_score=cls,
                    )
                )
    return out


def _ref_iou(a, b):
    ax1, ay1 = a.cx - a.w / 2.0, a.cy - a.h / 2.0
    ax2, ay2 = a.cx + a.w / 2.0, a.cy + a.h / 2.0
    bx1, by1 = b.cx - b.w / 2.0, b.cy - b.h / 2.0
    bx2, by2 = b.cx + b.w / 2.0, b.cy + b.h / 2.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    return inter / union if union > 0 else 0.0


def ref_nms(dets, thr):
    """Greedy suppression written from the definition: take the best of
    whatever remains (score desc, center/size ascending on ties), drop
    everything overlapping it more than thr, repeat."""
    remaining = list(dets)
    kept = []
    while remaining:
        best = remaining[0]
        for d in remaining[1:]:
            key_d = (-d.score, d.cx, d.cy, d.w, d.h, d.objectness)
            key_b = (-best.score, best.cx, best.cy, best.w, best.h, best.objectness)
            if key_d < key_b:
                best = d
        kept.append(best)
        remaining = [
            d for d in remaining if d is not best and _ref_iou(best, d) <= thr
        ]
    return kept


def random_layer(rng, wbits, abits):
    """A random small quantized conv layer plus a matching random input."""
    cin = int(rng.integers(1, 17))
    cout = int(rng.integers(1, 17))
    h = int(rng.integers(1, 17))
    w = int(rng.integers(1, 17))
    k = int(rng.choice([1, 3]))
    in_bits = int(rng.integers(1, 9))

    def f32(v):
        return float(np.float32(v))

    in_scale = f32(2.0 ** rng.uniform(-10.0, 1.0))
    w_scale = f32(2.0 ** rng.uniform(-10.0, 1.0))
    wp = QuantParams(bits=wbits, signed=True, scale=w_scale)
    weights = rng.integers(wp.qmin, wp.qmax + 1, size=(cout, cin, k, k)).astype(
        np.int32
    )
    bias = None
    if rng.random() < 0.5:
        bias = rng.integers(-1000, 1001, size=cout).astype(np.int32)
    cw = ConvWeights(weights=weights, w_params=wp, bias=bias)

    if rng.random() < 0.3:
        activation = "rescaled_hardtanh"
        out_scale = 1.0 / ((1 << abits) - 1)
    else:
        activation = "relu"
        out_scale = f32(2.0 ** rng.uniform(-10.0, 1.0))
    rs = RequantSpec(
        in_scale=in_scale,
        w_scale=w_scale,
        out_scale=out_scale,
        out_bits=abits,
        activation=activation,
    )

    in_params = QuantParams(bits=in_bits, signed=False, scale=in_scale)
    data = rng.integers(0, in_params.qmax + 1, size=h * w * cin).astype(np.int32)
    x = QuantTensor(shape=(h, w, cin), data=data, params=in_params)
    return x, cw, rs


def fake_quant_layer(x: QuantTensor, cw: ConvWeights, rs: RequantSpec) -> QuantTensor:
    """Reference layer: dequantize, snap back onto the lattice, convolve in
    float64, then requantize exactly like the integer path does."""
    real = x.grid().astype(np.float64) * rs.in_scale
    q_in = np.rint(real / rs.in_scale)
    acc = conv2d_real(q_in, cw.weights, cw.bias)
    return requantize(acc, rs)
