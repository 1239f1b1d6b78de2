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
from lpyolo.qcore import ACT_DTYPE, QuantParams, QuantTensor


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


def _ref_box_overlap(a, b):
    """IoU of two (x, y, w, h) boxes, taken through their (x1, y1, x2, y2)
    corners."""
    ax1, ay1, ax2, ay2 = a[0], a[1], a[0] + a[2], a[1] + a[3]
    bx1, by1, bx2, by2 = b[0], b[1], b[0] + b[2], b[1] + b[3]
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def ref_evaluate_ap(preds, gt_boxes, iou_threshold):
    """Average precision from the definition: predictions by descending
    score (then image id and box), each taking the highest-overlap unmatched
    box of its image, the first of equal bests, when that overlap is above 0
    and reaches the threshold. Then the all-points precision envelope and
    area, one scalar at a time, summed with np.sum."""
    n_gt = sum(len(boxes) for boxes in gt_boxes.values())
    if n_gt == 0:
        return 0.0
    order = sorted(preds, key=lambda p: (-p[1], p[0], p[2], p[3], p[4], p[5]))
    matched = set()
    hits = 0
    mrec, mpre = [0.0], [0.0]
    for k, (img, _score, *box) in enumerate(order, start=1):
        best, best_j = 0.0, None
        for j, gt_box in enumerate(gt_boxes[img]):
            if (img, j) in matched:
                continue
            v = _ref_box_overlap(box, gt_box)
            if v > best:
                best, best_j = v, j
        if best_j is not None and best >= iou_threshold:
            matched.add((img, best_j))
            hits += 1
        mrec.append(hits / n_gt)
        mpre.append(hits / k)
    mrec.append(1.0)
    mpre.append(0.0)
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    areas = [
        (mrec[i + 1] - mrec[i]) * mpre[i + 1]
        for i in range(len(mrec) - 1)
        if mrec[i + 1] != mrec[i]
    ]
    return float(np.sum(np.array(areas, dtype=np.float64)))


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
    data = rng.integers(0, in_params.qmax + 1, size=h * w * cin).astype(ACT_DTYPE)
    x = QuantTensor(shape=(h, w, cin), data=data, params=in_params)
    return x, cw, rs


def fake_quant_layer(x: QuantTensor, cw: ConvWeights, rs: RequantSpec) -> QuantTensor:
    """Reference layer: dequantize, snap back onto the lattice, convolve in
    float64, then requantize exactly like the integer path does."""
    real = x.grid().astype(np.float64) * rs.in_scale
    q_in = np.rint(real / rs.in_scale)
    acc = conv2d_real(q_in, cw.weights, cw.bias)
    return requantize(acc, rs)
