"""From prediction grid to face boxes: dequantize the 13x13x18 output,
decode cell/anchor offsets into normalized boxes, suppress overlaps, and
score detections against ground truth with single-class average precision.

Channel contract per cell: 3 anchors x 6 values, anchor-major, i.e. channel
a*6+f holds field f of anchor a with fields (tx, ty, tw, th, objectness,
class_score), all already squashed to [0, 1] by the network's last
activation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (DECODE_MODES, INPUT_SIZE, OUTPUT_GRID, OUTPUT_SHAPE, PIXEL_LATTICE,
                    ModelConfig, RunConfig)
from .qcore import QuantTensor

__all__ = [
    "Detection",
    "GroundTruthSet",
    "dequantize_output",
    "decode_grid",
    "nms",
    "detect",
    "evaluate_ap",
    "parse_widerface_gt",
    "to_pixel_box",
    "format_detection_line",
]

FIELDS_PER_ANCHOR = 6
# Ranked boxes per `_iou_row` call in `nms`. From a sweep of 8 to 64 on the
# 507 candidates of seed-0 4W4A stream frames (2 vCPU, one worker thread):
# 24 to 32 ran fastest; 16 took 6% longer, 64 8% longer and grew peak RSS
# by 0.8 MB, against 0.2-0.3 MB at 32.
NMS_BLOCK = 32


class Detection(NamedTuple):
    """One box, center-form, normalized to [0,1] of the frame size. The
    fields are in wire order, so a Detection is the record a frame message
    carries. Values are not checked here: `decode_grid` checks its grid,
    and `FrameMessage` checks what it is given."""

    cx: float
    cy: float
    w: float
    h: float
    objectness: float
    class_score: float

    @property
    def score(self) -> float:
        return self.objectness * self.class_score


@dataclass(frozen=True)
class GroundTruthSet:
    """image id -> list of (x, y, w, h) pixel boxes, corner-origin: finite,
    w and h positive."""

    boxes: dict

    def __post_init__(self) -> None:
        for image_id, items in self.boxes.items():
            for b in items:
                if len(b) != 4 or not all(map(math.isfinite, b)) or b[2] <= 0 or b[3] <= 0:
                    raise ValueError(f"{image_id}: degenerate box {b}")

    def total(self) -> int:
        return sum(len(v) for v in self.boxes.values())


def dequantize_output(grid: QuantTensor) -> np.ndarray:
    """8-bit prediction grid -> real values in [0, 1]."""
    if grid.shape != OUTPUT_SHAPE:
        raise ValueError(f"grid shape {grid.shape}, expected {OUTPUT_SHAPE}")
    if grid.params != PIXEL_LATTICE:
        raise ValueError("output grid must be 8-bit unsigned at scale 1/255")
    return grid.grid().astype(np.float64) * PIXEL_LATTICE.scale


def decode_grid(
    grid: np.ndarray,
    cfg: ModelConfig,
    conf_threshold: float,
    decode_mode: str = "anchor_pow2",
) -> list:
    """Real-valued grid -> detections above conf_threshold.

    Cell (row, col), anchor a with predictions p in [0,1]:
      cx = (p_tx + col) / 13, cy = (p_ty + row) / 13
      direct:      w = p_tw, h = p_th
      anchor_pow2: w = anchor_w * (2*p_tw)^2 / 416, likewise h
    anchor_pow2 keeps anchors meaningful although the squashed outputs can
    never express an exponential size term; p=0.5 reproduces the anchor
    itself. Sizes clamp to [0,1]. Kept detections need
    objectness * class_score >= conf_threshold. Every grid value must be in
    [0, 1]; NaN is rejected too.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.shape != OUTPUT_SHAPE:
        raise ValueError(f"grid shape {grid.shape}, expected {OUTPUT_SHAPE}")
    if not ((grid >= 0.0) & (grid <= 1.0)).all():
        raise ValueError("grid values outside [0, 1]")
    if decode_mode not in DECODE_MODES:
        raise ValueError(f"unknown decode_mode {decode_mode!r}")
    # with every input in [0, 1], every decoded value is too: cx and cy are
    # (t + cell) / 13 with cell <= 12, sizes clamp to 1, anchors are > 0
    fields = grid.reshape(OUTPUT_GRID, OUTPUT_GRID, len(cfg.anchors), FIELDS_PER_ANCHOR)
    # survivors in (row, col, anchor) order
    keep = fields[..., 4] * fields[..., 5] >= conf_threshold
    row, col, a = np.nonzero(keep)
    tx, ty, tw, th, obj, cls = fields[keep].T
    if decode_mode == "direct":
        w, h = tw, th
    else:
        aw, ah = np.array(cfg.anchors, dtype=np.float64)[a].T
        # float_power calls libm pow, as `**` on a float64 scalar does; `**`
        # on an array squares instead, which can differ in the last bit
        w = aw * np.float_power(2.0 * tw, 2.0) / INPUT_SIZE
        h = ah * np.float_power(2.0 * th, 2.0) / INPUT_SIZE
    boxes = np.stack(
        ((tx + col) / OUTPUT_GRID, (ty + row) / OUTPUT_GRID,
         np.minimum(w, 1.0), np.minimum(h, 1.0), obj, cls),
        axis=1,
    )
    return list(map(Detection._make, boxes.tolist()))


def _iou_row(a, bx, by, bw, bh):
    """Intersection over union of (x, y, w, h) corner-origin rectangles a
    against arrays of rectangles b, broadcast elementwise: one rectangle a
    gives a row, a block of them as (B, 1) columns gives B rows. A pair
    whose union is not positive reads as 0. NMS and AP matching both decide
    on these values."""
    ax, ay, aw, ah = a
    ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    # roundoff in (x + w) - x can push the ratio an ulp past 1 for
    # identical boxes; the true value never exceeds 1
    return np.minimum(1.0, out, out=out)


def nms(dets: list, iou_threshold: float) -> list:
    """Greedy suppression: keep the best, drop overlaps above the threshold
    (strict >), repeat. Output stays sorted best-first: score descending,
    then cx, cy, w, h and objectness ascending, so it never depends on input
    order. Raises ValueError if any field of any detection is NaN or
    infinite, where that order is not defined.

    One sweep in ranked order, NMS_BLOCK ranks at a time: each box still
    alive when reached is the best of what remains, so it is kept and
    suppresses the alive boxes after it. A block takes one `_iou_row` call,
    its rows against every live box; rows are then settled in order, and
    only the boxes a block leaves alive reach the next.
    """
    boxes = np.array(dets, dtype=np.float64).reshape(-1, 6)
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite detection field")
    cx, cy, w, h, obj, cls = boxes.T
    x, y = cx - w / 2.0, cy - h / 2.0
    # indices of the boxes still alive, best first; lexsort is stable, so
    # fully equal keys keep their input order
    live = np.lexsort((obj, h, w, cy, cx, -(obj * cls)))
    kept = []
    while live.size:
        head = live[:NMS_BLOCK, None]
        n = len(head)
        ok = _iou_row((x[head], y[head], w[head], h[head]),
                      x[live], y[live], w[live], h[live]) <= iou_threshold
        alive = np.ones(live.size, dtype=bool)
        for r in range(n):
            if alive[r]:
                alive[r + 1:] &= ok[r, r + 1:]
        kept += live[:n][alive[:n]].tolist()
        live = live[n:][alive[n:]]
    return [dets[i] for i in kept]


def detect(out: QuantTensor, cfg: ModelConfig, run: RunConfig) -> list:
    """Network output grid -> final detections: dequantize, decode, NMS."""
    dets = decode_grid(dequantize_output(out), cfg, run.conf_threshold, run.decode_mode)
    return nms(dets, run.nms_iou)


def evaluate_ap(preds: list, gt: GroundTruthSet, iou_threshold: float = 0.5) -> float:
    """Single-class average precision.

    preds: (image_id, score, x, y, w, h) tuples in pixels. Each prediction,
    taken in descending score order, matches the highest-IoU not yet
    matched ground-truth box of its image when that IoU clears the
    threshold; otherwise it counts as a false positive. AP is the area
    under the precision-recall curve with all-points interpolation.

    No ground truth at all -> 0.0 by convention. ValueError for an unknown
    image, a NaN or infinite score or box field (the order is then not
    defined), or an iou_threshold that is NaN or outside [0, 1].
    """
    if not 0.0 <= iou_threshold <= 1.0:  # false for NaN too
        raise ValueError(f"iou_threshold {iou_threshold} outside [0, 1]")
    for p in preds:
        if p[0] not in gt.boxes:
            raise ValueError(f"prediction references unknown image {p[0]!r}")
        if not all(map(math.isfinite, p[1:])):
            raise ValueError(f"non-finite prediction field in {p!r}")
    n_gt = gt.total()
    if n_gt == 0:
        return 0.0
    order = sorted(preds, key=lambda p: (-p[1], p[0], p[2], p[3], p[4], p[5]))
    boxes = {img: np.array(b, dtype=np.float64).reshape(-1, 4).T for img, b in gt.boxes.items()}
    matched = {img: np.zeros(len(b), dtype=bool) for img, b in gt.boxes.items()}
    tp = np.zeros(len(order))
    for i, (img, _score, x, y, w, h) in enumerate(order):
        if not matched[img].size:
            continue
        row = _iou_row((x, y, w, h), *boxes[img])
        row[matched[img]] = 0.0
        # argmax keeps the first of equal bests; an IoU of 0 never matches
        j = np.argmax(row)
        if row[j] > 0.0 and row[j] >= iou_threshold:
            matched[img][j] = True
            tp[i] = 1.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(order) + 1)
    recall = cum_tp / n_gt
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision, [0.0]))[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _is_zero_placeholder(line: str) -> bool:
    toks = line.split()
    if len(toks) < 4:
        return False
    try:
        return all(float(t) == 0.0 for t in toks)
    except ValueError:
        return False


def _decimal(tok: str) -> int:
    """int(tok) for ASCII digits after at most one leading '-'. int() alone
    also takes '+', '_' separators, surrounding spaces and other scripts'
    digits."""
    if not (tok.isascii() and tok.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {tok!r}")
    return int(tok)


def parse_widerface_gt(path) -> GroundTruthSet:
    """Annotation text format: image filename line, face count line, then
    count lines each starting "x y w h" (trailing attribute columns are
    ignored). A count of 0 yields an empty list; some published annotation
    files follow a zero count with one all-zeros placeholder row, which is
    consumed and ignored."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    boxes: dict = {}
    i = 0
    while i < len(lines):
        image_id = lines[i].strip()
        if not image_id:
            i += 1
            continue
        if i + 1 >= len(lines):
            raise ValueError(f"line {i + 1}: file ends before face count")
        count_line = lines[i + 1].strip()
        try:
            count = _decimal(count_line)
        except ValueError:
            raise ValueError(f"line {i + 2}: invalid face count {count_line!r}") from None
        if count_line.startswith("-"):
            raise ValueError(f"line {i + 2}: negative face count")
        if image_id in boxes:
            raise ValueError(f"line {i + 1}: duplicate image {image_id!r}")
        i += 2
        items = []
        for k in range(count):
            if i >= len(lines):
                raise ValueError(f"line {i + 1}: file ends inside face list")
            toks = lines[i].split()
            if len(toks) < 4:
                raise ValueError(f"line {i + 1}: expected at least x y w h")
            try:
                x, y, w, h = map(_decimal, toks[:4])
                box = (float(x), float(y), float(w), float(h))
            except ValueError:
                raise ValueError(f"line {i + 1}: non-integer box fields") from None
            except OverflowError:
                raise ValueError(f"line {i + 1}: box field beyond float range") from None
            if w <= 0 or h <= 0:
                raise ValueError(f"line {i + 1}: degenerate box {w}x{h}")
            items.append(box)
            i += 1
        if count == 0 and i < len(lines) and _is_zero_placeholder(lines[i]):
            i += 1
        boxes[image_id] = items
    return GroundTruthSet(boxes=boxes)


def to_pixel_box(d: Detection, img_w: int, img_h: int):
    """Normalized center-form detection -> (x, y, w, h) pixels, corner-origin."""
    return (
        (d.cx - d.w / 2.0) * img_w,
        (d.cy - d.h / 2.0) * img_h,
        d.w * img_w,
        d.h * img_h,
    )


def format_detection_line(image_id: str, d: Detection, img_w: int, img_h: int) -> str:
    """Stable text export: "image_id score x y w h" (pixels)."""
    x, y, w, h = to_pixel_box(d, img_w, img_h)
    return f"{image_id} {d.score:.6f} {x:.2f} {y:.2f} {w:.2f} {h:.2f}"
