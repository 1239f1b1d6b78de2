"""Correctness of a run's outputs: references, and the failures behind
`failed_frac`.

A stream frame is compared by (detection digest, payload CRC), an eval
image by (digest of its --detections lines, the AP line its call printed).
References come from refs.json for the default seed: recorded from the
unoptimised engine with the integer forward pass. Frames beyond the
recorded ones, and every frame of any other seed, get a reference from
model.forward_float(..., "fake_quant") for a few sampled frames. Payload
CRCs are checked for every frame.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib

import numpy as np

import workloads

REF_SEED = 0
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
SAMPLED_FRAMES = 4
SAMPLED_CALLS = 2

_DET = struct.Struct("<6f")


def det_digest(dets) -> str:
    """Digest of detection 6-tuples at wire (float32) precision."""
    blob = b"".join(_DET.pack(*d) for d in dets)
    return hashlib.sha256(blob).hexdigest()[:16]


def text_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def load_refs(workload: str, seed: int) -> dict:
    if seed != REF_SEED:
        return {}
    with open(REFS_PATH, encoding="utf-8") as f:
        return json.load(f)[workload]


def sample(keys, k: int) -> list:
    """Up to k keys spread evenly over `keys`, first and last included."""
    keys = list(keys)
    if len(keys) <= k:
        return keys
    return sorted({keys[round(i * (len(keys) - 1) / (k - 1))] for i in range(k)})


def detect(model, run_cfg, img, exact: bool) -> list:
    """Detections for one frame: the integer forward pass when `exact`,
    else the fake-quant reference pass, then dequantize, decode and NMS."""
    from lpyolo.imaging import pack_input, resize_nearest
    from lpyolo.model import INPUT_SIZE, PIXEL_SCALE, forward, forward_float
    from lpyolo.postprocess import decode_grid, dequantize_output, nms
    from lpyolo.qcore import FloatTensor, QuantTensor

    if (img.width, img.height) != (INPUT_SIZE, INPUT_SIZE):
        img = resize_nearest(img)
    x = pack_input(img)
    if exact:
        out = forward(model, x)
    else:
        ref = forward_float(
            model, FloatTensor.from_grid(x.grid().astype(np.float64) * PIXEL_SCALE)
        )
        q = np.rint(ref.grid() / PIXEL_SCALE)
        out = QuantTensor.from_grid(q, model.conv_layers()[-1].requant.out_params)
    dets = decode_grid(dequantize_output(out), model.config, run_cfg.conf_threshold,
                       run_cfg.decode_mode)
    return nms(dets, run_cfg.nms_iou)


def stream_expected(model, run_cfg, seed: int, index: int, exact: bool) -> str:
    from lpyolo.imaging import Image

    img = Image(workloads.STREAM_WIDTH, workloads.STREAM_HEIGHT,
                workloads.stream_frame(seed, index))
    dets = detect(model, run_cfg, img, exact)
    return det_digest((d.cx, d.cy, d.w, d.h, d.objectness, d.class_score) for d in dets)


def eval_expected(model, run_cfg, seed: int, call: int, exact: bool):
    """({image index: its --detections lines}, AP line) for one eval call."""
    from lpyolo.imaging import Image
    from lpyolo.postprocess import (GroundTruthSet, evaluate_ap, format_detection_line,
                                    to_pixel_box)

    size = workloads.EVAL_SIZE
    lines, preds, gt = {}, [], {}
    for n in workloads.eval_indices(call):
        iid = workloads.image_id(n)
        dets = detect(model, run_cfg, Image(size, size, workloads.eval_image(seed, n)),
                      exact)
        lines[n] = [format_detection_line(iid, d, size, size) for d in dets]
        preds += [(iid, d.score, *to_pixel_box(d, size, size)) for d in dets]
        gt[iid] = [tuple(float(v) for v in b) for b in workloads.gt_boxes(seed, n)]
    ap = evaluate_ap(preds, GroundTruthSet(boxes=gt), iou_threshold=0.5)
    return lines, f"AP@0.5: {ap:.6f}"


def failed_items(expected_order, received_order, got: dict, want: dict) -> set:
    """Keys that failed: missing, received out of place or unexpected, or
    differing from a reference. got/want map a key to a tuple of observed
    or reference values; a None in `want` means no reference for that field."""
    failed = {
        k for i, k in enumerate(received_order)
        if i >= len(expected_order) or expected_order[i] != k
    }
    failed |= set(expected_order) - set(got)
    for k, w in want.items():
        g = got.get(k)
        if g is None or any(v is not None and v != gv for v, gv in zip(w, g)):
            failed.add(k)
    return failed


def check_stream(wl, model, run_cfg, seed: int, offered: int, received: list):
    """received: (frame id, detection digest, payload crc) in arrival order.
    Returns (failed frame ids, ids whose detections were checked)."""
    refs = load_refs(wl.name, seed)
    got = {fid: (dig, crc) for fid, dig, crc in received}
    recorded = refs.get("frames", [])
    det_want = {fid: recorded[fid] for fid in got if fid < len(recorded)}
    unrecorded = [fid for fid in sorted(got) if fid not in det_want and fid < offered]
    for fid in sample(unrecorded, SAMPLED_FRAMES):
        det_want[fid] = stream_expected(model, run_cfg, seed, fid, exact=False)
    want = {
        fid: (det_want.get(fid), zlib.crc32(workloads.stream_frame(seed, fid)))
        for fid in range(offered)
    }
    failed = failed_items(list(range(offered)), [r[0] for r in received], got, want)
    return failed, sorted(det_want)


def check_eval(wl, model, run_cfg, seed: int, calls: list):
    """calls: the program's eval call records. Returns (failed image
    indices, indices checked against a reference)."""
    refs = load_refs(wl.name, seed)
    got, want, expected = {}, {}, []
    recorded = refs.get("ap", [])
    ap_want = {c: recorded[c] for c in range(len(calls)) if c < len(recorded)}
    for c in sample([c for c in range(len(calls)) if c not in ap_want], SAMPLED_CALLS):
        ref_lines, ap_want[c] = eval_expected(model, run_cfg, seed, c, exact=False)
        for n, image_lines in ref_lines.items():
            want[n] = (text_digest(image_lines), ap_want[c])
    for rec in calls:
        c = rec["call"]
        lines = rec["detections"].splitlines() if rec["rc"] == 0 else None
        for n in workloads.eval_indices(c):
            expected.append(n)
            if c in ap_want and n not in want:
                want[n] = (refs["images"][n], ap_want[c])
            if lines is None:
                continue
            iid = workloads.image_id(n)
            got[n] = (text_digest(l for l in lines if l.split(" ", 1)[0] == iid),
                      rec["printed"].strip())
    failed = failed_items(expected, expected, got, want)
    return failed, sorted(want)
