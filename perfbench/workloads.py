"""The three workloads and the seeded inputs they run on.

Weights are fixed (random_init with WEIGHT_SEED), so the candidate counts
the workloads were sized on hold for every run. The workload seed drives
every frame and every annotation: the same seed gives the same inputs,
and no two frames of a run are equal, so no two inputs share work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

WEIGHT_SEED = 0

STREAM_WIDTH, STREAM_HEIGHT = 640, 480
EVAL_SIZE = 416
EVAL_IMAGES_PER_CALL = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "stream" (serve_tcp + one TCP client) or "eval" (cli eval calls)
    bits: int  # weight and activation bits of convs 2..9
    conf: float
    rate: float | None  # paced source rate in frames/s; None = backlog


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-backlog", "stream", 4, 0.25, None),
        Workload("stream-paced", "stream", 4, 0.0, 1.5),
        Workload("eval-8w8a", "eval", 8, 0.2667, None),
    )
}


def stream_frame(seed: int, index: int) -> bytes:
    """RGB bytes of stream frame `index`: uniform noise, 640x480."""
    rng = np.random.default_rng([seed, 0, index])
    return rng.bytes(3 * STREAM_WIDTH * STREAM_HEIGHT)


def eval_image(seed: int, index: int) -> bytes:
    """RGB bytes of eval image `index`: uniform noise, 416x416."""
    rng = np.random.default_rng([seed, 1, index])
    return rng.bytes(3 * EVAL_SIZE * EVAL_SIZE)


def eval_indices(call: int) -> range:
    """Global image indices of eval call `call`."""
    return range(call * EVAL_IMAGES_PER_CALL, (call + 1) * EVAL_IMAGES_PER_CALL)


def image_id(index: int) -> str:
    return f"{index:06d}.ppm"


def gt_boxes(seed: int, index: int) -> list:
    """One to four integer (x, y, w, h) face boxes inside the image, sized
    like the boxes the fixed weights predict so that some of them match."""
    rng = np.random.default_rng([seed, 2, index])
    boxes = []
    for _ in range(int(rng.integers(1, 5))):
        w, h = (int(v) for v in rng.integers(110, 210, size=2))
        x = int(rng.integers(0, EVAL_SIZE - w + 1))
        y = int(rng.integers(0, EVAL_SIZE - h + 1))
        boxes.append((x, y, w, h))
    return boxes


def write_eval_call(directory, seed: int, call: int) -> str:
    """Write the PPM files and the WIDER-style annotation file of one eval
    call into `directory`; return the annotation path."""
    from lpyolo.imaging import Image, write_ppm

    os.makedirs(directory, exist_ok=True)
    lines = []
    for n in eval_indices(call):
        write_ppm(
            Image(EVAL_SIZE, EVAL_SIZE, eval_image(seed, n)),
            os.path.join(directory, image_id(n)),
        )
        boxes = gt_boxes(seed, n)
        lines += [image_id(n), str(len(boxes))]
        lines += [f"{x} {y} {w} {h}" for x, y, w, h in boxes]
    gt = os.path.join(directory, "gt.txt")
    with open(gt, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return gt
