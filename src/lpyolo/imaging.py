"""Frame I/O and preprocessing: binary PPM images, nearest-neighbor resize
to the 416x416 network input, 8-bit tensor packing, and detection overlay
drawing. Everything here is byte-deterministic; no codec libraries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .model import INPUT_SHAPE, INPUT_SIZE, PIXEL_LATTICE
from .qcore import QuantTensor

__all__ = [
    "Image",
    "PpmError",
    "read_ppm",
    "write_ppm",
    "resize_nearest",
    "pack_input",
    "to_input",
    "draw_detections",
    "list_frames",
]

BORDER_COLOR = (255, 0, 0)
BORDER_THICKNESS = 2


class PpmError(ValueError):
    pass


@dataclass(frozen=True)
class Image:
    """8-bit RGB, row-major, top-left origin."""

    width: int
    height: int
    pixels: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"empty image {self.width}x{self.height}")
        want = 3 * self.width * self.height
        if len(self.pixels) != want:
            raise ValueError(f"pixel buffer {len(self.pixels)} bytes, want {want}")

    def array(self) -> np.ndarray:
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(
            self.height, self.width, 3
        )


_WS = b" \t\r\n"


def _next_token(blob: bytes, pos: int):
    while pos < len(blob):
        c = blob[pos]
        if c in _WS:
            pos += 1
        elif c == ord("#"):
            while pos < len(blob) and blob[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(blob) and blob[pos] not in _WS:
        pos += 1
    if start == pos:
        raise PpmError("truncated header")
    return blob[start:pos], pos


def read_ppm(path) -> Image:
    """Binary PPM (P6, maxval 255) reader; header comments allowed."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] != b"P6":
        raise PpmError(f"not a binary PPM (magic {blob[:2]!r}, expected b'P6')")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _next_token(blob, pos)
        if not tok.isdigit():  # ASCII digits only; int() also takes '+', '_', '-'
            raise PpmError(f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PpmError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval}, only 255")
    if pos >= len(blob) or blob[pos] not in _WS:
        raise PpmError("missing whitespace after maxval")
    payload = blob[pos + 1 :]
    want = 3 * width * height
    if len(payload) < want:
        raise PpmError(f"truncated payload: {len(payload)} bytes, want {want}")
    if len(payload) > want:
        raise PpmError(f"{len(payload) - want} trailing bytes after payload")
    return Image(width=width, height=height, pixels=bytes(payload))


def write_ppm(img: Image, path) -> None:
    with open(path, "wb") as f:
        f.write(f"P6\n{img.width} {img.height}\n255\n".encode("ascii"))
        f.write(img.pixels)


def resize_nearest(img: Image, out_w: int = INPUT_SIZE, out_h: int = INPUT_SIZE) -> Image:
    """Nearest-neighbor stretch: src_x = floor(dst_x * src_w / out_w).

    Pure integer index arithmetic, so output bytes are identical on any
    host. Aspect ratio is not preserved.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"bad target size {out_w}x{out_h}")
    src = img.array()
    xs = (np.arange(out_w, dtype=np.int64) * img.width) // out_w
    ys = (np.arange(out_h, dtype=np.int64) * img.height) // out_h
    # two single-axis takes gather far faster than chained fancy indexing
    out = np.take(np.take(src, ys, axis=0), xs, axis=1)
    return Image(width=out_w, height=out_h, pixels=out.tobytes())


def pack_input(img: Image) -> QuantTensor:
    """416x416 RGB -> the network's 8-bit input lattice (scale 1/255), a
    copy of the frame bytes, which are already qcore.ACT_DTYPE values."""
    grid = img.array()
    if grid.shape != INPUT_SHAPE:
        raise ValueError(f"input shape {grid.shape}, expected {INPUT_SHAPE}")
    return QuantTensor(shape=INPUT_SHAPE, data=grid.reshape(-1).copy(), params=PIXEL_LATTICE)


def to_input(img: Image) -> QuantTensor:
    """Any frame -> network input: resize unless already 416x416, then pack."""
    if img.array().shape != INPUT_SHAPE:
        img = resize_nearest(img)
    return pack_input(img)


def draw_detections(img: Image, dets: list) -> Image:
    """Overlay each detection as a 2-pixel-thick rectangle outline.

    Boxes are denormalized to pixel corners with rounding, clipped to the
    image; everything outside the outlines is untouched. Drawing twice is
    a no-op, so the operation is idempotent per detection list.
    """
    arr = img.array().copy()
    h, w = img.height, img.width
    color = np.array(BORDER_COLOR, dtype=np.uint8)
    t = BORDER_THICKNESS
    for d in dets:
        x0 = int(round((d.cx - d.w / 2.0) * w))
        x1 = int(round((d.cx + d.w / 2.0) * w))
        y0 = int(round((d.cy - d.h / 2.0) * h))
        y1 = int(round((d.cy + d.h / 2.0) * h))
        cx0, cx1 = max(x0, 0), min(x1, w - 1)
        cy0, cy1 = max(y0, 0), min(y1, h - 1)
        if cx0 > cx1 or cy0 > cy1:
            continue
        for r in set(range(y0, y0 + t)) | set(range(y1 - t + 1, y1 + 1)):
            if cy0 <= r <= cy1:
                arr[r, cx0 : cx1 + 1] = color
        for c in set(range(x0, x0 + t)) | set(range(x1 - t + 1, x1 + 1)):
            if cx0 <= c <= cx1:
                arr[cy0 : cy1 + 1, c] = color
    return Image(width=w, height=h, pixels=arr.tobytes())


def list_frames(directory) -> list:
    """PPM files in a directory, lexicographic order (the frame order)."""
    names = sorted(
        n for n in os.listdir(directory) if n.lower().endswith(".ppm")
    )
    return [os.path.join(directory, n) for n in names]
