"""Span recording around lpyolo's public functions, from outside the package.

install() wraps each traced function and rebinds the wrapper by identity in
every loaded lpyolo.* module namespace, so call sites that did
`from .model import forward` see it too. Spans stay in memory until the
run ends.

A span is (id, name, start, end, parent id, frame, thread, count):
`count` is len() of a list or bytes result (candidates, kept, wire bytes).
`frame` numbers the frames a thread handles: the first frame-opening
function a thread calls marks its frame boundary, and spans before the
first boundary (model loading) carry frame -1. Each pipeline stage is one
FIFO thread, so frame k of every stage is the same frame.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

TRACED = {
    "imaging": ("read_ppm", "resize_nearest", "pack_input"),
    "model": ("load_weights", "build_model", "forward"),
    "kernels": ("conv2d_acc", "requantize", "maxpool"),
    "postprocess": ("dequantize_output", "decode_grid", "nms", "evaluate_ap"),
    "pipeline": ("encode_frame", "read_frame"),
}
ALL = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
FRAME_OPENERS = frozenset(
    ("imaging.read_ppm", "imaging.resize_nearest", "model.forward",
     "postprocess.dequantize_output", "pipeline.encode_frame", "pipeline.read_frame")
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        opener = name in FRAME_OPENERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = self._local
            if not hasattr(loc, "stack"):
                loc.stack, loc.opener, loc.frame = [], None, -1
            stack = loc.stack
            if opener and not stack and loc.opener in (None, name):
                loc.opener = name
                loc.frame += 1
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = len(out) if isinstance(out, (list, bytes)) else None
            self.spans.append(
                (sid, name, start, end, parent, loc.frame,
                 threading.current_thread().name, count)
            )
            return out

        return traced


def install(tracer: Tracer, names=ALL):
    """Wrap `names` ("module.function") everywhere they are bound inside
    lpyolo; return a function that puts the originals back."""
    import lpyolo.cli  # noqa: F401  loads every module that can hold a binding

    swaps = {}
    for name in names:
        mod, fn_name = name.split(".")
        fn = getattr(sys.modules[f"lpyolo.{mod}"], fn_name)
        swaps[id(fn)] = (fn, tracer.wrap(name, fn))
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "lpyolo" and not modname.startswith("lpyolo."):
            continue
        for attr, val in list(vars(module).items()):
            hit = swaps.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(module, attr, hit[1])
                undo.append((module, attr, val))

    def restore():
        for module, attr, val in undo:
            setattr(module, attr, val)

    return restore
