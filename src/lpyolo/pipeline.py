"""Streaming inference: preprocess -> infer -> postprocess -> stream, one
worker thread per stage, bounded blocking queues in between (a full queue
stalls the producer; nothing is ever dropped). End-of-stream is an in-band
None sentinel pushed through every queue. A failing stage records its error,
switches to draining its input so upstream never deadlocks, and the
controller re-raises once all workers have flushed.

Also defines the little-endian TCP framing for annotated frames and a
single-client server with backpressure all the way down to the socket.
"""

from __future__ import annotations

import io
import logging
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .imaging import to_input
from .model import Model, RunConfig, forward
from .postprocess import detect

__all__ = [
    "FrameMessage",
    "PipelineConfig",
    "PipelineStats",
    "PipelineError",
    "WireError",
    "WireMagicError",
    "WireVersionError",
    "WireLengthError",
    "STAGES",
    "encode_frame",
    "encode_end",
    "decode_frame",
    "read_frame",
    "run_staged",
    "run_pipeline",
    "serve_tcp",
]

log = logging.getLogger("lpyolo.pipeline")

STAGES = ("preprocess", "infer", "postprocess", "stream")

WIRE_MAGIC = b"LPYO"
WIRE_VERSION = 1
MSG_FRAME = 1
MSG_END = 2

# magic, version, msg_type, frame_id u64, width u16, height u16, num_det u16
_HEAD = struct.Struct("<4sBBQHHH")
_DET = struct.Struct("<6f")
_PAYLOAD_LEN = struct.Struct("<I")

# Largest single read request. A header may claim a payload of almost 4 GiB
# and a buffered socket reader sizes its buffer from the request, so capping
# it keeps memory growing only with the bytes that actually arrive.
MAX_READ = 1 << 20

# Seconds a send to a client may block. A client that stops reading without
# closing would otherwise stall the whole pipeline; past this it is dropped
# like a client that disconnected.
SEND_TIMEOUT_S = 30.0


class WireError(ValueError):
    pass


class WireMagicError(WireError):
    pass


class WireVersionError(WireError):
    pass


class WireLengthError(WireError):
    pass


class PipelineError(RuntimeError):
    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage {stage!r} failed: {original!r}")
        self.stage = stage
        self.original = original


@dataclass(frozen=True)
class FrameMessage:
    """One annotated frame. Each detection is 6 numbers in wire order
    (cx, cy, w, h, objectness, class_score), such as a postprocess
    Detection. They are stored as tuples of 32-bit float values (what the
    wire carries), so encode/decode round-trips are identities."""

    frame_id: int
    width: int
    height: int
    detections: tuple
    payload: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.frame_id < 1 << 64:
            raise ValueError(f"frame_id {self.frame_id} outside u64")
        if not (0 <= self.width < 1 << 16 and 0 <= self.height < 1 << 16):
            raise ValueError(f"dims {self.width}x{self.height} outside u16")
        if len(self.detections) >= 1 << 16:
            raise ValueError("too many detections for u16 count")
        if len(self.payload) != 3 * self.width * self.height:
            raise ValueError(
                f"payload {len(self.payload)} bytes, want {3 * self.width * self.height}"
            )
        dets = np.array(self.detections, dtype=np.float32)
        if self.detections and dets.shape[1:] != (6,):
            raise ValueError("detections must be 6-tuples")
        if not np.isfinite(dets).all():
            raise ValueError("non-finite detection at float32 precision")
        object.__setattr__(self, "detections", tuple(map(tuple, dets.tolist())))


@dataclass(frozen=True)
class PipelineConfig:
    queue_capacity: int = 4

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")


@dataclass
class PipelineStats:
    frames: int
    wall_seconds: float
    fps: float
    stage_busy: dict
    latencies: list


# ---------------------------------------------------------------------------
# Wire protocol


def encode_frame(msg: FrameMessage) -> bytes:
    return b"".join((
        _HEAD.pack(WIRE_MAGIC, WIRE_VERSION, MSG_FRAME, msg.frame_id, msg.width,
                   msg.height, len(msg.detections)),
        np.array(msg.detections, dtype="<f4").tobytes(),
        _PAYLOAD_LEN.pack(len(msg.payload)),
        msg.payload,
    ))


def encode_end() -> bytes:
    """End-of-stream marker: all fields after msg_type are zero."""
    return _HEAD.pack(WIRE_MAGIC, WIRE_VERSION, MSG_END, 0, 0, 0, 0) + _PAYLOAD_LEN.pack(0)


def _read_exact(f, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = f.read(min(n - got, MAX_READ))
        if not chunk:
            raise WireLengthError(f"stream ended {n - got} bytes short")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(f):
    """Read one message from a binary stream; None means end-of-stream
    marker. Raises WireError subclasses on malformed input."""
    head = _read_exact(f, _HEAD.size)
    magic, version, msg_type, frame_id, width, height, ndet = _HEAD.unpack(head)
    if magic != WIRE_MAGIC:
        raise WireMagicError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireVersionError(f"unsupported version {version}")
    if msg_type == MSG_END:
        tail = _read_exact(f, _PAYLOAD_LEN.size)
        if frame_id or width or height or ndet or _PAYLOAD_LEN.unpack(tail)[0]:
            raise WireError("end marker carries nonzero fields")
        return None
    if msg_type != MSG_FRAME:
        raise WireError(f"unknown message type {msg_type}")
    dets = tuple(_DET.iter_unpack(_read_exact(f, ndet * _DET.size)))
    (payload_len,) = _PAYLOAD_LEN.unpack(_read_exact(f, _PAYLOAD_LEN.size))
    if payload_len != 3 * width * height:
        raise WireLengthError(
            f"payload length {payload_len} != 3*{width}*{height}"
        )
    payload = _read_exact(f, payload_len)
    try:
        return FrameMessage(frame_id, width, height, dets, payload)
    except ValueError as e:  # a non-finite detection; the header fits by construction
        raise WireError(str(e)) from e


def decode_frame(data: bytes):
    """Parse one complete message from a byte string (None = end marker);
    trailing bytes are a length error."""
    buf = io.BytesIO(data)
    msg = read_frame(buf)
    rest = buf.read()
    if rest:
        raise WireLengthError(f"{len(rest)} trailing bytes after message")
    return msg


# ---------------------------------------------------------------------------
# Staged engine


def run_staged(source, stages, queue_capacity: int = 4, on_end=None) -> PipelineStats:
    """Run items from source through a chain of (name, fn) stages, one
    thread each. The last stage's return value is discarded; give it a
    side-effecting fn to deliver results. on_end (if any) runs in the last
    stage's thread after the final item, error or not.

    Raises PipelineError with the originating stage once everything has
    drained. Item order is preserved end to end.
    """
    if not stages:
        raise ValueError("need at least one stage")
    if queue_capacity < 1:
        raise ValueError("queue capacity must be >= 1")
    qs = [queue.Queue(maxsize=queue_capacity) for _ in stages]
    names = [name for name, _fn in stages]
    busy = [0.0] * len(stages)
    latencies: list = []
    done = [0]
    err: list = []
    err_lock = threading.Lock()

    def fail(name: str, exc: BaseException) -> None:
        with err_lock:
            if not err:
                err.append((name, exc))

    def worker(idx: int) -> None:
        name, fn = stages[idx]
        qin = qs[idx]
        qout = qs[idx + 1] if idx + 1 < len(qs) else None
        failed = False
        while True:
            item = qin.get()
            if item is None:
                break
            if failed or err:
                continue  # drain without work so upstream never blocks
            born, payload = item
            t0 = time.perf_counter()
            try:
                out = fn(payload)
            except Exception as e:
                fail(name, e)
                failed = True
                continue
            busy[idx] += time.perf_counter() - t0
            if qout is not None:
                qout.put((born, out))
            else:
                latencies.append(time.perf_counter() - born)
                done[0] += 1
        if qout is not None:
            qout.put(None)
        elif on_end is not None:
            try:
                on_end()
            except Exception as e:
                fail(name, e)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"stage-{names[i]}")
        for i in range(len(stages))
    ]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    try:
        for payload in source:
            if err:
                break
            qs[0].put((time.perf_counter(), payload))
    except Exception as e:
        fail("source", e)
    qs[0].put(None)
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if err:
        stage, original = err[0]
        raise PipelineError(stage, original)
    return PipelineStats(
        frames=done[0],
        wall_seconds=wall,
        fps=done[0] / wall if wall > 0 else 0.0,
        stage_busy=dict(zip(names, busy)),
        latencies=latencies,
    )


# ---------------------------------------------------------------------------
# The real four stages


def _build_stages(model: Model, run_cfg: RunConfig, sink):
    def preprocess(item):
        frame_id, img = item
        return frame_id, img, to_input(img)

    def infer(item):
        frame_id, img, x = item
        return frame_id, img, forward(model, x)

    def postprocess(item):
        frame_id, img, out = item
        dets = detect(out, model.config, run_cfg)
        return FrameMessage(
            frame_id=frame_id,
            width=img.width,
            height=img.height,
            detections=tuple(dets),
            payload=img.pixels,
        )

    def stream(msg: FrameMessage):
        sink(msg)

    return list(zip(STAGES, (preprocess, infer, postprocess, stream)))


def _run_numbered(pairs, model: Model, sink, cfg, run_cfg) -> PipelineStats:
    cfg = cfg or PipelineConfig()
    run_cfg = run_cfg or RunConfig()
    stages = _build_stages(model, run_cfg, sink)
    return run_staged(
        pairs, stages, queue_capacity=cfg.queue_capacity,
        on_end=lambda: sink(None),
    )


def run_pipeline(source, model: Model, sink, cfg: PipelineConfig | None = None,
                 run_cfg: RunConfig | None = None) -> PipelineStats:
    """Push every frame (an imaging.Image iterable) through the four-stage
    pipeline; sink receives one FrameMessage per frame in order, then None
    as the end-of-stream marker."""
    return _run_numbered(enumerate(source), model, sink, cfg, run_cfg)


# ---------------------------------------------------------------------------
# TCP service


def serve_tcp(address, source, model: Model, cfg: PipelineConfig | None = None,
              run_cfg: RunConfig | None = None, on_bound=None) -> PipelineStats:
    """Serve encoded frames to one client at a time until the source runs
    out. A client that dies mid-stream, or whose send blocks longer than
    SEND_TIMEOUT_S, is logged and dropped; the next accepted client resumes
    from wherever the shared source iterator stopped (frames in flight
    during the failure are not replayed).
    Frame ids number source frames, so they keep counting across a client
    swap. Returns the stats of the run that exhausted the source.
    """
    frames = enumerate(iter(source))
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(address)
        srv.listen(1)
        if on_bound is not None:
            on_bound(srv.getsockname())
        while True:
            conn, peer = srv.accept()
            conn.settimeout(SEND_TIMEOUT_S)
            log.info("client %s connected", peer)
            try:
                sink = _socket_sink(conn)
                stats = _run_numbered(frames, model, sink, cfg, run_cfg)
                log.info(
                    "stream complete: %d frames in %.2fs", stats.frames,
                    stats.wall_seconds,
                )
                return stats
            except PipelineError as e:
                if e.stage == "stream" and isinstance(e.original, OSError):
                    log.warning("client %s dropped: %s; awaiting next", peer, e.original)
                    continue
                raise
            finally:
                conn.close()
    finally:
        srv.close()


def _socket_sink(conn: socket.socket):
    """Send each message to conn. After a failed send the stream may end
    inside a message, so no end marker follows: the client could not parse
    it, and a stalled client would hold the stream for another timeout."""
    failed = False

    def sink(msg):
        nonlocal failed
        if msg is None and failed:
            return
        try:
            conn.sendall(encode_end() if msg is None else encode_frame(msg))
        except OSError:
            failed = True
            raise

    return sink
