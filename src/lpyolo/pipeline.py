"""Streaming inference: preprocess -> infer -> postprocess -> stream,
bounded blocking queues in between (a full queue stalls the producer;
nothing is ever dropped). A stage runs on one or more worker threads; each
item goes to the lowest-numbered idle worker, and a stage passes results on
in the order their items arrived. Infer gets two workers when the process
may run on two CPUs and BLAS runs on one thread, the other stages one each
(see _infer_workers). Queue items are the bare payloads; end-of-stream is
a private sentinel object pushed through every queue, so None is an
ordinary item. A failing stage records its error, switches to draining its
input so upstream never deadlocks, and the controller re-raises once all
workers have flushed. An interrupt in the controller (Ctrl-C) is recorded
the same way, so the stages drain and exit before it propagates; if a send
to a client that stopped reading still blocks the stream after a short
grace, serve_tcp shuts the socket down.

Also defines the little-endian TCP framing for annotated frames and
serve_tcp, the one entry point that runs the four stages: a single-client
server with backpressure all the way down to the socket. The infer stage's
matmuls run on one BLAS thread, set when the model was built
(model.build_model) and checked again by serve_tcp.
"""

from __future__ import annotations

import collections
import logging
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .imaging import to_input
from .kernels import _pin_blas_threads
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
    "read_frame",
    "run_staged",
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

# Seconds an interrupted run waits for its stages to drain before it shuts
# the client socket down. A reading client gets the message in flight and
# the end marker well within it; a send blocked on a client that stopped
# reading is cut off once it passes, not after SEND_TIMEOUT_S.
INTERRUPT_GRACE_S = 2.0


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
    queue_capacity: int = 2

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")


@dataclass
class PipelineStats:
    frames: int
    wall_seconds: float
    fps: float
    stage_busy: dict


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


# ---------------------------------------------------------------------------
# Staged engine


_END = object()  # end-of-stream; every other object, None included, is an item


class _Feed:
    """The bounded queue into one stage, shared by that stage's workers.

    take hands the oldest item to the lowest-numbered idle worker, so with
    one item in flight at a time only worker 0 ever runs (and grows scratch
    and malloc arenas), and numbers items in the order they leave. A worker
    that has run item n waits in turn() until items 0..n-1 have been passed
    on, so the stage's output keeps its input's order. _END stays at the
    head once it arrives, so every worker takes it in turn. Each worker
    waits on its own condition and is woken only when the move may be its
    own, so an idle spare worker is not woken for every item."""

    def __init__(self, capacity: int, workers: int):
        self._lock = threading.Lock()
        self._room = threading.Condition(self._lock)  # the producer waits here
        self._wake = [threading.Condition(self._lock) for _ in range(workers)]
        self._items = collections.deque()
        self._capacity = capacity
        self._idle = set(range(workers))  # workers not running an item
        self._live = workers  # workers that have not taken _END
        self._taken = 0  # the number of the next item to leave
        self._passed = 0  # items passed on (or dropped) so far

    def _nudge(self) -> None:
        """Wake the lowest-numbered idle worker if an item waits for it."""
        if self._items and self._idle:
            self._wake[min(self._idle)].notify()

    def put(self, item, timeout: float | None = None) -> None:
        """Append item once there is room; queue.Full after timeout seconds."""
        with self._lock:
            if not self._room.wait_for(lambda: len(self._items) < self._capacity, timeout):
                raise queue.Full
            self._items.append(item)
            self._nudge()

    def take(self, worker: int):
        """Wait until an item is queued and worker is the lowest-numbered
        idle one; return (number, item), or (None, _END)."""
        with self._lock:
            self._wake[worker].wait_for(lambda: self._items and min(self._idle) == worker)
            self._idle.discard(worker)
            item = self._items[0]
            if item is not _END:
                self._items.popleft()
                self._room.notify()
            self._nudge()
            if item is _END:
                return None, item
            self._taken += 1
            return self._taken - 1, item

    def retire(self) -> bool:
        """Count out a worker that took _END; True for the stage's last."""
        with self._lock:
            self._live -= 1
            return self._live == 0

    def turn(self, worker: int, number: int) -> None:
        """Wait until item number is next to pass on, then count worker as
        idle: all it has left is to pass the item on and call passed()."""
        with self._lock:
            self._wake[worker].wait_for(lambda: self._passed == number)
            self._idle.add(worker)

    def passed(self) -> None:
        """Let the next item pass; only a busy worker can be waiting for it."""
        with self._lock:
            self._passed += 1
            for k, wake in enumerate(self._wake):
                if k not in self._idle:
                    wake.notify()


def run_staged(source, stages, queue_capacity: int = PipelineConfig.queue_capacity, on_end=None,
               on_interrupt=None) -> PipelineStats:
    """Run items from source through a chain of (name, fn) or (name, fn,
    workers) stages. A stage runs on `workers` threads (default 1), all
    named stage-<name>; each item goes to the lowest-numbered idle one, and
    results leave the stage in the order items entered it, so item order
    is preserved end to end. stage_busy sums a stage's fn time over its
    workers, so with several it can exceed the wall time. The last stage's
    return value is discarded; give it a side-effecting fn to deliver
    results (it runs on one worker, so delivery is in order). on_end (if
    any) runs in the last stage's thread after the final item, error or
    not.

    Raises PipelineError with the originating stage once everything has
    drained. An interrupt (KeyboardInterrupt) raised while feeding the
    source, or while waiting for the stages after it, makes the stages
    drain without work. If they have not all exited after
    INTERRUPT_GRACE_S, on_interrupt (if any) runs in the caller's thread to
    unblock a stage waiting on the outside world. The interrupt is
    re-raised once every stage thread has exited.
    """
    if not stages:
        raise ValueError("need at least one stage")
    if queue_capacity < 1:
        raise ValueError("queue capacity must be >= 1")
    names = [stage[0] for stage in stages]
    fns = [stage[1] for stage in stages]
    counts = [stage[2] if len(stage) > 2 else 1 for stage in stages]
    if min(counts) < 1:
        raise ValueError("a stage needs at least one worker")
    if counts[-1] != 1:
        raise ValueError("the last stage delivers as it runs, so it has one worker")
    feeds = [_Feed(queue_capacity, n) for n in counts]
    busy = [0.0] * len(stages)
    done = [0]
    err: list = []
    err_lock = threading.Lock()

    def fail(name: str, exc: BaseException) -> None:
        with err_lock:
            if not err:
                err.append((name, exc))

    def worker(idx: int, k: int) -> None:
        name, fn, feed = names[idx], fns[idx], feeds[idx]
        nxt = feeds[idx + 1] if idx + 1 < len(feeds) else None
        while True:
            number, item = feed.take(k)
            if item is _END:
                break
            ok = not err  # after a failure, drain without work so upstream never blocks
            t0 = time.perf_counter()
            if ok:
                try:
                    out = fn(item)
                except Exception as e:
                    fail(name, e)
                    ok = False
            spent = time.perf_counter() - t0
            feed.turn(k, number)
            busy[idx] += spent
            if ok:
                if nxt is not None:
                    nxt.put(out)
                else:
                    done[0] += 1
            feed.passed()
        if not feed.retire():
            return
        if nxt is not None:
            nxt.put(_END)
        elif on_end is not None:
            try:
                on_end()
            except Exception as e:
                fail(name, e)

    threads = [
        threading.Thread(target=worker, args=(i, k), name=f"stage-{names[i]}")
        for i, n in enumerate(counts) for k in range(n)
    ]
    ended = False

    def settle(timeout: float | None) -> bool:
        """Queue _END (once) and wait for the stage threads, at most timeout
        seconds in all (None: for good). True once every thread has exited."""
        nonlocal ended
        deadline = None if timeout is None else time.monotonic() + timeout

        def left():
            return None if deadline is None else max(0.0, deadline - time.monotonic())

        if not ended:
            try:
                feeds[0].put(_END, timeout=left())
            except queue.Full:
                return False
            ended = True
        for t in threads:
            t.join(left())
        return not any(t.is_alive() for t in threads)

    t_start = time.perf_counter()
    for t in threads:
        t.start()
    interrupt = None
    try:
        for item in source:
            if err:
                break
            feeds[0].put(item)
    except Exception as e:
        fail("source", e)
    except BaseException as e:
        fail("source", e)
        interrupt = e
    if interrupt is None:
        try:
            settle(None)
        except BaseException as e:  # Ctrl-C after the source ran out
            fail("source", e)
            interrupt = e
    if interrupt is not None:
        if not settle(INTERRUPT_GRACE_S) and on_interrupt is not None:
            on_interrupt()
        settle(None)
        raise interrupt
    wall = time.perf_counter() - t_start
    if err:
        stage, original = err[0]
        raise PipelineError(stage, original)
    return PipelineStats(
        frames=done[0],
        wall_seconds=wall,
        fps=done[0] / wall if wall > 0 else 0.0,
        stage_busy=dict(zip(names, busy)),
    )


# ---------------------------------------------------------------------------
# The real four stages


def _infer_workers() -> int:
    """Two infer workers when the process may run on at least two CPUs and
    BLAS is set to one thread, so each worker's matmuls keep to one core;
    otherwise one. With BLAS's default threads, OpenBLAS's helper thread
    fights a second worker: two workers ran 27-28 forwards/s against one
    worker's 35-37."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 and _pin_blas_threads() else 1


def _build_stages(model: Model, run_cfg: RunConfig, sink, infer_workers: int):
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

    fns = (preprocess, infer, postprocess, sink)
    return [(name, fn, infer_workers if fn is infer else 1) for name, fn in zip(STAGES, fns)]


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
    cfg = cfg or PipelineConfig()
    run_cfg = run_cfg or RunConfig()
    frames = enumerate(source)
    infer_workers = _infer_workers()
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
                stages = _build_stages(model, run_cfg, sink, infer_workers)
                stats = run_staged(frames, stages, cfg.queue_capacity, on_end=lambda: sink(None),
                                   on_interrupt=lambda: _shutdown(conn))
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


def _shutdown(conn: socket.socket) -> None:
    """End both directions of conn, so a send blocked on a client that
    stopped reading fails now instead of after SEND_TIMEOUT_S."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:  # the client is already gone
        pass


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
