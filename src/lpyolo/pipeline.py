"""Streaming inference: preprocess -> infer -> stream,
bounded blocking queues in between (a full queue stalls the producer;
nothing is ever dropped). Each stage runs on one thread, so items keep
their order end to end. Queue items are the bare payloads; end-of-stream is
a private sentinel object pushed through every queue, so None is an
ordinary item. A failing stage records its error, switches to draining its
input so upstream never deadlocks, and the controller re-raises once every
stage has flushed; a failing source first lets the stages finish the
items it already yielded. An interrupt in the controller (Ctrl-C) is
recorded the same way, so the stages drain and exit before it propagates;
if a send to a client that stopped reading still blocks the stream after
a short grace, serve_tcp shuts the socket down.

Also defines the little-endian TCP framing for annotated frames and
serve_tcp, the one entry point that runs the three stages: a single-client
server with backpressure all the way down to the socket. forward and
detect run in infer worker processes, so the CNN does not wait on the
interpreter lock the stage threads hold: the preprocess thread writes each
frame's input into a ring of slots shared with the workers and sends the
slot number to the worker with the fewest inputs outstanding, and the
infer thread reads each frame's detections in frame order. Two workers
run when the process may run on two CPUs and BLAS runs on one thread,
otherwise one (see _infer_workers). They are forked once per serve_tcp
call, with the model already built, so they run its matmuls on the one
BLAS thread model.build_model set.
"""

from __future__ import annotations

import logging
import math
import mmap
import multiprocessing
import os
import queue
import resource
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .imaging import to_input
from .kernels import _pin_blas_threads
from .model import INPUT_SHAPE, PIXEL_LATTICE, Model, RunConfig, _check_input_quant, forward
from .postprocess import detect
from .qcore import ACT_DTYPE, QuantTensor

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
    "MAX_FRAME_SIDE",
    "encode_frame",
    "encode_end",
    "read_frame",
    "run_staged",
    "serve_tcp",
]

log = logging.getLogger("lpyolo.pipeline")

STAGES = ("preprocess", "infer", "stream")

WIRE_MAGIC = b"LPYO"
WIRE_VERSION = 1
MSG_FRAME = 1
MSG_END = 2

# magic, version, msg_type, frame_id u64, width u16, height u16, num_det u16
_HEAD = struct.Struct("<4sBBQHHH")
_DET = struct.Struct("<6f")
_PAYLOAD_LEN = struct.Struct("<I")

# Largest frame width or height a frame message can state (a u16 each).
MAX_FRAME_SIDE = (1 << 16) - 1

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
        if not (0 <= self.width <= MAX_FRAME_SIDE and 0 <= self.height <= MAX_FRAME_SIDE):
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


def run_staged(source, stages, queue_capacity: int = PipelineConfig.queue_capacity, on_end=None,
               on_interrupt=None) -> PipelineStats:
    """Run items from source through a chain of (name, fn) stages. Each
    stage runs on one thread, named stage-<name>, behind a queue of
    queue_capacity items, so item order is preserved end to end.
    stage_busy is each stage's time in fn. The last stage's return value
    is discarded; give it a side-effecting fn to deliver results. on_end
    (if any) runs in the last stage's thread after the final item, error
    or not.

    Raises PipelineError with the originating stage once everything has
    drained. When the source raises, the stages first finish the items it
    already yielded, and on_end runs; its error wins over a stage's. An
    interrupt (KeyboardInterrupt) raised while feeding the
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
    feeds = [queue.Queue(queue_capacity) for _ in stages]
    busy = [0.0] * len(stages)
    done = [0]
    err: list = []
    err_lock = threading.Lock()

    def fail(name: str, exc: BaseException) -> None:
        with err_lock:
            if not err:
                err.append((name, exc))

    def run_stage(idx: int) -> None:
        name, fn = stages[idx]
        nxt = feeds[idx + 1] if idx + 1 < len(feeds) else None
        while (item := feeds[idx].get()) is not _END:
            if err:  # after a failure, drain without work so upstream never blocks
                continue
            t0 = time.perf_counter()
            try:
                out = fn(item)
            except Exception as e:
                fail(name, e)
                continue
            finally:
                busy[idx] += time.perf_counter() - t0
            if nxt is not None:
                nxt.put(out)
            else:
                done[0] += 1
        if nxt is not None:
            nxt.put(_END)
        elif on_end is not None:
            try:
                on_end()
            except Exception as e:
                fail(name, e)

    threads = [threading.Thread(target=run_stage, args=(i,), name=f"stage-{name}")
               for i, (name, _fn) in enumerate(stages)]
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
    source_err = None
    try:
        for item in source:
            if err:
                break
            feeds[0].put(item)
    except Exception as e:  # the items already yielded still go through
        source_err = e
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
    if source_err is not None:
        raise PipelineError("source", source_err)
    if err:
        stage, original = err[0]
        raise PipelineError(stage, original)
    return PipelineStats(
        frames=done[0],
        wall_seconds=wall,
        fps=done[0] / wall if wall > 0 else 0.0,
        stage_busy={name: spent for (name, _fn), spent in zip(stages, busy)},
    )


# ---------------------------------------------------------------------------
# The real three stages


def _infer_workers() -> int:
    """Two infer workers when the process may run on at least two CPUs and
    BLAS is set to one thread, so each worker's matmuls keep to one core;
    otherwise one, since OpenBLAS's helper thread would fight a second
    worker."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 and _pin_blas_threads() else 1


def _infer_worker(pipe, inherited, ring: np.ndarray, model: Model, run_cfg: RunConfig) -> None:
    """Body of an infer worker process. Each message on the pipe is the
    number of a ring slot, memory shared with the serving process, that
    holds the next input; the one reply is that frame's detections, or the
    exception forward or detect raised. Return when the pipe ends. SIGINT
    is ignored: on Ctrl-C the serving process drains its stages, which
    still need this worker, and then closes the pipe."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:  # the serving process's ends, copied by the fork
        end.close()
    # every byte is a value on the 8-bit pixel lattice, so a slot's tensor
    # stays valid while each input overwrites its data
    inputs = [QuantTensor(INPUT_SHAPE, slot, PIXEL_LATTICE) for slot in ring]
    while True:
        try:
            slot = pipe.recv()
        except EOFError:
            return
        try:
            reply = detect(forward(model, inputs[slot]), model.config, run_cfg)
        except Exception as e:
            reply = e
        pipe.send(reply)


class _InferWorkers:
    """The infer worker processes, one pipe each, and a ring of
    queue_capacity + 2 input slots in memory they share with this process.

    The preprocess thread submits each frame's input and the infer thread
    reads each result, both in frame order. In between, a frame is held by
    preprocess, waits in infer's queue (queue_capacity at most) or is in
    infer, so a slot is written again only after its last result was read.
    sent[k] counts the inputs handed to worker k and is written only by
    submit; got[k] counts its replies read and is written only by result,
    or by settle once the stages have exited."""

    def __init__(self, queue_capacity: int):
        slots = queue_capacity + 2
        ring = mmap.mmap(-1, slots * math.prod(INPUT_SHAPE))
        self._ring = np.frombuffer(ring, ACT_DTYPE).reshape(slots, -1)
        self._submitted = 0
        self.pipes: list = []
        self.procs: list = []
        self.sent: list = []
        self.got: list = []

    def start(self, model: Model, run_cfg: RunConfig) -> None:
        """Fork _infer_workers() workers; each is recorded as it starts, so
        close() stops those that did if a later fork fails."""
        fork = multiprocessing.get_context("fork")
        for k in range(_infer_workers()):
            pipe, child_end = fork.Pipe()
            self.pipes.append(pipe)
            self.sent.append(0)
            self.got.append(0)
            proc = fork.Process(target=_infer_worker, name=f"infer-{k}",
                                args=(child_end, self.pipes, self._ring, model, run_cfg))
            try:
                proc.start()
            finally:
                child_end.close()
            self.procs.append(proc)

    def submit(self, x: QuantTensor) -> int:
        """Copy x into the next slot and hand it to the worker with the
        fewest inputs outstanding, the lowest-numbered on a tie, so frames
        that come one at a time all run on worker 0. Return that worker."""
        _check_input_quant(x)
        slot = self._submitted % len(self._ring)
        self._submitted += 1
        self._ring[slot] = x.data
        k = min(range(len(self.pipes)), key=lambda k: self.sent[k] - self.got[k])
        try:
            self.pipes[k].send(slot)
        except ConnectionError:  # the worker died; result(k) raises EOFError
            pass
        self.sent[k] += 1
        return k

    def _reply(self, k: int):
        try:
            reply = self.pipes[k].recv()
        except ConnectionResetError:  # it died with inputs still unread
            raise EOFError(f"infer worker {k} exited") from None
        self.got[k] += 1
        return reply

    def result(self, k: int) -> list:
        """The detections of worker k's oldest input not yet read; an
        exception from forward or detect is raised here with its type."""
        reply = self._reply(k)
        if isinstance(reply, Exception):
            raise reply
        return reply

    def settle(self) -> None:
        """Read and drop every reply still owed, skipping a worker that
        died, so the next run starts with none pending and no worker is
        left blocked in a send when its pipe closes."""
        for k in range(len(self.pipes)):
            try:
                while self.got[k] < self.sent[k]:
                    self._reply(k)
            except EOFError:
                pass

    def close(self) -> None:
        for pipe in self.pipes:  # each worker exits at the end of its pipe
            pipe.close()
        for proc in self.procs:
            proc.join()


def _build_stages(sink, workers: _InferWorkers):
    def preprocess(item):
        frame_id, img = item
        return frame_id, img, workers.submit(to_input(img))

    def infer(item):
        frame_id, img, k = item
        return FrameMessage(
            frame_id=frame_id,
            width=img.width,
            height=img.height,
            detections=workers.result(k),
            payload=img.pixels,
        )

    return list(zip(STAGES, (preprocess, infer, sink)))


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

    The infer worker processes start once the socket is bound and on_bound
    has run, serve every client, and are stopped and joined before this
    returns or raises.
    """
    cfg = cfg or PipelineConfig()
    run_cfg = run_cfg or RunConfig()
    frames = enumerate(source)
    workers = _InferWorkers(cfg.queue_capacity)
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(address)
        srv.listen(1)
        if on_bound is not None:
            on_bound(srv.getsockname())
        workers.start(model, run_cfg)
        while True:
            conn, peer = srv.accept()
            conn.settimeout(SEND_TIMEOUT_S)
            log.info("client %s connected", peer)
            try:
                sink = _socket_sink(conn)
                stages = _build_stages(sink, workers)
                stats = run_staged(frames, stages, cfg.queue_capacity, on_end=lambda: sink(None),
                                   on_interrupt=lambda: _shutdown(conn))
                break
            except PipelineError as e:
                if e.stage == "stream" and isinstance(e.original, OSError):
                    log.warning("client %s dropped: %s; awaiting next", peer, e.original)
                    continue
                raise
            finally:
                workers.settle()  # replies owed to this run must not reach the next
                conn.close()
    finally:
        workers.close()
        srv.close()
    # ru_maxrss of the children is the largest waited-for child's peak
    log.info(
        "stream complete: %d frames in %.2fs; infer worker peak RSS %.1f MB",
        stats.frames, stats.wall_seconds,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    )
    return stats


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
