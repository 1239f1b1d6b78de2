import io
import itertools
import logging
import math
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpyolo import kernels, pipeline
from lpyolo.cli import main
from lpyolo.imaging import Image, to_input, write_ppm
from lpyolo.model import ModelConfig, RunConfig, forward, random_init, save_weights
from lpyolo.pipeline import (
    MAX_READ,
    STAGES,
    FrameMessage,
    PipelineConfig,
    PipelineError,
    WireError,
    WireLengthError,
    WireMagicError,
    WireVersionError,
    encode_end,
    encode_frame,
    read_frame,
    run_staged,
    serve_tcp,
)
from lpyolo.postprocess import detect

from loopback import read_stream, serve_one_client


@pytest.fixture(scope="module")
def model():
    return random_init(ModelConfig(weight_bits=4, act_bits=4), seed=42)


def frame_msg(frame_id=7, w=2, h=3, dets=((0.5, 0.5, 0.25, 0.25, 0.9, 0.8),)):
    return FrameMessage(
        frame_id=frame_id,
        width=w,
        height=h,
        detections=tuple(dets),
        payload=bytes(3 * w * h),
    )


def rand_image(rng, w=64, h=48):
    return Image(
        width=w, height=h, pixels=rng.integers(0, 256, 3 * w * h, dtype=np.uint8).tobytes()
    )


def wire_detections(model, img, run_cfg):
    """What serve sends for img: detect on a forward run here, each value
    at the float32 precision of the wire."""
    dets = detect(forward(model, to_input(img)), model.config, run_cfg)
    return tuple(tuple(float(np.float32(v)) for v in
                       (d.cx, d.cy, d.w, d.h, d.objectness, d.class_score)) for d in dets)


def record_forward_pids(monkeypatch, path, delays=None):
    """Make every forward in a forked infer worker append its pid to path,
    after sleeping delays[worker name] seconds (default none)."""
    real = pipeline.forward

    def forward(m, x):
        name = multiprocessing.current_process().name
        time.sleep((delays or {}).get(name, 0.0))
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(m, x)

    monkeypatch.setattr(pipeline, "forward", forward)  # the fork inherits it


def on_infer_message(monkeypatch, hook):
    """Call hook() each time the infer stage builds a frame's message, which
    it does once per frame after reading the frame's detections (the
    client's read_frame builds messages too, on its own thread)."""
    real = pipeline.FrameMessage

    def message(*args, **kwargs):
        if threading.current_thread().name == "stage-infer":
            hook()
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "FrameMessage", message)


def read_one(blob):
    """The message in blob, which must hold exactly one (read to the end)."""
    buf = io.BytesIO(blob)
    msg = read_frame(buf)
    assert buf.read() == b""
    return msg


def run_child(code):
    """Run code in a fresh interpreter that imports this checkout's lpyolo,
    so a test that signals its own process, or hangs, cannot take pytest
    down with it."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=30)


# A child serving 640x480 frames from a 4W4A model, with Ctrl-C raising
# KeyboardInterrupt (a background job may start with SIGINT ignored) and a
# 60 s send timeout, so an exit that waits it out fails the test.
SERVE_CHILD_SETUP = textwrap.dedent("""
    import itertools, multiprocessing, os, signal, socket, threading, time
    import numpy as np
    from lpyolo import kernels, pipeline
    from lpyolo.imaging import Image
    from lpyolo.model import ModelConfig, random_init
    pipeline.SEND_TIMEOUT_S = 60.0
    signal.signal(signal.SIGINT, signal.default_int_handler)
    rng = np.random.default_rng(0)
    img = Image(640, 480, rng.integers(0, 256, 640 * 480 * 3, dtype=np.uint8).tobytes())
    model = random_init(ModelConfig(4, 4), seed=0)
""")


# Finite doubles round to float32 inf from max + half an ulp up; half the
# smallest float32 subnormal rounds to 0.
F32_MAX = float(np.finfo(np.float32).max)
F32_EDGE = 3.4028235677973366e38
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
_det_value = st.one_of(
    st.floats(),
    st.floats(width=32),
    st.integers(-(2**1023), 2**1023),
    st.sampled_from([
        0.0, -0.0, F32_MAX, F32_EDGE, math.nextafter(F32_EDGE, 0.0), -F32_EDGE,
        F32_TINY, F32_TINY / 2, math.nextafter(F32_TINY / 2, 1.0), 5e-324,
    ]),
)


class TestFrameMessage:
    def test_payload_length_checked(self):
        with pytest.raises(ValueError, match="payload"):
            FrameMessage(frame_id=0, width=2, height=2, detections=(), payload=b"xx")

    def test_id_and_dims_bounds(self):
        with pytest.raises(ValueError):
            frame_msg(frame_id=1 << 64)
        with pytest.raises(ValueError):
            frame_msg(frame_id=-1)
        with pytest.raises(ValueError):
            FrameMessage(frame_id=0, width=1 << 16, height=1, detections=(), payload=b"")

    def test_detections_coerced_to_f32(self):
        m = frame_msg(dets=((0.1, 0.2, 0.3, 0.4, 0.5, 0.6),))
        assert m.detections[0][0] == float(np.float32(0.1))
        assert m.detections[0][0] != 0.1  # 0.1 is not f32-exact

    def test_detection_arity_checked(self):
        with pytest.raises(ValueError, match="6-tuple"):
            frame_msg(dets=((1.0, 2.0, 3.0),))
        for dets in (
            ((0.5,) * 5,),
            ((0.5,) * 7,),
            ((0.5,) * 6, (0.5,) * 5),
            ((0.5,) * 6, (0.5,) * 7),
            ((),),
        ):
            with pytest.raises(ValueError):
                frame_msg(dets=dets)
        with pytest.raises(ValueError, match="6-tuple"):
            # six numbers, but not a sequence of 6-tuples
            frame_msg(dets=(0.5, 0.5, 0.25, 0.25, 0.9, 0.8))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            frame_msg(dets=((float("inf"), 0, 0, 0, 0, 0),))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[_det_value] * 6), max_size=4))
    def test_coercion_matches_per_value_rule(self, dets):
        def per_value(d):
            vals = tuple(float(np.float32(v)) for v in d)
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(d)
            return vals

        with np.errstate(over="ignore"):
            try:
                want = [per_value(d) for d in dets]
            except ValueError:
                with pytest.raises(ValueError):
                    frame_msg(dets=dets)
                return
            got = frame_msg(dets=dets).detections

        def bits(rows):
            return [struct.pack("<6d", *r) for r in rows]

        assert all(type(v) is float for row in got for v in row)
        assert bits(got) == bits(want)


class TestWire:
    def test_zero_det_frame_size(self):
        m = FrameMessage(frame_id=1, width=1, height=1, detections=(), payload=b"abc")
        blob = encode_frame(m)
        assert len(blob) == 20 + 0 * 24 + 4 + 3
        assert blob[:4] == b"LPYO"
        assert blob[4] == 1  # version
        assert blob[5] == 1  # frame message type

    def test_end_marker_layout(self):
        blob = encode_end()
        assert len(blob) == 24
        assert blob[:4] == b"LPYO"
        assert blob[5] == 2  # end message type
        assert blob[6:] == bytes(18)

    def test_round_trip(self):
        m = frame_msg()
        assert read_one(encode_frame(m)) == m

    def test_round_trip_boundaries(self):
        for m in (
            frame_msg(frame_id=0, w=0, h=0, dets=()),
            frame_msg(frame_id=(1 << 64) - 1, w=0, h=65535, dets=()),
            frame_msg(frame_id=123, w=65535, h=0, dets=()),
            frame_msg(dets=((3.0e38, -3.0e38, 1e-38, 0.0, 1.0, 0.5),)),
        ):
            assert read_one(encode_frame(m)) == m

    def test_end_round_trip(self):
        assert read_one(encode_end()) is None

    def test_bad_magic(self):
        blob = b"XXXX" + encode_end()[4:]
        with pytest.raises(WireMagicError):
            read_one(blob)

    def test_bad_version(self):
        blob = bytearray(encode_end())
        blob[4] = 9
        with pytest.raises(WireVersionError):
            read_one(bytes(blob))

    def test_unknown_type(self):
        blob = bytearray(encode_end())
        blob[5] = 3
        with pytest.raises(WireError, match="type"):
            read_one(bytes(blob))

    def test_nonzero_end_fields(self):
        head = struct.pack("<4sBBQHHH", b"LPYO", 1, 2, 5, 0, 0, 0)
        with pytest.raises(WireError, match="nonzero"):
            read_one(head + struct.pack("<I", 0))

    def test_payload_length_mismatch(self):
        head = struct.pack("<4sBBQHHH", b"LPYO", 1, 1, 0, 1, 1, 0)
        blob = head + struct.pack("<I", 5) + b"12345"
        with pytest.raises(WireLengthError, match="payload"):
            read_one(blob)

    def test_truncated(self):
        blob = encode_frame(frame_msg())
        with pytest.raises(WireLengthError, match="short"):
            read_one(blob[:-1])
        with pytest.raises(WireLengthError):
            read_one(blob[:10])

    @pytest.mark.parametrize("cx", [math.nan, math.inf, -math.inf])
    def test_non_finite_detection_is_wire_error(self, cx):
        blob = bytearray(encode_frame(frame_msg()))
        blob[20:24] = struct.pack("<f", cx)  # the first detection's cx
        with pytest.raises(WireError, match="non-finite"):
            read_one(bytes(blob))

    def test_stream_of_messages(self):
        msgs = [frame_msg(frame_id=i) for i in range(3)]
        blob = b"".join(encode_frame(m) for m in msgs) + encode_end()
        f = io.BytesIO(blob)
        got = [read_frame(f) for _ in range(4)]
        assert got == msgs + [None]
        assert f.read() == b""

    def test_read_requests_are_capped(self):
        class RecordingStream:
            def __init__(self, data):
                self.buf = io.BytesIO(data)
                self.requests = []

            def read(self, n):
                self.requests.append(n)
                return self.buf.read(n)

        # 65535x65535 claims more than the u32 length field can state;
        # 65535x21845 is the largest claim the length field can agree with
        for w, h in ((65535, 65535), (65535, 21845)):
            claim = min(3 * w * h, 0xFFFFFFFF)
            head = struct.pack("<4sBBQHHH", b"LPYO", 1, 1, 0, w, h, 0)
            f = RecordingStream(head + struct.pack("<I", claim) + b"abc")
            with pytest.raises(WireLengthError):
                read_frame(f)
            assert max(f.requests) <= MAX_READ
        # a 640x480 payload still arrives in one read
        m = frame_msg(w=640, h=480, dets=())
        f = RecordingStream(encode_frame(m))
        assert read_frame(f) == m
        assert f.requests[-1] == 3 * 640 * 480


class TestRunStaged:
    def test_empty_source(self):
        stats = run_staged([], [("a", lambda x: x)])
        assert stats.frames == 0

    def test_order_and_conservation(self):
        seen = []
        stages = [
            ("double", lambda x: x * 2),
            ("plus", lambda x: x + 1),
            ("collect", seen.append),
        ]
        stats = run_staged(range(50), stages, queue_capacity=2)
        assert seen == [x * 2 + 1 for x in range(50)]
        assert stats.frames == 50
        assert set(stats.stage_busy) == {"double", "plus", "collect"}

    def test_capacity_one(self):
        seen = []
        run_staged(range(20), [("id", lambda x: x), ("c", seen.append)], queue_capacity=1)
        assert seen == list(range(20))

    def test_mid_stage_error_surfaces(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("kaput")
            return x

        src = itertools.islice(itertools.count(), 10000)
        with pytest.raises(PipelineError) as ei:
            run_staged(src, [("ok", lambda x: x), ("boom", boom), ("c", lambda x: None)])
        assert ei.value.stage == "boom"
        assert isinstance(ei.value.original, RuntimeError)

    def test_last_stage_error_surfaces(self):
        def sink(x):
            raise OSError("pipe gone")

        with pytest.raises(PipelineError) as ei:
            run_staged(range(5), [("a", lambda x: x), ("stream", sink)])
        assert ei.value.stage == "stream"
        assert isinstance(ei.value.original, OSError)

    def test_source_error_surfaces(self):
        # the item yielded before the error still reaches the last stage
        def bad_source():
            yield 1
            raise ValueError("source broke")

        seen, ends = [], []
        with pytest.raises(PipelineError) as ei:
            run_staged(bad_source(), [("a", lambda x: x), ("c", seen.append)],
                       on_end=lambda: ends.append(1))
        assert ei.value.stage == "source"
        assert isinstance(ei.value.original, ValueError)
        assert seen == [1]
        assert ends == [1]

    def test_on_end_runs_after_items(self):
        order = []
        run_staged(
            range(3),
            [("c", lambda x: order.append(x))],
            on_end=lambda: order.append("end"),
        )
        assert order == [0, 1, 2, "end"]

    def test_on_end_runs_even_after_error(self):
        called = []

        def boom(x):
            raise RuntimeError("no")

        with pytest.raises(PipelineError):
            run_staged(range(3), [("boom", boom)], on_end=lambda: called.append(1))
        assert called == [1]

    def test_stages_overlap_in_time(self):
        # with two 20ms stages and 10 items, overlapped wall time must come
        # in well under the 400ms serial cost
        def slow(x):
            time.sleep(0.02)
            return x

        stats = run_staged(range(10), [("a", slow), ("b", lambda x: slow(x))])
        assert stats.wall_seconds < 0.35

    def test_none_payloads_are_items(self):
        seen = []

        def source():
            for i in range(6):
                yield None if i % 2 else i

        stages = [
            ("tag", lambda x: ("tagged", x)),
            ("drop", lambda x: None if x[1] is None else x),
            ("collect", seen.append),
        ]
        stats = run_staged(source(), stages, queue_capacity=1)
        assert seen == [("tagged", 0), None, ("tagged", 2), None, ("tagged", 4), None]
        assert stats.frames == 6

    def test_interrupt_drains_and_exits(self):
        # a SIGINT lands mid-stream, most often while the controller blocks
        # on the full first queue; the stage threads must exit, or the
        # interpreter hangs at shutdown.
        # Run in a child so a regression times out instead of hanging here.
        code = textwrap.dedent("""
            import itertools, os, signal, threading, time
            from lpyolo.pipeline import run_staged
            # a background job may start with SIGINT ignored
            signal.signal(signal.SIGINT, signal.default_int_handler)
            threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT)).start()
            ends = []
            try:
                run_staged(itertools.count(),
                           [("a", lambda x: x), ("slow", lambda x: time.sleep(0.01))],
                           queue_capacity=1, on_end=lambda: ends.append(1))
            except KeyboardInterrupt:
                live = [t.name for t in threading.enumerate() if t.name.startswith("stage-")]
                print("interrupted", live, ends)
        """)
        proc = run_child(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == "interrupted [] [1]"



class TestRunPipeline:
    """The three stages, run the one way they run: serve_tcp to a client."""

    def test_frames_in_order_with_payload(self, model):
        rng = np.random.default_rng(0)
        imgs = [rand_image(rng) for _ in range(3)]
        msgs, stats = serve_one_client(iter(imgs), model)  # read up to the end marker
        assert [m.frame_id for m in msgs] == [0, 1, 2]
        assert all(m.width == 64 and m.height == 48 for m in msgs)
        assert [m.payload for m in msgs] == [img.pixels for img in imgs]
        assert stats.frames == 3
        assert stats.fps > 0

    def test_detections_match_the_cli_chain(self, model, tmp_path, capsys):
        img = rand_image(np.random.default_rng(4))
        run_cfg = RunConfig(conf_threshold=0.0)
        want = detect(forward(model, to_input(img)), model.config, run_cfg)
        assert want
        got, _stats = serve_one_client([img], model, run_cfg=run_cfg)
        assert got[0].detections == tuple(
            tuple(float(np.float32(v)) for v in
                  (d.cx, d.cy, d.w, d.h, d.objectness, d.class_score))
            for d in want
        )
        weights, frame = tmp_path / "w.lpyq", tmp_path / "f.ppm"
        save_weights(model, weights)
        write_ppm(img, frame)
        assert main(["infer", "--weights", str(weights), "--image", str(frame),
                     "--out", str(tmp_path / "o.ppm"), "--conf", "0.0"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{d.score:.6f} {d.cx:.6f} {d.cy:.6f} {d.w:.6f} {d.h:.6f}" for d in want
        ]

    def test_queue_capacity_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(queue_capacity=0)

    def test_stage_names(self):
        assert STAGES == ("preprocess", "infer", "stream")


class TestInferWorkers:
    """serve_tcp runs forward and detect in infer worker processes: two
    only where they help (two CPUs to run on and BLAS on one thread), and a
    worker's failure fails the infer stage."""

    def test_backlog_keeps_order_across_uneven_workers(self, model, monkeypatch, tmp_path):
        # worker 0 takes far longer per frame than worker 1, so replies come
        # back out of frame order; each frame must still carry its own grid
        monkeypatch.setattr(pipeline, "_infer_workers", lambda: 2)
        record_forward_pids(monkeypatch, tmp_path / "pids", {"infer-0": 0.03})
        rng = np.random.default_rng(9)
        imgs = [rand_image(rng, 16, 16) for _ in range(12)]
        run_cfg = RunConfig(conf_threshold=0.0)
        msgs, stats = serve_one_client(imgs, model, run_cfg=run_cfg)
        assert [m.frame_id for m in msgs] == list(range(12))
        assert [m.detections for m in msgs] == [wire_detections(model, img, run_cfg)
                                               for img in imgs]
        assert stats.frames == 12
        pids = (tmp_path / "pids").read_text().split()
        assert len(pids) == 12
        assert len(set(pids)) == 2

    def test_smallest_ring_under_fast_switching(self, model, monkeypatch):
        # queue capacity 1 leaves the ring three slots, and three workers on
        # fewer cores with thread switches forced early shuffle when each
        # reply arrives: a slot written again before its reply was read
        # would give some frame another frame's grid
        monkeypatch.setattr(pipeline, "_infer_workers", lambda: 3)
        rng = np.random.default_rng(11)
        imgs = [rand_image(rng, 16, 16) for _ in range(30)]
        run_cfg = RunConfig(conf_threshold=0.0)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            msgs, _stats = serve_one_client(imgs, model, cfg=PipelineConfig(queue_capacity=1),
                                            run_cfg=run_cfg)
        finally:
            sys.setswitchinterval(old)
        assert [m.frame_id for m in msgs] == list(range(30))
        assert [m.detections for m in msgs] == [wire_detections(model, img, run_cfg)
                                               for img in imgs]

    def test_one_frame_at_a_time_runs_on_one_worker(self, model, monkeypatch, tmp_path):
        # each frame is read only after the one before has left infer: the
        # worker with no input outstanding, lowest-numbered first, takes
        # every frame, so a second worker never grows its scratch
        monkeypatch.setattr(pipeline, "_infer_workers", lambda: 2)
        record_forward_pids(monkeypatch, tmp_path / "pids")
        inferred = threading.Semaphore(0)
        on_infer_message(monkeypatch, inferred.release)
        rng = np.random.default_rng(10)

        def frames():
            for _ in range(8):
                yield rand_image(rng, 16, 16)
                assert inferred.acquire(timeout=10)

        msgs, _stats = serve_one_client(frames(), model)
        assert [m.frame_id for m in msgs] == list(range(8))
        pids = (tmp_path / "pids").read_text().split()
        assert len(pids) == 8
        assert len(set(pids)) == 1

    def test_forward_error_while_the_other_worker_runs(self):
        # frame 0 fails on worker 0 while worker 1 is inside frame 1's
        # forward: the stream must end with the infer error, and the reply
        # still owed must be read so both workers exit 0 at the end of their
        # pipes. Run in a child so a hang times out instead of hanging here.
        proc = run_child(SERVE_CHILD_SETUP + textwrap.dedent("""
            pipeline._infer_workers = lambda: 2
            real = pipeline.forward
            started = multiprocessing.get_context("fork").Event()

            def forward(m, x):
                if multiprocessing.current_process().name == "infer-1":
                    started.set()
                    time.sleep(0.3)
                    return real(m, x)
                started.wait(5)
                raise RuntimeError("kaput")

            pipeline.forward = forward
            workers = []

            def client(addr):
                with socket.create_connection(addr) as cli:
                    deadline = time.monotonic() + 10
                    while (len(multiprocessing.active_children()) < 2
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    workers.extend(multiprocessing.active_children())
                    cli.makefile("rb").read()

            def on_bound(addr):
                threading.Thread(target=client, args=(addr,)).start()

            try:
                pipeline.serve_tcp(("127.0.0.1", 0), [img] * 8, model, on_bound=on_bound)
            except pipeline.PipelineError as e:
                print(e.stage, type(e.original).__name__, started.is_set(),
                      sorted(p.exitcode for p in workers), multiprocessing.active_children())
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == "infer RuntimeError True [0, 0] []"

    def infer_workers(self, model, monkeypatch):
        counts = set()

        on_infer_message(monkeypatch, lambda: counts.add(
            sum(p.name.startswith("infer-") for p in multiprocessing.active_children())))
        rng = np.random.default_rng(5)
        msgs, _stats = serve_one_client([rand_image(rng, 16, 16) for _ in range(3)], model)
        assert [m.frame_id for m in msgs] == [0, 1, 2]
        return counts

    def test_two_on_two_cpus_with_blas_pinned(self, model, monkeypatch):
        lib = kernels._openblas()
        if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
            pytest.skip("numpy without its bundled scipy-openblas")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert self.infer_workers(model, monkeypatch) == {2}

    def test_one_without_blas_pin(self, model, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(kernels, "_openblas", lambda: None)
        assert self.infer_workers(model, monkeypatch) == {1}

    def test_one_on_one_cpu(self, model, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.infer_workers(model, monkeypatch) == {1}

    def test_forward_error_keeps_its_type(self, model, monkeypatch):
        def broken_forward(m, x):
            raise ZeroDivisionError("conv1 broke")

        monkeypatch.setattr(pipeline, "forward", broken_forward)  # the fork inherits it
        with pytest.raises(PipelineError) as ei:
            serve_one_client([rand_image(np.random.default_rng(6), 16, 16)], model)
        assert ei.value.stage == "infer"
        assert isinstance(ei.value.original, ZeroDivisionError)
        assert str(ei.value.original) == "conv1 broke"

    def test_reply_is_the_detections_or_the_error(self, model, monkeypatch):
        # one worker, two inputs: the first reply raises forward's error,
        # the second is the next input's detections
        monkeypatch.setattr(pipeline, "_infer_workers", lambda: 1)
        rng = np.random.default_rng(12)
        bad, good = (to_input(rand_image(rng, 16, 16)) for _ in range(2))
        real = pipeline.forward

        def forward(m, x):
            if np.array_equal(x.data, bad.data):
                raise ValueError("bad input")
            return real(m, x)

        monkeypatch.setattr(pipeline, "forward", forward)  # the fork inherits it
        run_cfg = RunConfig(conf_threshold=0.0)
        workers = pipeline._InferWorkers(PipelineConfig().queue_capacity)
        try:
            workers.start(model, run_cfg)
            assert [workers.submit(bad), workers.submit(good)] == [0, 0]
            with pytest.raises(ValueError, match="bad input"):
                workers.result(0)
            out = workers.result(0)
        finally:
            workers.settle()
            workers.close()
        want = detect(real(model, good), model.config, run_cfg)
        assert want
        assert out == want

    def test_detect_runs_in_the_workers(self, model, monkeypatch, tmp_path):
        # the serving process only reads each frame's detections
        path = tmp_path / "pids"
        real = pipeline.detect

        def detect_here(out, cfg, run_cfg):
            with open(path, "a") as f:
                f.write(f"{os.getpid()} {multiprocessing.current_process().name}\n")
            return real(out, cfg, run_cfg)

        monkeypatch.setattr(pipeline, "detect", detect_here)  # the fork inherits it
        rng = np.random.default_rng(14)
        msgs, _stats = serve_one_client([rand_image(rng, 16, 16) for _ in range(4)], model)
        assert [m.frame_id for m in msgs] == [0, 1, 2, 3]
        calls = [line.split() for line in path.read_text().splitlines()]
        assert len(calls) == 4
        assert all(pid != str(os.getpid()) and name.startswith("infer-") for pid, name in calls)

    def test_detect_error_fails_infer_with_its_type(self, model, monkeypatch):
        def broken_detect(out, cfg, run_cfg):
            raise OverflowError("decode broke")

        monkeypatch.setattr(pipeline, "detect", broken_detect)  # the fork inherits it
        with pytest.raises(PipelineError) as ei:
            serve_one_client([rand_image(np.random.default_rng(15), 16, 16)], model)
        assert ei.value.stage == "infer"
        assert isinstance(ei.value.original, OverflowError)
        assert str(ei.value.original) == "decode broke"

    def test_a_worker_that_dies_fails_the_stage(self, model, monkeypatch):
        monkeypatch.setattr(pipeline, "forward", lambda m, x: os._exit(3))
        with pytest.raises(PipelineError) as ei:
            serve_one_client([rand_image(np.random.default_rng(7), 16, 16)], model)
        assert ei.value.stage == "infer"
        assert isinstance(ei.value.original, EOFError)

    @pytest.mark.parametrize("lives", [0.0, 0.1], ids=["sent-after-death", "unread-at-death"])
    def test_frames_for_a_dead_worker_fail_infer(self, model, monkeypatch, lives):
        # worker 1 dies in frame 1 while worker 0 is still inside frame 0.
        # Frame 3 also goes to worker 1: at once it is sent after the death,
        # after 0.1 s it waits unread in the pipe when the worker dies.
        # Either way the stream must fail in infer, where the reply is
        # read, with EOFError: not in preprocess's send, and not with the
        # connection reset that reading after unread input reports
        monkeypatch.setattr(pipeline, "_infer_workers", lambda: 2)
        real = pipeline.forward

        def forward(m, x):
            if multiprocessing.current_process().name == "infer-1":
                time.sleep(lives)
                os._exit(3)
            time.sleep(0.2)
            return real(m, x)

        monkeypatch.setattr(pipeline, "forward", forward)  # the fork inherits it
        rng = np.random.default_rng(7)
        with pytest.raises(PipelineError) as ei:
            serve_one_client([rand_image(rng, 16, 16) for _ in range(8)], model)
        assert ei.value.stage == "infer"
        assert isinstance(ei.value.original, EOFError)

    def test_serve_logs_no_second_blas_pin(self, caplog):
        # building the model pinned BLAS; serving finds it pinned already
        m = random_init(ModelConfig(weight_bits=4, act_bits=4), seed=0)
        caplog.set_level(logging.INFO, logger="lpyolo.kernels")
        serve_one_client([rand_image(np.random.default_rng(13), 16, 16)], m)
        assert [msg for msg in caplog.messages if "BLAS threads" in msg] == []

    def test_stream_complete_logs_worker_peak_rss(self, model, caplog):
        caplog.set_level(logging.INFO, logger="lpyolo.pipeline")
        serve_one_client([rand_image(np.random.default_rng(8), 16, 16)], model)
        done = [r.getMessage() for r in caplog.records if "stream complete" in r.getMessage()]
        assert len(done) == 1
        assert "infer worker peak RSS" in done[0]


class TestServeTcp:
    def test_no_end_marker_after_failed_send(self):
        class Conn:
            def __init__(self, fail):
                self.fail = fail
                self.sent = []

            def sendall(self, data):
                self.sent.append(data)
                if self.fail:
                    raise TimeoutError("timed out")

        stalled = Conn(fail=True)
        sink = pipeline._socket_sink(stalled)
        with pytest.raises(TimeoutError):
            sink(frame_msg())
        sink(None)
        assert len(stalled.sent) == 1
        healthy = Conn(fail=False)
        sink = pipeline._socket_sink(healthy)
        sink(frame_msg())
        sink(None)
        assert healthy.sent == [encode_frame(frame_msg()), encode_end()]

    def test_single_client_gets_everything(self, model):
        rng = np.random.default_rng(1)
        imgs = [rand_image(rng, 32, 32) for _ in range(3)]
        msgs, stats = serve_one_client(imgs, model)
        assert [m.frame_id for m in msgs] == [0, 1, 2]
        assert [m.payload for m in msgs] == [img.pixels for img in imgs]
        assert stats.frames == 3

    def test_second_client_resumes_stream(self, model):
        # enough frames that the in-flight window (4 queues of one, an item
        # in each stage thread and one held by the feeding loop) cannot
        # swallow the whole source when the first client dies
        rng = np.random.default_rng(2)
        imgs = [rand_image(rng, 16, 16) for _ in range(32)]
        run_cfg = RunConfig(conf_threshold=0.0)
        bound = {}
        ready = threading.Event()

        def on_bound(addr):
            bound["addr"] = addr
            ready.set()

        result = {}

        def serve():
            result["stats"] = serve_tcp(
                ("127.0.0.1", 0), imgs, model,
                cfg=PipelineConfig(queue_capacity=1), run_cfg=run_cfg, on_bound=on_bound,
            )

        t = threading.Thread(target=serve)
        t.start()
        assert ready.wait(5)
        # connect once the infer workers are forked: a fork copies every open
        # descriptor, and a worker's copy of this socket would keep the
        # connection open past the close below
        deadline = time.monotonic() + 10
        while (len(multiprocessing.active_children()) < pipeline._infer_workers()
               and time.monotonic() < deadline):
            time.sleep(0.01)

        first = socket.create_connection(bound["addr"], timeout=10)
        f = first.makefile("rb")
        got_first = read_frame(f)
        assert got_first.frame_id == 0
        # slam the door: RST on close so the server notices quickly; the
        # makefile wrapper must go too or the fd stays open
        first.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        f.close()
        first.close()

        deadline = time.time() + 30
        second_msgs = None
        while time.time() < deadline:
            try:
                with socket.create_connection(bound["addr"], timeout=10) as cli:
                    second_msgs = read_stream(cli)
                break
            except (ConnectionRefusedError, WireError, OSError):
                time.sleep(0.05)
        t.join(timeout=30)
        assert not t.is_alive()
        assert second_msgs, "second client never got the stream tail"
        ids = [m.frame_id for m in second_msgs]
        # a contiguous tail: frames in flight at the failure are lost, the
        # rest arrive in order and the ids keep counting across clients
        assert ids == list(range(ids[0], 32))
        assert ids[0] > 0  # strictly after what client one consumed
        assert result["stats"].frames == len(second_msgs)
        # each frame carries its own grid, not a reply left over from the
        # first client's run
        for m in second_msgs:
            assert m.detections == wire_detections(model, imgs[m.frame_id], run_cfg), m.frame_id

    @pytest.mark.parametrize("source", ["itertools.repeat(img)", "[img] * 8"])
    def test_interrupt_with_a_stalled_client_exits_soon(self, source):
        # a client connects and never reads, so the stream thread blocks in
        # a send; Ctrl-C must end that send after the drain grace rather than
        # wait out the send timeout (patched to 60 s). With the endless
        # source the interrupt lands while the controller feeds the stages;
        # with the finite one, while it waits for them after the source ran
        # out. Run in a child so a regression times out instead of hanging.
        proc = run_child(SERVE_CHILD_SETUP + textwrap.dedent(f"""
            stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            exhausted = threading.Event()
            sent = []

            def frames():
                yield from {source}
                exhausted.set()

            def interrupt():
                exhausted.wait(2.0)
                time.sleep(0.2)
                sent.append(time.monotonic())
                os.kill(os.getpid(), signal.SIGINT)

            def on_bound(addr):
                stalled.connect(addr)
                threading.Thread(target=interrupt).start()

            try:
                pipeline.serve_tcp(("127.0.0.1", 0), frames(), model, on_bound=on_bound)
            except KeyboardInterrupt:
                live = [t.name for t in threading.enumerate() if t.name.startswith("stage-")]
                live += [p.name for p in multiprocessing.active_children()]
                print(exhausted.is_set(), live, round(time.monotonic() - sent[0], 1))
        """))
        assert proc.returncode == 0, proc.stderr
        exhausted, live, seconds = proc.stdout.split("\n")[0].split(" ", 2)
        assert (exhausted, live) == (str(source.startswith("[")), "[]")
        assert float(seconds) < 10.0

    def test_interrupt_with_a_reading_client_ends_the_stream_cleanly(self):
        # the client keeps reading through Ctrl-C: it must get whole frames
        # in order and then the end marker, not a stream cut mid-message
        proc = run_child(SERVE_CHILD_SETUP + textwrap.dedent("""
            got, readers, workers = [], [], []

            def client(addr):
                with socket.create_connection(addr) as cli, cli.makefile("rb") as f:
                    try:
                        while (msg := pipeline.read_frame(f)) is not None:
                            got.append(msg.frame_id)
                            if len(got) == 3:
                                # as a terminal's Ctrl-C, which the workers ignore
                                workers.extend(multiprocessing.active_children())
                                for p in workers:
                                    os.kill(p.pid, signal.SIGINT)
                                os.kill(os.getpid(), signal.SIGINT)
                        got.append("end")
                    except (pipeline.WireError, OSError) as e:
                        got.append(type(e).__name__)

            def on_bound(addr):
                readers.append(threading.Thread(target=client, args=(addr,)))
                readers[0].start()

            try:
                pipeline.serve_tcp(("127.0.0.1", 0), itertools.repeat(img), model,
                                   on_bound=on_bound)
            except KeyboardInterrupt:
                readers[0].join(10)
                live = [t.name for t in threading.enumerate() if t.name.startswith("stage-")]
                live += [p.name for p in multiprocessing.active_children()]
                print(live, got[-1], got[:-1] == list(range(len(got) - 1)),
                      len(workers), {p.exitcode for p in workers})
        """))
        assert proc.returncode == 0, proc.stderr
        # every worker outlived its SIGINT and exited 0 at the end of its pipe
        line = proc.stdout.split("\n")[0]
        assert line in ("[] end True 1 {0}", "[] end True 2 {0}"), line

    def test_stalled_client_is_dropped(self, model, monkeypatch):
        # the first client connects and never reads; once the socket buffers
        # fill, its send times out and the next client gets the stream tail
        monkeypatch.setattr(pipeline, "SEND_TIMEOUT_S", 0.5, raising=False)
        n = 32
        img = rand_image(np.random.default_rng(3), 640, 480)
        bound = {}
        ready = threading.Event()

        def on_bound(addr):
            bound["addr"] = addr
            ready.set()

        result = {}

        def serve():
            result["stats"] = serve_tcp(
                ("127.0.0.1", 0), [img] * n, model,
                cfg=PipelineConfig(queue_capacity=1), on_bound=on_bound,
            )

        # daemon: a server stuck on the stalled client must not outlive the run
        t = threading.Thread(target=serve, daemon=True)
        t.start()
        assert ready.wait(5)
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(bound["addr"])
        try:
            with socket.create_connection(bound["addr"], timeout=20) as cli:
                msgs = read_stream(cli)
            t.join(timeout=20)
        finally:
            stalled.close()
        assert not t.is_alive()
        assert multiprocessing.active_children() == []
        ids = [m.frame_id for m in msgs]
        assert ids and ids == list(range(ids[0], n))
        assert result["stats"].frames == len(msgs)
