import io
import itertools
import math
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
    import itertools, os, signal, socket, threading, time
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
        def bad_source():
            yield 1
            raise ValueError("source broke")

        with pytest.raises(PipelineError) as ei:
            run_staged(bad_source(), [("a", lambda x: x)])
        assert ei.value.stage == "source"

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


    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), max_size=24), st.integers(1, 3))
    def test_two_worker_stage_keeps_order(self, sleeps_ms, capacity):
        seen, ends = [], []

        def nap(item):
            i, ms = item
            time.sleep(ms / 1e3)
            return i

        stages = [("tag", lambda x: x), ("nap", nap, 2), ("collect", seen.append)]
        stats = run_staged(enumerate(sleeps_ms), stages, queue_capacity=capacity,
                           on_end=lambda: ends.append(1))
        assert seen == list(range(len(sleeps_ms)))
        assert stats.frames == len(sleeps_ms)
        assert ends == [1]
        assert not [t for t in threading.enumerate() if t.name.startswith("stage-")]

    def test_many_workers_under_fast_switching(self):
        # more workers than cores, each thread switch forced early: a lost
        # update of the hand-off counters would reorder, drop or hang items
        seen = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stages = [("a", lambda x: x, 3), ("b", lambda x: x + 1, 4), ("c", seen.append)]
            done = {}
            t = threading.Thread(target=lambda: done.setdefault(
                "stats", run_staged(range(2000), stages, queue_capacity=2)))
            t.start()
            t.join(60)
        finally:
            sys.setswitchinterval(old)
        assert not t.is_alive()
        assert seen == list(range(1, 2001))
        assert done["stats"].frames == 2000

    def test_worker_error_while_sibling_runs_surfaces(self):
        # item 3 fails on one worker while the other still runs item 4; the
        # sibling must not wait forever for item 3's turn. Run in a child so
        # a deadlock times out instead of hanging here.
        proc = run_child(textwrap.dedent("""
            import threading, time
            from lpyolo.pipeline import PipelineError, run_staged
            sibling = threading.Event()

            def work(x):
                if x == 3:
                    sibling.wait(5)
                    raise RuntimeError("kaput")
                if x == 4:
                    sibling.set()
                    time.sleep(0.05)
                return x

            try:
                run_staged(range(100), [("work", work, 2), ("c", lambda x: None)])
            except PipelineError as e:
                print(sibling.is_set(), e.stage, type(e.original).__name__)
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == "True work RuntimeError"

    def test_one_item_at_a_time_runs_on_one_worker(self):
        # each item is fed only after the sink has the one before: the idle
        # worker 0 takes every item, so a second worker never grows scratch
        consumed = threading.Semaphore(0)
        ran_on = []

        def source():
            for i in range(20):
                yield i
                assert consumed.acquire(timeout=5)

        def work(x):
            ran_on.append(threading.get_ident())
            return x

        run_staged(source(), [("work", work, 2), ("sink", lambda x: consumed.release())])
        assert len(ran_on) == 20
        assert len(set(ran_on)) == 1

    def test_two_workers_overlap(self):
        delay = 0.05

        def slow(x):
            time.sleep(delay)
            return x

        t0 = time.monotonic()
        stats = run_staged(range(2), [("slow", slow, 2), ("c", lambda x: None)])
        assert time.monotonic() - t0 < 1.5 * delay
        assert stats.stage_busy["slow"] >= 2 * delay > stats.wall_seconds

    @pytest.mark.parametrize("stages", [
        [("a", lambda x: x, 0), ("c", lambda x: None)],
        [("a", lambda x: x), ("c", lambda x: None, 2)],
    ], ids=["no-worker", "two-sink-workers"])
    def test_worker_counts_validated(self, stages):
        with pytest.raises(ValueError, match="worker"):
            run_staged(range(3), stages)


class TestRunPipeline:
    """The four stages, run the one way they run: serve_tcp to a client."""

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
        assert STAGES == ("preprocess", "infer", "postprocess", "stream")


class TestInferWorkers:
    """serve_tcp runs two infer workers only where they help: two CPUs to
    run on and BLAS on one thread."""

    def infer_threads(self, model, monkeypatch):
        counts = set()

        def counting_forward(m, x):
            counts.add(sum(t.name == "stage-infer" for t in threading.enumerate()))
            return forward(m, x)

        monkeypatch.setattr(pipeline, "forward", counting_forward)
        rng = np.random.default_rng(5)
        msgs, _stats = serve_one_client([rand_image(rng, 16, 16) for _ in range(3)], model)
        assert [m.frame_id for m in msgs] == [0, 1, 2]
        return counts

    def test_two_on_two_cpus_with_blas_pinned(self, model, monkeypatch):
        lib = kernels._openblas()
        if lib is None or not hasattr(lib, "scipy_openblas_set_num_threads64_"):
            pytest.skip("numpy without its bundled scipy-openblas")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert self.infer_threads(model, monkeypatch) == {2}

    def test_one_without_blas_pin(self, model, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(kernels, "_openblas", lambda: None)
        assert self.infer_threads(model, monkeypatch) == {1}

    def test_one_on_one_cpu(self, model, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.infer_threads(model, monkeypatch) == {1}


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
        # enough frames that the in-flight window (4 queues + up to 5
        # workers) cannot swallow the whole source when the first client dies
        rng = np.random.default_rng(2)
        imgs = [rand_image(rng, 16, 16) for _ in range(32)]
        bound = {}
        ready = threading.Event()

        def on_bound(addr):
            bound["addr"] = addr
            ready.set()

        result = {}

        def serve():
            result["stats"] = serve_tcp(
                ("127.0.0.1", 0), imgs, model,
                cfg=PipelineConfig(queue_capacity=1), on_bound=on_bound,
            )

        t = threading.Thread(target=serve)
        t.start()
        assert ready.wait(5)

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
            got, readers = [], []

            def client(addr):
                with socket.create_connection(addr) as cli, cli.makefile("rb") as f:
                    try:
                        while (msg := pipeline.read_frame(f)) is not None:
                            got.append(msg.frame_id)
                            if len(got) == 3:
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
                print(live, got[-1], got[:-1] == list(range(len(got) - 1)))
        """))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[0] == "[] end True"

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
        ids = [m.frame_id for m in msgs]
        assert ids and ids == list(range(ids[0], n))
        assert result["stats"].frames == len(msgs)
