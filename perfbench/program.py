"""The program side of one benchmark run, in a fresh interpreter.

    program.py serve --weights W --conf C --seed S --seconds T --out OUT
        [--rate R] [--spans FILE]
    program.py eval  --weights W --conf C --seed S --seconds T --out OUT
        --work DIR [--spans FILE]

serve: set up (import lpyolo.cli, load_weights, build_model), then run
serve_tcp on a free loopback port over an in-memory source of distinct
640x480 frames. The port and the start time of this interpreter go to
stdout as one JSON line once the server is bound. The source yields frames
for T seconds (backlog), or on a schedule of R frames/s for T seconds
(paced); T = 0 is a set-up-only run. After the client
has read the end marker, OUT gets the source's offer and due times, the
pipeline stats and the peak resident set.

eval: set up the same way, then call lpyolo.cli.main(["eval", ...]) over
fresh image pairs until the calls have taken T seconds (T = 0 is a
set-up-only run). OUT gets each call's wall time, printed line and
--detections output.

--spans traces the run (see tracing.py) and writes the spans there.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("serve", "eval"))
    p.add_argument("--weights", required=True)
    p.add_argument("--conf", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rate", type=float)
    p.add_argument("--work")
    p.add_argument("--spans")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import lpyolo.cli  # noqa: F401  part of set-up: a fresh import of the program

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from lpyolo import model as M

    run_cfg = M.RunConfig(conf_threshold=args.conf)
    wf = M.load_weights(args.weights)
    model = M.build_model(run_cfg.model_config(wf.weight_bits, wf.act_bits), wf)
    if args.mode == "serve":
        out = serve(args, model, run_cfg)
    else:
        setup_s = time.perf_counter() - T0
        out = {"setup_s": setup_s, "calls": evaluate(args)}
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out, f)
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    return 0


def serve(args, model, run_cfg) -> dict:
    import workloads
    from lpyolo.imaging import Image
    from lpyolo.pipeline import PipelineConfig, serve_tcp

    offered, due = [], []

    def source():
        start = None
        for i in itertools.count():
            img = Image(
                workloads.STREAM_WIDTH, workloads.STREAM_HEIGHT,
                workloads.stream_frame(args.seed, i),
            )
            now = time.perf_counter()
            if start is None:
                start = now
            when = now if args.rate is None else start + i / args.rate
            if when - start >= args.seconds:
                return
            if when > now:
                time.sleep(when - now)
            offered.append(time.perf_counter())
            due.append(when)
            yield img

    def on_bound(addr):
        print(json.dumps({"port": addr[1], "t0": T0}), flush=True)

    stats = serve_tcp(("127.0.0.1", 0), source(), model, PipelineConfig(), run_cfg,
                      on_bound=on_bound)
    return {
        "offered": offered,
        "due": due,
        "frames": stats.frames,
        "stage_busy": stats.stage_busy,
    }


def evaluate(args) -> list:
    import workloads
    from lpyolo import cli

    calls = []
    elapsed = 0.0
    for call in itertools.count():
        if elapsed >= args.seconds:
            return calls
        directory = os.path.join(args.work, f"call{call}")
        gt = workloads.write_eval_call(directory, args.seed, call)
        det = os.path.join(directory, "detections.txt")
        buf = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["eval", "--weights", args.weights, "--images", directory,
                           "--gt", gt, "--detections", det, "--conf", repr(args.conf)])
        wall = time.perf_counter() - t
        with open(det, encoding="utf-8") as f:
            detections = f.read()
        shutil.rmtree(directory)
        calls.append({"call": call, "rc": rc, "wall": wall,
                      "printed": buf.getvalue(), "detections": detections})
        elapsed += wall


if __name__ == "__main__":
    sys.exit(main())
