"""Command-line entry point.

Subcommands: infer (single image), bench (staged latency), serve (TCP
stream), eval (average precision against ground truth), init-weights
(deterministic fixture weights), fold (parallelism/latency exploration).

Exit codes: 0 success, 1 unexpected runtime failure, 2 bad input or
arguments. Settings come from an optional JSON run config; flags win over
the file.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import socket
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

from . import folding
from .imaging import draw_detections, list_frames, read_ppm, to_input, write_ppm
from .kernels import ACC_LIMIT, scratch_bytes
from .model import (
    DECODE_MODES,
    Model,
    ModelConfig,
    RunConfig,
    build_model,
    forward,
    load_run_config,
    load_weights,
    precision_plan,
    random_init,
    save_weights,
)
from .pipeline import MAX_FRAME_SIDE, PipelineConfig, PipelineError, serve_tcp
from .postprocess import (detect, evaluate_ap, format_detection_line, parse_widerface_gt,
                          to_pixel_box)

BENCH_STAGES = ("Preprocessing", "CNN", "Postprocessing")


class CliInputError(Exception):
    """Bad input or arguments; maps to exit code 2."""


@contextmanager
def _fail_input(stage: str, errors=(OSError, ValueError)):
    """Raise CliInputError (exit 2) naming `stage` for `errors` raised in the
    block."""
    try:
        yield
    except errors as e:
        raise CliInputError(f"{stage}: {e}") from e


def _load_run_config(args) -> RunConfig:
    run = RunConfig()
    if args.config:
        with _fail_input("config"):
            run = load_run_config(args.config)
    overrides = {}
    for flag, field in (
        ("conf", "conf_threshold"),
        ("nms_iou", "nms_iou"),
        ("decode_mode", "decode_mode"),
    ):
        v = getattr(args, flag)
        if v is not None:
            overrides[field] = v
    if overrides:
        with _fail_input("config", ValueError):
            run = replace(run, **overrides)
    return run


def _load_model(args, run: RunConfig) -> Model:
    with _fail_input("weights"):
        wf = load_weights(args.weights)
        return build_model(run.model_config(wf.weight_bits, wf.act_bits), wf)


def _read_image(path):
    with _fail_input("image"):
        return read_ppm(path)


def cmd_infer(args) -> int:
    run = _load_run_config(args)
    model = _load_model(args, run)
    img = _read_image(args.image)
    out = forward(model, to_input(img))
    dets = detect(out, model.config, run)
    with _fail_input("output", OSError):
        write_ppm(draw_detections(img, dets), args.out)
        if args.grid_dump:
            with open(args.grid_dump, "wb") as f:
                f.write(out.data.tobytes())
    for d in dets:
        print(f"{d.score:.6f} {d.cx:.6f} {d.cy:.6f} {d.w:.6f} {d.h:.6f}")
    return 0


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise CliInputError("iters must be >= 1")
    run = _load_run_config(args)
    model = _load_model(args, run)
    img = _read_image(args.image)
    times = {name: [] for name in BENCH_STAGES}
    # process-wide user s, system s and minor page faults over recorded CNN passes
    cnn_usage = [0.0, 0.0, 0]

    def one_pass(record: bool) -> None:
        t0 = time.perf_counter()
        x = to_input(img)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        out = forward(model, x)
        t2 = time.perf_counter()
        r2 = resource.getrusage(resource.RUSAGE_SELF)
        detect(out, model.config, run)
        t3 = time.perf_counter()
        if record:
            times["Preprocessing"].append((t1 - t0) * 1e3)
            times["CNN"].append((t2 - t1) * 1e3)
            times["Postprocessing"].append((t3 - t2) * 1e3)
            cnn_usage[0] += r2.ru_utime - r1.ru_utime
            cnn_usage[1] += r2.ru_stime - r1.ru_stime
            cnn_usage[2] += r2.ru_minflt - r1.ru_minflt

    one_pass(record=False)  # warm-up excluded from statistics
    for _ in range(args.iters):
        one_pass(record=True)
    print(f"iterations: {args.iters}")
    print(f"{'stage':<16}{'mean_ms':>12}{'min_ms':>12}{'max_ms':>12}")
    for name in BENCH_STAGES:
        vals = times[name]
        print(
            f"{name:<16}{sum(vals) / len(vals):>12.3f}"
            f"{min(vals):>12.3f}{max(vals):>12.3f}"
        )
    # stderr keeps stdout to the stage table that scripts parse
    print(f"{'conv':<8}{'in_qmax':>8}{'acc_bound':>12}{'dtype':>9}{'headroom_bits':>15}",
          file=sys.stderr)
    for name, qmax, bound, dtype in precision_plan(model):
        headroom = math.log2(ACC_LIMIT / bound) if bound else math.inf
        print(f"{name:<8}{qmax:>8}{bound:>12}{dtype.name:>9}{headroom:>15.2f}",
              file=sys.stderr)
    # BLAS runs on one thread (set in build_model), so CPU time tracks the CNN's
    # wall time; only where the thread count cannot be set do helpers add to it
    user, system, faults = (v / args.iters for v in cnn_usage)
    print(f"CNN per pass: user_cpu_ms {user * 1e3:.3f} sys_cpu_ms {system * 1e3:.3f} "
          f"minor_faults {faults:.1f} scratch_mb {scratch_bytes() / 1e6:.2f}",
          file=sys.stderr)
    return 0


def _frame_reader(paths):
    for p in paths:
        img = read_ppm(p)
        # a frame the wire cannot state is bad input, refused before any work
        if max(img.width, img.height) > MAX_FRAME_SIDE:
            raise ValueError(f"{p}: {img.width}x{img.height} frame is over "
                             f"{MAX_FRAME_SIDE} pixels a side")
        yield img


def cmd_serve(args) -> int:
    run = _load_run_config(args)
    model = _load_model(args, run)
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdecimal():
        raise CliInputError(f"listen address {args.listen!r} is not HOST:PORT")
    if int(port) > 65535:
        raise CliInputError(f"listen port {port} outside 0..65535")
    if not os.path.isdir(args.source):
        raise CliInputError(f"source: {args.source!r} is not a directory")
    paths = list_frames(args.source)
    with _fail_input("pipeline", ValueError):
        cfg = PipelineConfig(queue_capacity=args.queue_capacity)
    try:
        stats = serve_tcp(
            (host, int(port)),
            _frame_reader(paths),
            model,
            cfg,
            run,
            on_bound=lambda addr: print(f"listening on {addr[0]}:{addr[1]}", flush=True),
        )
    except socket.gaierror as e:  # only the bind resolves a name
        raise CliInputError(f"listen address: {e}") from e
    except PipelineError as e:
        # a frame that cannot be read is bad input, like any other image
        if e.stage == "source" and isinstance(e.original, (OSError, ValueError)):
            raise CliInputError(f"image: {e.original}") from e.original
        raise
    print(f"served {stats.frames} frames in {stats.wall_seconds:.2f}s "
          f"({stats.fps:.2f} fps)")
    return 0


def cmd_eval(args) -> int:
    run = _load_run_config(args)
    model = _load_model(args, run)
    with _fail_input("ground truth"):
        gt = parse_widerface_gt(args.gt)
    preds = []
    lines = []
    for image_id in gt.boxes:
        path = os.path.join(args.images, image_id)
        if not os.path.exists(path):
            stem, _ext = os.path.splitext(path)
            path = stem + ".ppm"
        if not os.path.exists(path):
            raise CliInputError(f"image: missing frame for {image_id!r}")
        img = _read_image(path)
        dets = detect(forward(model, to_input(img)), model.config, run)
        for d in dets:
            x, y, w, h = to_pixel_box(d, img.width, img.height)
            preds.append((image_id, d.score, x, y, w, h))
            lines.append(format_detection_line(image_id, d, img.width, img.height))
    if args.detections:
        with _fail_input("output", OSError), open(args.detections, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
    if gt.total() == 0:
        print("AP@0.5: 0.000000 (no ground truth)")
        return 0
    ap = evaluate_ap(preds, gt, iou_threshold=0.5)
    print(f"AP@0.5: {ap:.6f}")
    return 0


def cmd_init_weights(args) -> int:
    if args.seed < 0:
        raise CliInputError(f"seed must be >= 0, got {args.seed}")
    with _fail_input("config", ValueError):
        cfg = ModelConfig(weight_bits=args.weight_bits, act_bits=args.act_bits)
    model = random_init(cfg, seed=args.seed, with_bias=not args.no_bias)
    with _fail_input("output", OSError):
        save_weights(model, args.out)
    print(f"wrote {cfg.weight_bits}W{cfg.act_bits}A weights to {args.out}")
    return 0


def cmd_fold(args) -> int:
    with _fail_input("folding"):
        if args.balance is not None:
            spec = folding.balance_folding(args.balance)
        else:
            spec = folding.parse_folding_spec(args.spec)
        report = folding.format_report(spec, clock_hz=args.clock_mhz * 1e6)
    print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lpyolo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def with_model(sp):
        sp.add_argument("--weights", required=True, help="weight file (LPYQ)")
        sp.add_argument("--config", help="JSON run config")
        sp.add_argument("--conf", type=float, help="confidence threshold override")
        sp.add_argument("--nms-iou", type=float, dest="nms_iou",
                        help="NMS IoU threshold override")
        sp.add_argument("--decode-mode", choices=DECODE_MODES,
                        dest="decode_mode", help="box size decode override")

    sp = sub.add_parser("infer", help="detect faces in one PPM image")
    with_model(sp)
    sp.add_argument("--image", required=True)
    sp.add_argument("--out", required=True, help="annotated PPM path")
    sp.add_argument("--grid-dump", help="write raw 13x13x18 grid bytes here")
    sp.set_defaults(func=cmd_infer)

    sp = sub.add_parser("bench", help="per-stage latency on one image")
    with_model(sp)
    sp.add_argument("--image", required=True)
    sp.add_argument("--iters", type=int, default=10)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("serve", help="stream detections for a frame directory over TCP")
    with_model(sp)
    sp.add_argument("--source", required=True, help="directory of PPM frames")
    sp.add_argument("--listen", default="127.0.0.1:5555", help="HOST:PORT")
    sp.add_argument("--queue-capacity", type=int, default=PipelineConfig.queue_capacity)
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser("eval", help="average precision against annotation file")
    with_model(sp)
    sp.add_argument("--images", required=True, help="frame directory")
    sp.add_argument("--gt", required=True, help="annotation text file")
    sp.add_argument("--detections", help="also dump detection lines here")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("init-weights", help="write deterministic random weights")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weight-bits", type=int, required=True, dest="weight_bits")
    sp.add_argument("--act-bits", type=int, required=True, dest="act_bits")
    sp.add_argument("--out", required=True)
    sp.add_argument("--no-bias", action="store_true")
    sp.set_defaults(func=cmd_init_weights)

    sp = sub.add_parser("fold", help="cycle counts and throughput for a folding choice")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--spec", help="folding spec file: 'layer_index pe simd' lines")
    g.add_argument("--balance", type=int, help="auto-balance within this pe*simd budget")
    sp.add_argument("--clock-mhz", type=float, default=100.0)
    sp.set_defaults(func=cmd_fold)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
