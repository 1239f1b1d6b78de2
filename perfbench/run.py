"""lpyolo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stream-backlog --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The program under test runs in child
interpreters (perfbench/program.py) from the sources in src/; this process
generates the inputs, plays the TCP client, checks every output after the
timed region and prints a report. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. The full
result, with the environment record, goes to .perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time
import zlib

import check
import report
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(HERE, "program.py")
RESULTS = os.path.join(ROOT, ".perfbench", "results")

SETUPS = 7  # fresh-interpreter set-ups per untraced run; setup_s is their median
CHILD_GRACE_S = 90  # beyond --seconds, for set-up, drain and exit
SOCKET_TIMEOUT_S = 60


class BenchError(RuntimeError):
    pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lpyolo", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of "
                f"{', '.join(workloads.WORKLOADS)} or all")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(workloads.WORKLOADS[name], args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


def run_workload(wl, args) -> dict:
    from lpyolo.model import ModelConfig, RunConfig, random_init, save_weights

    work = os.path.join(ROOT, ".perfbench", f"work-{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        model = random_init(ModelConfig(wl.bits, wl.bits), workloads.WEIGHT_SEED)
        weights = os.path.join(work, "weights.lpyq")
        save_weights(model, weights)
        run_cfg = RunConfig(conf_threshold=wl.conf)
        ctx = Context(wl, args.seed, weights, work, model, run_cfg)
        if args.trace:
            plain = ctx.run(args.seconds / 2)
            spans_path = os.path.join(RESULTS, f"{tag}-spans.json")
            traced = ctx.run(args.seconds / 2, spans=spans_path)
            runs = [plain, traced]
            detail = traced_detail(plain, traced, spans_path)
            metrics = detail.pop("metrics")
        else:
            setups = [ctx.setup_only() for _ in range(SETUPS - 1)]
            main_run = ctx.run(args.seconds)
            runs = [main_run]
            detail = end_to_end(main_run, setups + [main_run["setup_s"]])
            metrics = detail.pop("metrics")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, environment=report.environment(ROOT, wl.name, args.seed, args.seconds),
                detail=detail, checked=[len(r["checked"]) for r in runs])
    path = os.path.join(RESULTS, f"{tag}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(full, f, indent=1)
    print_summary(wl.name, result, detail, full["environment"], path)
    return result


class Context:
    """Everything one workload's child runs share."""

    def __init__(self, wl, seed, weights, work, model, run_cfg):
        self.wl, self.seed, self.weights, self.work = wl, seed, weights, work
        self.model, self.run_cfg = model, run_cfg

    def command(self, seconds, out, extra=()):
        return [sys.executable, PROGRAM, "serve" if self.wl.kind == "stream" else "eval",
                "--weights", self.weights, "--conf", repr(self.wl.conf),
                "--seed", str(self.seed), "--seconds", repr(float(seconds)),
                "--out", out, *extra]

    def setup_only(self) -> float:
        if self.wl.kind == "stream":
            return self.stream(0)["setup_s"]
        return self.eval(0)["setup_s"]

    def run(self, seconds, spans=None) -> dict:
        if self.wl.kind == "stream":
            return self.stream(seconds, spans=spans)
        return self.eval(seconds, spans=spans)

    def stream(self, seconds, spans=None) -> dict:
        from lpyolo import pipeline

        out = os.path.join(self.work, "program.json")
        extra = []
        if self.wl.rate is not None:
            extra += ["--rate", repr(self.wl.rate)]
        if spans:
            extra += ["--spans", spans]
        client = tracing.Tracer()
        restore = tracing.install(client, ["pipeline.read_frame"]) if spans else None
        received, recv_t = [], []
        try:
            with Child(self.command(seconds, out, extra), seconds) as child:
                bound = json.loads(child.readline())
                with socket.create_connection(("127.0.0.1", bound["port"]),
                                              timeout=SOCKET_TIMEOUT_S) as sock:
                    setup_s = time.perf_counter() - bound["t0"]
                    with sock.makefile("rb") as f:
                        while True:
                            msg = pipeline.read_frame(f)
                            t = time.perf_counter()
                            if msg is None:
                                break
                            recv_t.append(t)
                            received.append((msg.frame_id, check.det_digest(msg.detections),
                                             zlib.crc32(msg.payload)))
                child.finish()
        finally:
            if restore is not None:
                restore()
        prog = read_json(out)
        offered = prog["offered"]
        starts = offered if self.wl.rate is None else prog["due"]
        latencies = [(t - starts[fid]) * 1e3 for (fid, _d, _c), t in zip(received, recv_t)
                     if fid < len(starts)]
        failed, checked = check.check_stream(self.wl, self.model, self.run_cfg, self.seed,
                                             len(offered), received)
        wall = recv_t[-1] - offered[0] if recv_t else 0.0
        return {
            "setup_s": setup_s,
            "attempted": max(len(offered), len(received)),
            "failed": sorted(failed),
            "checked": checked,
            "fps": len(received) / wall if wall > 0 else 0.0,
            "latencies_ms": latencies,
            "late_ms": [(o - d) * 1e3 for o, d in zip(offered, prog["due"])],
            "peak_rss_mb": prog["maxrss_kb"] / 1024,
            "program": prog,
            "client_spans": client.spans,
        }

    def eval(self, seconds, spans=None) -> dict:
        out = os.path.join(self.work, "program.json")
        extra = ["--work", os.path.join(self.work, "eval")]
        if spans:
            extra += ["--spans", spans]
        with Child(self.command(seconds, out, extra), seconds) as child:
            child.finish()
        prog = read_json(out)
        calls = prog["calls"]
        failed, checked = check.check_eval(self.wl, self.model, self.run_cfg, self.seed,
                                           calls)
        wall = sum(c["wall"] for c in calls)
        images = sum(len(workloads.eval_indices(c["call"])) for c in calls)
        return {
            "setup_s": prog["setup_s"],
            "attempted": images,
            "failed": sorted(failed),
            "checked": checked,
            "fps": images / wall if wall > 0 else 0.0,
            "latencies_ms": [c["wall"] * 1e3 for c in calls],
            "late_ms": [],
            "peak_rss_mb": prog["maxrss_kb"] / 1024,
            "program": prog,
            "client_spans": [],
        }


class Child:
    """A program.py process that is always reaped, killed if need be."""

    def __init__(self, cmd, seconds):
        self.deadline = seconds + CHILD_GRACE_S
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"program exited before binding (code {self.proc.wait()})")
        return line

    def finish(self) -> None:
        rc = self.proc.wait(timeout=self.deadline)
        if rc != 0:
            raise BenchError(f"program exited with code {rc}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        return False


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def end_to_end(run: dict, setups: list) -> dict:
    lat = run["latencies_ms"]
    tail_v, tail_pct, n = report.tail(lat)
    attempted = run["attempted"]
    return {
        "metrics": {
            "fps": (run["fps"], "frames/s"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_tail_ms": (tail_v, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        },
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "latencies_ms": lat,
        "setup_samples_s": setups,
        "failed_frac": len(run["failed"]) / attempted if attempted else 0.0,
        "failed_ids": run["failed"],
        "generator_late_max_ms": max(run["late_ms"], default=0.0),
    }


def traced_detail(plain: dict, traced: dict, spans_path: str) -> dict:
    prog = traced["program"]
    spans = read_json(spans_path)
    m = report.layer_metrics(spans, traced["client_spans"], prog.get("offered", []),
                             prog.get("stage_busy", {}), prog.get("frames", 0))
    m["bench.generator_late_ms"] = (max(traced["late_ms"], default=0.0), "ms")
    overhead = 1.0 - traced["fps"] / plain["fps"] if plain["fps"] else 0.0
    m["bench.trace_overhead_frac"] = (overhead, "frac")
    table = report.folding_table(m)
    return {
        "metrics": m,
        "fps_untraced": plain["fps"],
        "fps_traced": traced["fps"],
        "macs_per_forward": report.conv_macs(),
        "macs_source": "static shape plan (lpyolo.model.plan_shapes, CONV_PLAN)",
        "keep_ratio_base_candidates": sum(
            s[7] for s in spans if s[1] == "postprocess.decode_grid"),
        "folding": table,
        "spans": spans_path,
    }


def print_summary(name, result, detail, env, path) -> None:
    print(f"== {name}")
    print(f"environment: {json.dumps(env)}")
    for k, m in result["metrics"].items():
        print(f"{k:<34}{m['value']:>14.4f} {m['unit']}")
    if "latency_samples" in detail:
        print(f"  latency_tail_ms is p{detail['latency_tail_percentile']:.1f} of "
              f"{detail['latency_samples']} samples; setup_s is the median of "
              f"{len(detail['setup_samples_s'])} set-ups")
    if "folding" in detail:
        print(report.format_folding_table(detail["folding"]))
    frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'failed_frac':<34}{frac:>14.4f} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"full result: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
