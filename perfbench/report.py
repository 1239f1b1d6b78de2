"""Numbers from a run: end-to-end statistics, per-layer metrics derived
from spans, the measured-versus-modelled conv table, and the environment
record every result carries."""

from __future__ import annotations

import os
import platform
import statistics
from collections import defaultdict

CONVS = 10
POOLS = 6
STAGES = ("preprocess", "infer", "postprocess", "stream")
# First and last span of each stage for one frame, by function name.
STAGE_SPANS = {
    "preprocess": ("imaging.resize_nearest", "imaging.pack_input"),
    "infer": ("model.forward", "model.forward"),
    "postprocess": ("postprocess.dequantize_output", "postprocess.nms"),
    "stream": ("pipeline.encode_frame", "pipeline.encode_frame"),
}
# Spans that are not per-frame work, kept out of per-frame self time.
NOT_PER_FRAME = {"model.load_weights", "model.build_model", "postprocess.evaluate_ap"}
MODULES = ("imaging", "model", "kernels", "postprocess", "pipeline")
BALANCE_BUDGET = 256


def tail(values):
    """(value, percentile, samples): the highest percentile that still has
    at least 10 samples beyond it; the maximum when there are 10 or fewer."""
    s = sorted(values)
    n = len(s)
    j = n - 11 if n > 10 else n - 1
    return s[j], 100.0 * (j + 1) / n, n


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _ms(span) -> float:
    return (span[3] - span[2]) * 1e3


def layer_metrics(spans, client_spans, offered, stage_busy, frames) -> dict:
    """Per-layer metrics (name -> (value, unit)). Values are per-frame
    medians unless the name says otherwise; a layer a workload never
    calls reads 0."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append(s)

    def med(name):
        return median_or_zero([_ms(s) for s in by_name[name]])

    def self_ms(s):
        return _ms(s) - sum(_ms(c) for c in children[s[0]])

    m = {}
    m["imaging.read_ppm_ms"] = (med("imaging.read_ppm"), "ms")
    m["imaging.resize_ms"] = (med("imaging.resize_nearest"), "ms")
    m["imaging.pack_ms"] = (med("imaging.pack_input"), "ms")
    loads = by_name["model.load_weights"]
    load_total = sum(_ms(s) for s in loads + by_name["model.build_model"])
    m["model.load_ms"] = (load_total / len(loads) if loads else 0.0, "ms")
    m["model.forward_ms"] = (med("model.forward"), "ms")

    conv = [[] for _ in range(CONVS)]
    requant = [[] for _ in range(CONVS)]
    pool = [[] for _ in range(POOLS)]
    for fwd in by_name["model.forward"]:
        kids = sorted(children[fwd[0]], key=lambda s: s[2])
        for series, name in ((conv, "kernels.conv2d_acc"), (requant, "kernels.requantize"),
                             (pool, "kernels.maxpool")):
            for i, s in enumerate(k for k in kids if k[1] == name):
                series[i].append(_ms(s))
    conv_ms = [median_or_zero(v) for v in conv]
    requant_ms = [median_or_zero(v) for v in requant]
    for i in range(CONVS):
        m[f"kernels.conv{i + 1}.conv_ms"] = (conv_ms[i], "ms")
        m[f"kernels.conv{i + 1}.requant_ms"] = (requant_ms[i], "ms")
    for i in range(POOLS):
        m[f"kernels.pool{i + 1}_ms"] = (median_or_zero(pool[i]), "ms")
    total_conv_s = sum(conv_ms) / 1e3
    m["kernels.gmac_s"] = (conv_macs() / total_conv_s / 1e9 if total_conv_s else 0.0,
                           "GMAC/s")

    m["postprocess.dequantize_ms"] = (med("postprocess.dequantize_output"), "ms")
    m["postprocess.decode_ms"] = (med("postprocess.decode_grid"), "ms")
    m["postprocess.nms_ms"] = (med("postprocess.nms"), "ms")
    cands = [s[7] for s in by_name["postprocess.decode_grid"]]
    kept = [s[7] for s in by_name["postprocess.nms"]]
    m["postprocess.candidates"] = (median_or_zero(cands), "count")
    m["postprocess.kept"] = (median_or_zero(kept), "count")
    m["postprocess.keep_ratio"] = (sum(kept) / sum(cands) if sum(cands) else 0.0, "ratio")
    m["postprocess.evaluate_ap_ms"] = (med("postprocess.evaluate_ap"), "ms")

    # Per-frame self time of each module, summed over the frame's spans.
    per_frame = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s[5] >= 0 and s[1] not in NOT_PER_FRAME:
            per_frame[s[1].split(".")[0]][s[5]] += self_ms(s)
    for mod in MODULES:
        m[f"{mod}.self_ms"] = (median_or_zero(list(per_frame[mod].values())), "ms")

    # Stage waits: a frame's first span in a stage minus its last span in
    # the stage before (the source's offer time for preprocess).
    first, last = {}, {}
    for stage, (open_name, close_name) in STAGE_SPANS.items():
        thread = f"stage-{stage}"
        first[stage] = {s[5]: s[2] for s in by_name[open_name] if s[6] == thread}
        last[stage] = {s[5]: s[3] for s in by_name[close_name] if s[6] == thread}
    prev_end = dict(enumerate(offered))
    for stage in STAGES:
        waits = [(t - prev_end[f]) * 1e3 for f, t in first[stage].items() if f in prev_end]
        m[f"pipeline.{stage}.wait_ms"] = (median_or_zero(waits), "ms")
        busy = stage_busy.get(stage, 0.0) * 1e3 / frames if frames else 0.0
        m[f"pipeline.{stage}.busy_ms"] = (busy, "ms")
        prev_end = last[stage]
    m["pipeline.encode_ms"] = (med("pipeline.encode_frame"), "ms")
    m["pipeline.read_frame_ms"] = (
        median_or_zero([_ms(s) for s in client_spans if s[1] == "pipeline.read_frame"]), "ms")
    m["pipeline.wire_bytes"] = (
        median_or_zero([s[7] for s in by_name["pipeline.encode_frame"]]), "bytes")
    return m


def conv_macs() -> int:
    """Multiply-accumulates of one forward pass, from the static shape plan."""
    from lpyolo.model import CONV_PLAN, plan_shapes

    outs = [o for name, _i, o in plan_shapes() if name.startswith("conv")]
    return sum(h * w * cout * cin * k * k for (h, w, _c), (cin, cout, k) in zip(outs, CONV_PLAN))


def folding_table(m: dict) -> dict:
    """Each conv's share of measured conv+requantize time next to its share
    of the folding model's conv cycles, at unit folding (the MAC share) and
    at balance_folding(BALANCE_BUDGET). Informational, not gated."""
    from lpyolo import folding

    measured = [m[f"kernels.conv{i}.conv_ms"][0] + m[f"kernels.conv{i}.requant_ms"][0]
                for i in range(1, CONVS + 1)]
    unit = folding.FoldingSpec(folds=((1, 1),) * CONVS)
    balanced = folding.balance_folding(BALANCE_BUDGET)
    rows, shares = [], {}
    for label, spec in (("unit", unit), ("balanced", balanced)):
        cycles = [c for name, c in folding.all_cycles(spec) if name.startswith("conv")]
        shares[label] = [c / sum(cycles) for c in cycles]
    total = sum(measured)
    for i in range(CONVS):
        rows.append({
            "layer": f"conv{i + 1}",
            "measured_share": measured[i] / total if total else 0.0,
            "unit_cycle_share": shares["unit"][i],
            "balanced_cycle_share": shares["balanced"][i],
        })
    return {
        "rows": rows,
        "balance_budget": BALANCE_BUDGET,
        "measured_bottleneck": f"conv{measured.index(max(measured)) + 1}" if total else None,
        "modelled_bottleneck_unit": folding.estimate_throughput(unit)[1],
        "modelled_bottleneck_balanced": folding.estimate_throughput(balanced)[1],
    }


def format_folding_table(t: dict) -> str:
    lines = [f"{'layer':<8}{'measured':>10}{'unit':>10}{'balanced':>10}"
             f"   (shares; balanced = balance_folding({t['balance_budget']}))"]
    for r in t["rows"]:
        lines.append(f"{r['layer']:<8}{r['measured_share']:>10.3f}"
                     f"{r['unit_cycle_share']:>10.3f}{r['balanced_cycle_share']:>10.3f}")
    lines.append(f"measured bottleneck: {t['measured_bottleneck']}; modelled: "
                 f"{t['modelled_bottleneck_unit']} (unit), "
                 f"{t['modelled_bottleneck_balanced']} (balanced)")
    return "\n".join(lines)


def environment(root: str, workload: str, seed: int, seconds: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                       None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(root),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def git_commit(root: str):
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None
