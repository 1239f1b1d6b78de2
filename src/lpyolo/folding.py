"""First-order dataflow folding model: each convolution is a matrix engine
whose parallelism is set by PE (output-channel lanes) and SIMD (input
elements per lane). A layer with folded matrix width MW = k*k*in_ch and
height MH = out_ch needs (MW/SIMD) * (MH/PE) cycles per output pixel;
pools cost one cycle per output pixel. Steady-state pipeline throughput is
the clock divided by the slowest layer. Memory stalls and FIFO effects are
out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import CONV_PLAN, plan_shapes

__all__ = [
    "LayerWork",
    "FoldingSpec",
    "conv_works",
    "layer_cycles",
    "all_cycles",
    "estimate_throughput",
    "balance_folding",
    "parse_folding_spec",
    "format_report",
    "DEFAULT_CLOCK_HZ",
]

DEFAULT_CLOCK_HZ = 100e6


@dataclass(frozen=True)
class LayerWork:
    mw: int
    mh: int
    ofm_pixels: int

    def __post_init__(self) -> None:
        if self.mw < 1 or self.mh < 1 or self.ofm_pixels < 1:
            raise ValueError(f"non-positive work {self}")


@dataclass(frozen=True)
class FoldingSpec:
    """(pe, simd) per convolution, in graph order."""

    folds: tuple

    def __post_init__(self) -> None:
        works = conv_works()
        if len(self.folds) != len(works):
            raise ValueError(f"{len(self.folds)} folds for {len(works)} conv layers")
        for (name, work), (pe, simd) in zip(works, self.folds):
            _check_fold(work, pe, simd, name)


def _check_fold(work: LayerWork, pe: int, simd: int, name: str = "layer") -> None:
    if pe < 1 or simd < 1:
        raise ValueError(f"{name}: pe/simd must be >= 1")
    if work.mh % pe:
        raise ValueError(f"{name}: pe {pe} does not divide MH {work.mh}")
    if work.mw % simd:
        raise ValueError(f"{name}: simd {simd} does not divide MW {work.mw}")


def conv_works() -> list:
    """(name, LayerWork) for the 10 convolutions, graph order."""
    convs = [row for row in plan_shapes() if row[0].startswith("conv")]
    return [
        (name, LayerWork(mw=k * k * in_shape[2], mh=cout,
                         ofm_pixels=out_shape[0] * out_shape[1]))
        for (name, in_shape, out_shape), (_cin, cout, k) in zip(convs, CONV_PLAN)
    ]


def layer_cycles(work: LayerWork, pe: int, simd: int) -> int:
    """cycles = (MW/SIMD) * (MH/PE) * output pixels."""
    _check_fold(work, pe, simd)
    return (work.mw // simd) * (work.mh // pe) * work.ofm_pixels


def all_cycles(spec: FoldingSpec) -> list:
    """(name, cycles) for all 16 layers in graph order."""
    folds = iter(zip(conv_works(), spec.folds))
    rows = []
    for name, _in, out_shape in plan_shapes():
        if name.startswith("conv"):
            (_n, work), (pe, simd) = next(folds)
            rows.append((name, layer_cycles(work, pe, simd)))
        else:
            rows.append((name, out_shape[0] * out_shape[1]))
    return rows


def estimate_throughput(spec: FoldingSpec, clock_hz: float = DEFAULT_CLOCK_HZ):
    """(frames per second, bottleneck layer name); earliest layer wins ties."""
    if not (math.isfinite(clock_hz) and clock_hz > 0):
        raise ValueError(f"clock must be positive and finite, got {clock_hz}")
    rows = all_cycles(spec)
    worst = max(c for _n, c in rows)
    bottleneck = next(n for n, c in rows if c == worst)
    return clock_hz / worst, bottleneck


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _ladder(work: LayerWork) -> list:
    """One (pe, simd) per distinct pe*simd, by rising product; each is the
    pair with the smallest pe. Cycles depend only on the product."""
    rungs = {}
    for pe in _divisors(work.mh):
        for simd in _divisors(work.mw):
            rungs.setdefault(pe * simd, (pe, simd))
    return [rungs[p] for p in sorted(rungs)]


def balance_folding(budget: int) -> FoldingSpec:
    """Spend a total pe*simd budget greedily on the current bottleneck.

    Each step moves one layer up one rung of its ladder, to its cheapest
    strictly-more-parallel divisor pair; the slowest layer gets first claim,
    and when it cannot afford the step (or is fully unfolded) the
    next-slowest is considered. Cycles depend on pe and simd only through
    their product, so the result is locally optimal: no single in-budget
    reassignment of one layer can lower the bottleneck's cycle count.
    """
    works = [w for _n, w in conv_works()]
    if budget < len(works):
        raise ValueError(
            f"budget {budget} below minimum {len(works)} (one pe*simd unit per layer)"
        )
    ladders = [_ladder(w) for w in works]
    pos = [0] * len(works)  # ladders start at (1, 1)
    total = len(works)
    while True:
        order = sorted(range(len(works)),
                       key=lambda i: (-layer_cycles(works[i], *ladders[i][pos[i]]), i))
        for i in order:
            if pos[i] + 1 == len(ladders[i]):
                continue
            (pe, simd), (up_pe, up_simd) = ladders[i][pos[i]:pos[i] + 2]
            step = up_pe * up_simd - pe * simd
            if total + step <= budget:
                pos[i] += 1
                total += step
                break
        else:
            return FoldingSpec(folds=tuple(ladder[p] for ladder, p in zip(ladders, pos)))


def parse_folding_spec(path) -> FoldingSpec:
    """One line per conv layer: "layer_index pe simd" (1-based index).

    Blank lines and lines starting with '#' are ignored; every conv layer
    must appear exactly once.
    """
    works = conv_works()
    seen = {}
    with open(path, "r", encoding="utf-8") as f:
        for ln, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise ValueError(f"line {ln}: expected 'layer_index pe simd'")
            try:
                idx, pe, simd = (int(t) for t in toks)
            except ValueError:
                raise ValueError(f"line {ln}: non-integer field") from None
            if not 1 <= idx <= len(works):
                raise ValueError(f"line {ln}: layer index {idx} outside 1..{len(works)}")
            if idx in seen:
                raise ValueError(f"line {ln}: duplicate layer {idx}")
            seen[idx] = (pe, simd)
    missing = [i for i in range(1, len(works) + 1) if i not in seen]
    if missing:
        raise ValueError(f"missing folding for layers {missing}")
    return FoldingSpec(folds=tuple(seen[i] for i in range(1, len(works) + 1)))


def format_report(spec: FoldingSpec, clock_hz: float = DEFAULT_CLOCK_HZ) -> str:
    """Aligned per-conv cycle table plus bottleneck and fps lines."""
    fps, bottleneck = estimate_throughput(spec, clock_hz)
    cycles = dict(all_cycles(spec))
    header = f"{'layer':<8}{'MW':>6}{'MH':>6}{'PE':>6}{'SIMD':>6}{'cycles':>12}{'ms':>10}"
    lines = [header]
    for (name, work), (pe, simd) in zip(conv_works(), spec.folds):
        c = cycles[name]
        ms = c / clock_hz * 1e3
        lines.append(
            f"{name:<8}{work.mw:>6}{work.mh:>6}{pe:>6}{simd:>6}{c:>12}{ms:>10.3f}"
        )
    lines.append(f"bottleneck: {bottleneck} ({cycles[bottleneck]} cycles)")
    lines.append(f"estimated fps at {clock_hz / 1e6:.1f} MHz: {fps:.1f}")
    return "\n".join(lines)
