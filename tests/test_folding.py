import numpy as np
import pytest

from lpyolo.folding import (
    DEFAULT_CLOCK_HZ,
    FoldingSpec,
    LayerWork,
    all_cycles,
    balance_folding,
    conv_works,
    estimate_throughput,
    format_report,
    layer_cycles,
    parse_folding_spec,
)

# (MW, MH, output pixels) per conv, worked out from the channel plan by hand
EXPECTED_WORKS = [
    ("conv1", 27, 8, 173056),
    ("conv2", 72, 8, 43264),
    ("conv3", 72, 16, 10816),
    ("conv4", 144, 32, 2704),
    ("conv5", 288, 56, 676),
    ("conv6", 504, 104, 169),
    ("conv7", 936, 208, 169),
    ("conv8", 208, 56, 169),
    ("conv9", 504, 104, 169),
    ("conv10", 936, 18, 169),
]


def ones_spec():
    return FoldingSpec(folds=tuple((1, 1) for _ in range(10)))


def full_unfold():
    """The top rung of every ladder: a budget of every layer's MW*MH."""
    return balance_folding(sum(w.mw * w.mh for _n, w in conv_works()))


class TestWorks:
    def test_conv_works_table(self):
        got = [(n, w.mw, w.mh, w.ofm_pixels) for n, w in conv_works()]
        assert got == EXPECTED_WORKS

    def test_pool_pixels(self):
        # a pool costs one cycle per output pixel, whatever the folding
        got = {n: c for n, c in all_cycles(ones_spec()) if n.startswith("pool")}
        assert got == {
            "pool1": 208 * 208,
            "pool2": 104 * 104,
            "pool3": 52 * 52,
            "pool4": 26 * 26,
            "pool5": 13 * 13,
            "pool6": 13 * 13,
        }

    def test_layer_work_validated(self):
        with pytest.raises(ValueError):
            LayerWork(mw=0, mh=1, ofm_pixels=1)


class TestCycles:
    def test_first_layer_example(self):
        work = conv_works()[0][1]
        assert layer_cycles(work, pe=8, simd=3) == 1557504

    def test_sequential_fold(self):
        work = conv_works()[0][1]
        assert layer_cycles(work, pe=1, simd=1) == 27 * 8 * 173056

    def test_full_unfold_is_one_cycle_per_pixel(self):
        for (name, work), (pe, simd) in zip(conv_works(), full_unfold().folds):
            assert (pe, simd) == (work.mh, work.mw)
            assert layer_cycles(work, pe, simd) == work.ofm_pixels

    def test_divisibility_enforced(self):
        work = conv_works()[0][1]  # MW 27, MH 8
        with pytest.raises(ValueError, match="simd"):
            layer_cycles(work, pe=8, simd=2)
        with pytest.raises(ValueError, match="pe"):
            layer_cycles(work, pe=3, simd=3)
        with pytest.raises(ValueError):
            layer_cycles(work, pe=0, simd=1)

    def test_spec_validates_layer_by_name(self):
        folds = [(1, 1)] * 10
        folds[4] = (5, 1)  # conv5 MH 56 is not divisible by 5
        with pytest.raises(ValueError, match="conv5"):
            FoldingSpec(folds=tuple(folds))

    def test_all_cycles_covers_graph(self):
        rows = all_cycles(ones_spec())
        assert len(rows) == 16
        assert rows[0] == ("conv1", 27 * 8 * 173056)
        assert rows[1] == ("pool1", 208 * 208)
        d = dict(rows)
        assert d["conv7"] == 936 * 208 * 169

    def test_total_sequential_cycles_equal_macs(self):
        # with pe = simd = 1 every conv takes exactly one cycle per MAC
        total = sum(
            c for name, c in all_cycles(ones_spec()) if name.startswith("conv")
        )
        expected = sum(mw * mh * px for _n, mw, mh, px in EXPECTED_WORKS)
        assert total == expected == 153557456


class TestThroughput:
    def test_ones_bottleneck_is_first_conv(self):
        fps, name = estimate_throughput(ones_spec())
        assert name == "conv1"
        assert fps == pytest.approx(DEFAULT_CLOCK_HZ / (27 * 8 * 173056))

    def test_full_unfold_fps(self):
        fps, name = estimate_throughput(full_unfold())
        assert name == "conv1"  # 173056 output pixels dominate even the pools
        assert fps == pytest.approx(100e6 / 173056)
        assert round(fps, 2) == 577.85

    def test_tie_breaks_to_earliest(self):
        # fully unfold everything except conv3 and conv4, which then tie at
        # 72*16*10816 == 144*32*2704 cycles; the earlier layer must win
        folds = list(full_unfold().folds)
        folds[2] = (1, 1)
        folds[3] = (1, 1)
        spec = FoldingSpec(folds=tuple(folds))
        d = dict(all_cycles(spec))
        assert d["conv3"] == d["conv4"] == max(d.values())
        _fps, name = estimate_throughput(spec)
        assert name == "conv3"

    def test_pools_never_dominate_full_unfold(self):
        rows = dict(all_cycles(full_unfold()))
        assert max(c for n, c in rows.items() if n.startswith("pool")) < rows["conv1"]

    def test_bad_clock(self):
        for clock in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                estimate_throughput(ones_spec(), clock_hz=clock)

    def test_fps_monotone_under_refinement(self):
        rng = np.random.default_rng(0)
        works = conv_works()
        for _ in range(30):
            folds = []
            for _name, w in works:
                pe = int(rng.choice([d for d in range(1, w.mh + 1) if w.mh % d == 0]))
                simd = int(
                    rng.choice([d for d in range(1, w.mw + 1) if w.mw % d == 0])
                )
                folds.append((pe, simd))
            spec = FoldingSpec(folds=tuple(folds))
            fps, _ = estimate_throughput(spec)
            # doubling any one layer's pe (when divisible) cannot hurt
            i = int(rng.integers(0, 10))
            w = works[i][1]
            pe, simd = folds[i]
            if w.mh % (pe * 2) == 0:
                folds2 = list(folds)
                folds2[i] = (pe * 2, simd)
                fps2, _ = estimate_throughput(FoldingSpec(folds=tuple(folds2)))
                assert fps2 >= fps


class TestBalance:
    def test_minimum_budget_all_ones(self):
        spec = balance_folding(10)
        assert spec.folds == tuple((1, 1) for _ in range(10))

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            balance_folding(9)

    def test_huge_budget_fully_unfolds(self):
        total = sum(w.mh * w.mw for _n, w in conv_works())
        unfolded = FoldingSpec(folds=tuple((w.mh, w.mw) for _n, w in conv_works()))
        assert balance_folding(total) == unfolded
        assert balance_folding(total * 10) == unfolded

    def test_budget_respected(self):
        for budget in (10, 64, 500, 4096):
            spec = balance_folding(budget)
            assert sum(pe * simd for pe, simd in spec.folds) <= budget

    def test_deterministic(self):
        assert balance_folding(777) == balance_folding(777)

    def test_more_budget_never_slower(self):
        fps = [
            estimate_throughput(balance_folding(b))[0]
            for b in (10, 20, 50, 100, 200, 500, 1000)
        ]
        assert fps == sorted(fps)

    def test_single_reassignment_local_optimality(self):
        budget = 400
        spec = balance_folding(budget)
        spent = sum(pe * simd for pe, simd in spec.folds)
        best, _ = estimate_throughput(spec)
        works = conv_works()
        for i, (_name, w) in enumerate(works):
            cur = spec.folds[i][0] * spec.folds[i][1]
            for pe in range(1, w.mh + 1):
                if w.mh % pe:
                    continue
                for simd in range(1, w.mw + 1):
                    if w.mw % simd:
                        continue
                    if spent - cur + pe * simd > budget:
                        continue
                    folds = list(spec.folds)
                    folds[i] = (pe, simd)
                    alt, _ = estimate_throughput(FoldingSpec(folds=tuple(folds)))
                    assert alt <= best + 1e-9


class TestSpecFile:
    def _parse(self, tmp_path, text):
        p = tmp_path / "folds.txt"
        p.write_text(text)
        return parse_folding_spec(p)

    def _full_text(self):
        return "".join(f"{i} 1 1\n" for i in range(1, 11))

    def test_happy_path(self, tmp_path):
        spec = self._parse(
            tmp_path, "# comment\n\n" + "".join(f"{i} 1 1\n" for i in range(1, 11))
        )
        assert spec == ones_spec()

    def test_any_order(self, tmp_path):
        text = "".join(f"{i} 1 1\n" for i in range(10, 0, -1))
        assert self._parse(tmp_path, text) == ones_spec()

    def test_missing_layer(self, tmp_path):
        text = "".join(f"{i} 1 1\n" for i in range(1, 10))
        with pytest.raises(ValueError, match=r"missing.*\[10\]"):
            self._parse(tmp_path, text)

    def test_duplicate_layer(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            self._parse(tmp_path, self._full_text() + "3 2 2\n")

    def test_bad_index(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            self._parse(tmp_path, "11 1 1\n")

    def test_non_integer(self, tmp_path):
        with pytest.raises(ValueError, match="non-integer"):
            self._parse(tmp_path, "1 x 1\n")

    def test_wrong_arity(self, tmp_path):
        with pytest.raises(ValueError, match="expected"):
            self._parse(tmp_path, "1 1\n")

    def test_indivisible_fold_names_layer(self, tmp_path):
        text = self._full_text().replace("1 1 1", "1 5 1")  # conv1 MH 8, pe 5
        with pytest.raises(ValueError, match="conv1"):
            self._parse(tmp_path, text)


class TestReport:
    def test_contains_all_convs_and_summary(self):
        text = format_report(ones_spec())
        for i in range(1, 11):
            assert f"conv{i} " in text or f"conv{i}" in text.split()
        assert "bottleneck: conv1" in text
        assert "MHz" in text

    def test_full_unfold_report_fps(self):
        text = format_report(full_unfold())
        assert "577.8" in text  # 100e6 / 173056 printed to one decimal
        assert "bottleneck: conv1 (173056 cycles)" in text

    def test_header_columns(self):
        header = format_report(ones_spec()).splitlines()[0]
        assert header.split() == ["layer", "MW", "MH", "PE", "SIMD", "cycles", "ms"]
