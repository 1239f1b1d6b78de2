import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpyolo import postprocess
from lpyolo.model import PIXEL_SCALE, ModelConfig
from lpyolo.postprocess import (
    Detection,
    GroundTruthSet,
    decode_grid,
    dequantize_output,
    evaluate_ap,
    format_detection_line,
    _iou_row,
    nms,
    parse_widerface_gt,
    to_pixel_box,
)
from lpyolo.qcore import QuantParams, QuantTensor

from oracles import ref_decode_grid, ref_evaluate_ap, ref_nms

CFG = ModelConfig(weight_bits=4, act_bits=4)


def det(cx=0.5, cy=0.5, w=0.2, h=0.2, obj=0.9, cls=0.9):
    return Detection(cx=cx, cy=cy, w=w, h=h, objectness=obj, class_score=cls)


def grid_tensor(values):
    p = QuantParams(bits=8, signed=False, scale=PIXEL_SCALE)
    return QuantTensor.from_grid(np.asarray(values, dtype=np.int32), p)


def random_dets(rng, n):
    out = []
    for _ in range(n):
        out.append(
            Detection(
                cx=float(rng.uniform(0.2, 0.8)),
                cy=float(rng.uniform(0.2, 0.8)),
                w=float(rng.uniform(0.05, 0.4)),
                h=float(rng.uniform(0.05, 0.4)),
                objectness=float(rng.uniform(0.1, 1.0)),
                class_score=float(rng.uniform(0.1, 1.0)),
            )
        )
    return out


class TestDetection:
    def test_score(self):
        d = det(obj=0.5, cls=0.4)
        assert d.score == pytest.approx(0.2)

    def test_to_pixel_box(self):
        d = det(cx=0.5, cy=0.5, w=0.25, h=0.5)
        assert to_pixel_box(d, 416, 416) == (156.0, 104.0, 104.0, 208.0)

    def test_format_line(self):
        d = det(cx=0.5, cy=0.5, w=0.25, h=0.5, obj=1.0, cls=0.5)
        line = format_detection_line("img_1", d, 416, 416)
        assert line == "img_1 0.500000 156.00 104.00 104.00 208.00"


class TestDequantizeOutput:
    def test_values(self):
        g = np.zeros((13, 13, 18), dtype=np.int32)
        g[0, 0, 0] = 255
        g[0, 0, 1] = 128
        real = dequantize_output(grid_tensor(g))
        assert real[0, 0, 0] == 1.0
        assert real[0, 0, 1] == pytest.approx(128 / 255)
        assert real[5, 5, 5] == 0.0

    def test_shape_checked(self):
        g = np.zeros((13, 13, 17), dtype=np.int32)
        p = QuantParams(bits=8, signed=False, scale=PIXEL_SCALE)
        with pytest.raises(ValueError):
            dequantize_output(QuantTensor.from_grid(g, p))

    def test_params_checked(self):
        g = np.zeros((13, 13, 18), dtype=np.int32)
        p = QuantParams(bits=8, signed=False, scale=0.5)
        with pytest.raises(ValueError):
            dequantize_output(QuantTensor.from_grid(g, p))


class TestDecode:
    def _grid_one_cell(self, row, col, anchor, fields):
        g = np.zeros((13, 13, 18))
        g[row, col, anchor * 6 : anchor * 6 + 6] = fields
        return g

    def test_centered_cell(self):
        g = self._grid_one_cell(6, 6, 0, [0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        dets = decode_grid(g, CFG, conf_threshold=0.5)
        assert len(dets) == 1
        d = dets[0]
        assert d.cx == pytest.approx(0.5)
        assert d.cy == pytest.approx(0.5)

    def test_anchor_identity_at_half(self):
        # p_tw = 0.5 makes (2*p)^2 = 1, so the box is the anchor itself
        g = self._grid_one_cell(6, 6, 1, [0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        d = decode_grid(g, CFG, conf_threshold=0.5)[0]
        aw, ah = CFG.anchors[1]
        assert d.w == pytest.approx(aw / 416)
        assert d.h == pytest.approx(ah / 416)

    def test_anchor_layout_is_anchor_major(self):
        g = self._grid_one_cell(2, 9, 2, [0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        d = decode_grid(g, CFG, conf_threshold=0.5)[0]
        aw, ah = CFG.anchors[2]
        assert d.w == pytest.approx(aw / 416)
        assert d.h == pytest.approx(ah / 416)
        # cells index (row, col): cx comes from the column
        assert d.cx == pytest.approx((0.5 + 9) / 13)
        assert d.cy == pytest.approx((0.5 + 2) / 13)

    def test_direct_mode(self):
        g = self._grid_one_cell(6, 6, 0, [0.5, 0.5, 0.3, 0.7, 1.0, 1.0])
        d = decode_grid(g, CFG, conf_threshold=0.5, decode_mode="direct")[0]
        assert d.w == pytest.approx(0.3)
        assert d.h == pytest.approx(0.7)

    def test_size_clamped(self):
        # largest anchor at p_tw = 1: 344 * 4 / 416 > 1 must clamp
        g = self._grid_one_cell(6, 6, 2, [0.5, 0.5, 1.0, 1.0, 1.0, 1.0])
        d = decode_grid(g, CFG, conf_threshold=0.5)[0]
        assert d.w == 1.0
        assert d.h == 1.0

    def test_threshold_filters(self):
        g = self._grid_one_cell(6, 6, 0, [0.5, 0.5, 0.5, 0.5, 0.6, 0.6])
        assert decode_grid(g, CFG, conf_threshold=0.37) == []  # 0.36 < 0.37
        assert len(decode_grid(g, CFG, conf_threshold=0.36)) == 1  # boundary kept

    def test_above_one_threshold_empty(self):
        g = np.full((13, 13, 18), 1.0)
        assert decode_grid(g, CFG, conf_threshold=1.0 + 1e-9) == []

    def test_count_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(0, 1, size=(13, 13, 18))
        counts = [
            len(decode_grid(g, CFG, conf_threshold=t))
            for t in (0.0, 0.1, 0.3, 0.5, 0.9)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 13 * 13 * 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            decode_grid(np.zeros((13, 13, 18)), CFG, 0.5, decode_mode="nope")

    def test_rejects_grid_outside_unit_range(self):
        # one kept cell (6, 6, 0); cell (2, 3, 1) is below the threshold
        g = self._grid_one_cell(6, 6, 0, [0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
        assert len(decode_grid(g, CFG, conf_threshold=0.5)) == 1
        for bad in (float("nan"), -0.1, 1.5):
            for row, col, ch in ((6, 6, 0), (6, 6, 4), (2, 3, 6), (2, 3, 10)):
                bent = g.copy()
                bent[row, col, ch] = bad
                with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                    decode_grid(bent, CFG, conf_threshold=0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        lattice=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["direct", "anchor_pow2"]),
        pick=st.integers(0, 13 * 13 * 3 - 1),
        fixed=st.sampled_from([None, 0.0, 0.25, 1.0]),
        anchors=st.lists(
            st.tuples(st.floats(1.0, 416.0), st.floats(1.0, 416.0)), min_size=3, max_size=3
        ),
    )
    def test_matches_loop_reference(self, lattice, seed, mode, pick, fixed, anchors):
        rng = np.random.default_rng(seed)
        if lattice:
            g = rng.integers(0, 256, size=(13, 13, 18)) * PIXEL_SCALE
        else:
            g = rng.uniform(0.0, 1.0, size=(13, 13, 18))
        cfg = ModelConfig(weight_bits=4, act_bits=4, anchors=tuple(anchors))
        # a threshold equal to one anchor's obj * cls product: kept (not <)
        cell = g.reshape(-1, 6)[pick]
        thr = cell[4] * cell[5] if fixed is None else fixed
        got = decode_grid(g, cfg, thr, mode)
        want = ref_decode_grid(g, cfg, thr, mode)

        def bits(dets):
            return [
                struct.pack("<6d", d.cx, d.cy, d.w, d.h, d.objectness, d.class_score)
                for d in dets
            ]

        assert bits(got) == bits(want)
        if fixed is None:
            assert len(got) >= 1


def pair_iou(a, b) -> float:
    """_iou_row of one pair of (x, y, w, h) boxes."""
    return float(_iou_row(a, *np.array([b], dtype=np.float64).T)[0])


class TestIou:
    def test_identity(self):
        assert pair_iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert pair_iou((0, 0, 1, 1), (5, 5, 1, 1)) == 0.0

    def test_known_third(self):
        # overlap 1x2 = 2, union 4 + 4 - 2 = 6
        assert pair_iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3)

    def test_touching_edges(self):
        assert pair_iou((0, 0, 1, 1), (1, 0, 1, 1)) == 0.0

    box = st.tuples(
        st.floats(0, 10, allow_nan=False),
        st.floats(0, 10, allow_nan=False),
        st.floats(0.01, 10, allow_nan=False),
        st.floats(0.01, 10, allow_nan=False),
    )

    @given(box, box)
    def test_symmetric_and_bounded(self, a, b):
        v = pair_iou(a, b)
        assert v == pair_iou(b, a)
        assert 0.0 <= v <= 1.0


# Multiples of 1/64 make both IoU formulas (nms's and the oracle's) exact, so
# they agree to the bit and ties, touching edges and exact-threshold IoUs
# actually occur.
_dyadic = st.integers(0, 64).map(lambda k: k / 64)


def _lattice_det(size):
    return st.builds(
        Detection,
        cx=_dyadic, cy=_dyadic, w=size, h=size,
        objectness=st.integers(0, 4).map(lambda k: k / 4),
        class_score=st.integers(1, 4).map(lambda k: k / 4),
    )


_dyadic_det = _lattice_det(_dyadic)
# sizes of at most a quarter frame as often as any size, so that long lists
# keep many boxes
_mixed_size_det = _lattice_det(st.one_of(st.integers(0, 16), st.integers(0, 64)).map(lambda k: k / 64))


@st.composite
def _dets_with_duplicates(draw, boxes=st.lists(_dyadic_det, max_size=16)):
    dets = draw(boxes)
    # equal copies, not the same object: ref_nms drops every reference to
    # the box it keeps, which would drop a re-listed object even at thr 1.0
    copies = draw(st.lists(st.sampled_from(dets), max_size=4)) if dets else []
    return dets + [Detection(*d) for d in copies]


class TestNms:
    @settings(max_examples=300, deadline=None)
    @given(
        _dets_with_duplicates(),
        st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 16).map(lambda k: k / 16)),
    )
    def test_matches_reference_on_lattice_boxes(self, dets, thr):
        assert nms(dets, thr) == ref_nms(dets, thr)

    @pytest.mark.parametrize("block", [1, 2, 3, postprocess.NMS_BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(
        # a length drawn first, so long lists are as common as short ones
        st.integers(0, 100).flatmap(lambda n: _dets_with_duplicates(
            st.lists(_mixed_size_det, min_size=n, max_size=n))),
        st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 16).map(lambda k: k / 16)),
    )
    def test_blocks_match_reference_on_long_lattice_lists(self, block, dets, thr):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(postprocess, "NMS_BLOCK", block)
            assert nms(dets, thr) == ref_nms(dets, thr)

    @staticmethod
    def _count_iou_rows(monkeypatch):
        """Set blocks of 32 and patch nms's `_iou_row` to record, per call,
        its number of rows and of live boxes."""
        monkeypatch.setattr(postprocess, "NMS_BLOCK", 32)
        calls = []
        iou_row = postprocess._iou_row

        def counting(a, *b):
            calls.append((len(a[0]), len(b[0])))
            return iou_row(a, *b)

        monkeypatch.setattr(postprocess, "_iou_row", counting)
        return calls

    def test_one_iou_row_call_per_block(self, monkeypatch):
        # 100 disjoint boxes, all kept: blocks of 32, 32, 32 and 4 ranks,
        # each against the boxes not yet reached
        calls = self._count_iou_rows(monkeypatch)
        dets = [det(cx=0.05 + 0.1 * (k % 10), cy=0.05 + 0.1 * (k // 10), w=0.05, h=0.05,
                    obj=1.0 - k / 128) for k in range(100)]
        assert nms(dets, 0.45) == dets
        assert calls == [(32, 100), (32, 68), (32, 36), (4, 4)]

    def test_suppressed_boxes_reach_no_later_block(self, monkeypatch):
        # 32 disjoint boxes, then a weaker duplicate of each: the first
        # block keeps the 32 and suppresses every duplicate, so it is the
        # only block
        calls = self._count_iou_rows(monkeypatch)
        best = [det(cx=0.1 + 0.1 * (k % 8), cy=0.1 + 0.2 * (k // 8), w=0.05, h=0.05,
                    obj=1.0 - k / 64) for k in range(32)]
        weaker = [d._replace(objectness=0.25) for d in best]
        assert nms(weaker + best, 0.45) == best
        assert calls == [(32, 64)]

    @pytest.mark.parametrize("field", range(6))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_is_refused(self, field, bad):
        fields = list(det())
        fields[field] = bad
        with pytest.raises(ValueError, match="non-finite"):
            nms([det(cx=0.2), Detection(*fields)], 0.45)

    def test_zero_area_boxes_never_suppress(self):
        # union 0 between two degenerate boxes reads as IoU 0
        a = det(w=0.0, h=0.0, obj=0.9)
        b = det(w=0.0, h=0.0, obj=0.8)
        c = det(w=0.0, obj=0.7)
        assert nms([a, b, c], 0.0) == [a, b, c]

    def test_empty(self):
        assert nms([], 0.45) == []

    def test_single(self):
        d = det()
        assert nms([d], 0.45) == [d]

    def test_duplicate_suppressed(self):
        a = det(obj=0.9)
        b = det(obj=0.8)
        kept = nms([a, b], 0.45)
        assert kept == [a]

    def test_disjoint_kept(self):
        a = det(cx=0.2, obj=0.9)
        b = det(cx=0.8, obj=0.8)
        assert nms([a, b], 0.45) == [a, b]

    def test_strict_threshold(self):
        # equal boxes have IoU exactly 1.0; threshold 1.0 keeps both
        a = det(obj=0.9)
        b = det(obj=0.8)
        assert len(nms([a, b], 1.0)) == 2

    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dets = random_dets(rng, int(rng.integers(0, 11)))
            thr = float(rng.uniform(0.1, 0.9))
            assert nms(dets, thr) == ref_nms(dets, thr)

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(2)
        dets = random_dets(rng, 10)
        shuffled = list(dets)
        rng.shuffle(shuffled)
        assert nms(dets, 0.45) == nms(shuffled, 0.45)

    def test_kept_do_not_overlap_earlier(self):
        rng = np.random.default_rng(3)
        dets = random_dets(rng, 12)
        kept = nms(dets, 0.3)
        corners = [(d.cx - d.w / 2, d.cy - d.h / 2, d.w, d.h) for d in kept]
        for i in range(1, len(kept)):
            assert (_iou_row(corners[i], *np.array(corners[:i]).T) <= 0.3).all()

    def test_output_sorted_by_score(self):
        rng = np.random.default_rng(4)
        kept = nms(random_dets(rng, 10), 0.45)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)


_pixel = st.integers(0, 6).map(float)
_size = st.integers(1, 4).map(float)


@st.composite
def _ap_case(draw):
    """Integer-pixel ground truth over one to three images (some empty),
    and predictions that copy ground-truth boxes, repeat each other or have
    zero width or height, with few distinct scores so ties occur."""
    images = draw(st.lists(st.lists(st.tuples(_pixel, _pixel, _size, _size), max_size=4),
                           min_size=1, max_size=3))
    boxes = {f"img{k}": v for k, v in enumerate(images)}
    preds = []
    for _ in range(draw(st.integers(0, 12))):
        img = draw(st.sampled_from(sorted(boxes)))
        score = draw(st.integers(0, 4).map(lambda k: k / 4))
        if boxes[img] and draw(st.booleans()):
            box = draw(st.sampled_from(boxes[img]))
        else:
            box = draw(st.tuples(_pixel, _pixel, st.integers(0, 4).map(float),
                                 st.integers(0, 4).map(float)))
        preds.append((img, score) + tuple(box))
    if preds:
        preds += draw(st.lists(st.sampled_from(preds), max_size=3))
    return preds, boxes


class TestAp:
    def _gt(self, mapping):
        return GroundTruthSet(boxes=mapping)

    @settings(max_examples=300, deadline=None)
    @given(
        _ap_case(),
        st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 8).map(lambda k: k / 8)),
    )
    def test_matches_reference_on_integer_boxes(self, case, thr):
        # integer corners make both overlap formulas exact, so the two
        # matchings, and the AP built on them, agree to the bit
        preds, boxes = case
        assert evaluate_ap(preds, self._gt(boxes), thr) == ref_evaluate_ap(preds, boxes, thr)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_box_is_degenerate(self, field, bad):
        box = [0.0, 0.0, 2.0, 2.0]
        box[field] = bad
        with pytest.raises(ValueError, match="degenerate"):
            self._gt({"b": [tuple(box)]})

    def test_perfect(self):
        gt = self._gt({"a": [(10, 10, 20, 20)], "b": [(0, 0, 5, 5)]})
        preds = [("a", 0.9, 10, 10, 20, 20), ("b", 0.8, 0, 0, 5, 5)]
        assert evaluate_ap(preds, gt) == 1.0

    def test_half(self):
        # high-scoring miss first, then a hit: precision at recall 1 is 1/2
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        preds = [("a", 0.9, 100, 100, 5, 5), ("a", 0.8, 10, 10, 20, 20)]
        assert evaluate_ap(preds, gt) == 0.5

    def test_hit_before_miss_is_perfect(self):
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        preds = [("a", 0.9, 10, 10, 20, 20), ("a", 0.8, 100, 100, 5, 5)]
        assert evaluate_ap(preds, gt) == 1.0

    def test_no_predictions(self):
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        assert evaluate_ap([], gt) == 0.0

    def test_no_ground_truth(self):
        gt = self._gt({"a": []})
        assert evaluate_ap([], gt) == 0.0

    def test_unknown_image(self):
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        with pytest.raises(ValueError, match="unknown image"):
            evaluate_ap([("zzz", 0.9, 0, 0, 5, 5)], gt)

    def test_each_gt_matched_once(self):
        # second duplicate prediction must count as a false positive
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        preds = [("a", 0.9, 10, 10, 20, 20), ("a", 0.8, 10, 10, 20, 20)]
        assert evaluate_ap(preds, gt) == 1.0  # recall reached at the first
        preds_rev = [("a", 0.9, 100, 100, 5, 5), ("a", 0.8, 10, 10, 20, 20),
                     ("a", 0.7, 10, 10, 20, 20)]
        assert evaluate_ap(preds_rev, gt) == 0.5

    def test_score_rescale_invariant(self):
        gt = self._gt({"a": [(10, 10, 20, 20), (50, 50, 10, 10)]})
        preds = [("a", 0.9, 10, 10, 20, 20), ("a", 0.4, 52, 52, 10, 10)]
        scaled = [(i, s * 0.5, x, y, w, h) for i, s, x, y, w, h in preds]
        assert evaluate_ap(preds, gt) == evaluate_ap(scaled, gt)

    def test_translation_invariant(self):
        gt1 = self._gt({"a": [(10, 10, 20, 20)]})
        gt2 = self._gt({"a": [(110, 210, 20, 20)]})
        p1 = [("a", 0.9, 12, 12, 20, 20)]
        p2 = [("a", 0.9, 112, 212, 20, 20)]
        assert evaluate_ap(p1, gt1) == evaluate_ap(p2, gt2)

    def test_first_of_equal_best_overlaps_is_matched(self):
        # the first prediction overlaps both boxes by 1/3 and takes the first,
        # so the second, a copy of that first box, finds nothing left
        gt = self._gt({"a": [(0, 0, 2, 2), (2, 0, 2, 2)]})
        preds = [("a", 0.9, 1, 0, 2, 2), ("a", 0.8, 0, 0, 2, 2)]
        assert evaluate_ap(preds, gt, iou_threshold=0.3) == 0.5

    @pytest.mark.parametrize("field", range(1, 6), ids=["score", "x", "y", "w", "h"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_prediction_rejected(self, field, bad):
        # a NaN score once gave AP 1.0 in one input order and 0.5 in the other
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        good = ("a", 0.9, 10, 10, 20, 20)
        bad_pred = good[:field] + (bad,) + good[field + 1 :]
        for preds in ([good, bad_pred], [bad_pred, good]):
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_ap(preds, gt)

    @pytest.mark.parametrize("thr", [float("nan"), -0.1, 1.5, float("inf")])
    def test_iou_threshold_outside_unit_interval_rejected(self, thr):
        gt = self._gt({"a": [(10, 10, 20, 20)]})
        with pytest.raises(ValueError, match="iou_threshold"):
            evaluate_ap([("a", 0.9, 10, 10, 20, 20)], gt, iou_threshold=thr)

    def test_partial_iou_threshold(self):
        gt = self._gt({"a": [(0, 0, 10, 10)]})
        preds = [("a", 0.9, 0, 0, 10, 21)]  # IoU = 100/210 < 0.5
        assert evaluate_ap(preds, gt, iou_threshold=0.5) == 0.0
        assert evaluate_ap(preds, gt, iou_threshold=0.4) == 1.0


class TestWiderfaceParse:
    def _parse(self, tmp_path, text):
        p = tmp_path / "gt.txt"
        p.write_text(text)
        return parse_widerface_gt(p)

    def test_basic(self, tmp_path):
        gt = self._parse(
            tmp_path,
            "img/one.jpg\n2\n10 20 30 40\n50 60 70 80 0 0 0 0 0 0\n"
            "img/two.jpg\n1\n1 2 3 4\n",
        )
        assert gt.boxes["img/one.jpg"] == [
            (10.0, 20.0, 30.0, 40.0),
            (50.0, 60.0, 70.0, 80.0),
        ]
        assert gt.boxes["img/two.jpg"] == [(1.0, 2.0, 3.0, 4.0)]
        assert gt.total() == 3

    def test_zero_count(self, tmp_path):
        gt = self._parse(tmp_path, "empty.jpg\n0\nnext.jpg\n1\n1 1 2 2\n")
        assert gt.boxes["empty.jpg"] == []
        assert gt.boxes["next.jpg"] == [(1.0, 1.0, 2.0, 2.0)]

    def test_zero_count_with_placeholder_row(self, tmp_path):
        gt = self._parse(
            tmp_path, "empty.jpg\n0\n0 0 0 0 0 0 0 0 0 0\nnext.jpg\n1\n1 1 2 2\n"
        )
        assert gt.boxes["empty.jpg"] == []
        assert gt.boxes["next.jpg"] == [(1.0, 1.0, 2.0, 2.0)]

    def test_blank_lines_skipped(self, tmp_path):
        gt = self._parse(tmp_path, "\na.jpg\n1\n1 1 2 2\n\n")
        assert gt.total() == 1

    def test_truncated_list(self, tmp_path):
        with pytest.raises(ValueError, match="line 4"):
            self._parse(tmp_path, "a.jpg\n3\n1 1 2 2\n")

    def test_missing_count(self, tmp_path):
        with pytest.raises(ValueError, match="before face count"):
            self._parse(tmp_path, "a.jpg")

    def test_invalid_count(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            self._parse(tmp_path, "a.jpg\nxyz\n")

    def test_negative_count(self, tmp_path):
        with pytest.raises(ValueError, match="negative"):
            self._parse(tmp_path, "a.jpg\n-1\n")

    def test_short_box_row(self, tmp_path):
        with pytest.raises(ValueError, match="line 3"):
            self._parse(tmp_path, "a.jpg\n1\n1 2 3\n")

    def test_non_integer_box(self, tmp_path):
        with pytest.raises(ValueError, match="non-integer"):
            self._parse(tmp_path, "a.jpg\n1\n1 2 x 4\n")

    def test_box_beyond_float_range(self, tmp_path):
        with pytest.raises(ValueError, match="line 3: box field beyond float range"):
            self._parse(tmp_path, f"a.jpg\n1\n1 2 {'9' * 400} 4\n")

    def test_degenerate_box(self, tmp_path):
        with pytest.raises(ValueError, match="degenerate"):
            self._parse(tmp_path, "a.jpg\n1\n1 2 0 4\n")

    def test_duplicate_image(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            self._parse(tmp_path, "a.jpg\n1\n1 1 2 2\na.jpg\n1\n3 3 4 4\n")
