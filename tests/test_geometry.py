import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_SLIDING
from pedcascade import forest
from pedcascade.geometry import (Box, Detection, box_array, iou, iou_matrix, match_detections,
                                 nms)


def brute_iou(a: Box, b: Box) -> float:
    """Literal set-intersection on a fine pixel grid is too slow; use the
    closed form written independently from the library, with every area
    taken from the corners as the library does, so it agrees to the bit."""
    a_right, a_bottom = a.x + a.w, a.y + a.h
    b_right, b_bottom = b.x + b.w, b.y + b.h
    left = max(a.x, b.x)
    right = min(a_right, b_right)
    top = max(a.y, b.y)
    bottom = min(a_bottom, b_bottom)
    if right <= left or bottom <= top:
        return 0.0
    inter = (right - left) * (bottom - top)
    union = (a_right - a.x) * (a_bottom - a.y) + (b_right - b.x) * (b_bottom - b.y) - inter
    return inter / union


def nms_detections(dets, thr):
    """The detections geometry.nms keeps, in its order."""
    keep = nms(box_array([d.box for d in dets]), np.array([d.score for d in dets]), thr)
    return [dets[i] for i in keep]


def brute_nms(dets, thr):
    """Quadratic reference: repeatedly take the best remaining detection and
    delete everything overlapping it."""
    order = sorted(
        range(len(dets)), key=lambda i: (-dets[i].score, dets[i].box.x, dets[i].box.y, i)
    )
    remaining = list(order)
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            j for j in remaining if iou(dets[best].box, dets[j].box) <= thr
        ]
    return [dets[i] for i in kept]


def brute_match(dets, gt, ignore, thr):
    """Reference matcher: explicit greedy loop, no shared code paths."""
    order = sorted(
        range(len(dets)), key=lambda i: (-dets[i].score, dets[i].box.x, dets[i].box.y, i)
    )
    taken = set()
    pairs, unmatched, ignored = [], [], []
    for i in order:
        cands = [
            (iou(dets[i].box, g), j)
            for j, g in enumerate(gt)
            if j not in taken and iou(dets[i].box, g) >= thr
        ]
        if cands:
            _, j = max(cands, key=lambda c: (c[0], -c[1]))
            taken.add(j)
            pairs.append((i, j))
        elif any(iou(dets[i].box, ig) >= thr for ig in ignore):
            ignored.append(i)
        else:
            unmatched.append(i)
    return pairs, unmatched, ignored


boxes = st.builds(
    Box,
    x=st.floats(-50, 250),
    y=st.floats(-50, 250),
    w=st.floats(1, 120),
    h=st.floats(1, 120),
)


def random_dets(rng, n, span=200.0):
    out = []
    for _ in range(n):
        b = Box(
            rng.uniform(0, span), rng.uniform(0, span),
            rng.uniform(4, 80), rng.uniform(4, 80),
        )
        out.append(Detection(b, float(rng.normal())))
    return out


def grid_dets(rng, n, span=6):
    """Detections on small integer grids, so scores, x and y tie and many
    pairs overlap at the same IoU."""
    return [Detection(Box(*(float(v) for v in rng.integers(0, span, 2)),
                          *(float(v) for v in rng.integers(2, 2 + span, 2))),
                      float(rng.integers(0, 3)))
            for _ in range(n)]


class TestBox:
    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Box(0, 0, 5, -1)
        with pytest.raises(ValueError, match="vanishes"):  # corner area 0: IoU 0/0
            Box(1e17, 0, 1, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0, 1, 1)

    def test_derived_coordinates(self):
        b = Box(2, 3, 4, 6)
        assert b.center == (4.0, 6.0)


class TestIou:
    def test_known_value(self):
        # 1x1 squares offset by 0.5 in x: inter 0.5, union 1.5
        a = Box(0, 0, 1, 1)
        b = Box(0.5, 0, 1, 1)
        assert iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_quarter_overlap(self):
        a = Box(0, 0, 2, 2)
        b = Box(1, 1, 2, 2)
        assert iou(a, b) == pytest.approx(1.0 / 7.0)

    def test_disjoint_is_zero(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 1, 1)) == 0.0

    def test_touching_edges_is_zero(self):
        assert iou(Box(0, 0, 1, 1), Box(1, 0, 1, 1)) == 0.0

    @given(a=boxes, b=boxes)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == iou(b, a)

    @given(a=boxes)
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @given(a=st.lists(boxes, max_size=6), b=st.lists(boxes, max_size=6))
    def test_matrix_is_exactly_symmetric(self, a, b):
        m = iou_matrix(a, b)
        assert m.shape == (len(a), len(b))
        assert np.array_equal(m, iou_matrix(b, a).T)
        assert [[iou(x, y) for y in b] for x in a] == m.tolist()

    def test_matches_reference_on_random_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = Box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            b = Box(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            assert iou(a, b) == brute_iou(a, b)


class TestNms:
    def test_empty(self):
        assert nms_detections([], 0.5) == []

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms_detections([], 1.5)

    @pytest.mark.parametrize("row, score", [
        ((0, 0, 0, 10), 1.0),
        ((0, 0, 5, -1), 1.0),
        ((0, 0, -1, -1), 1.0),  # positive corner area
        ((1e17, 0, 1, 1), 1.0),  # corner area 0: IoU 0/0
        ((np.nan, 0, 1, 1), 1.0),
        ((0, 0, np.inf, 1), 1.0),
        ((0, 0, 1, 1), np.inf),
    ])
    def test_rejects_what_box_and_detection_reject(self, row, score):
        boxes = np.array([(0.0, 0.0, 1.0, 1.0), row])
        with pytest.raises(ValueError, match="non-finite value, or box extent"):
            nms(boxes, np.array([0.0, score]), 0.5)

    def test_rejects_misshapen_input(self):
        with pytest.raises(ValueError, match="need"):
            nms(np.ones((2, 4)), np.zeros(3), 0.5)

    def test_single_survives(self):
        d = [Detection(Box(0, 0, 10, 10), 1.0)]
        assert nms_detections(d, 0.5) == d

    def test_suppresses_heavy_overlap(self):
        keep = Detection(Box(0, 0, 10, 10), 2.0)
        drop = Detection(Box(1, 1, 10, 10), 1.0)
        assert nms_detections([drop, keep], 0.5) == [keep]

    def test_iou_exactly_at_threshold_survives(self):
        a = Detection(Box(0, 0, 1, 1), 2.0)
        b = Detection(Box(0.5, 0, 1, 1), 1.0)  # IoU = 1/3 exactly
        out = nms_detections([a, b], 1.0 / 3.0)
        assert len(out) == 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            dets = random_dets(rng, int(rng.integers(0, 30)))
            thr = float(rng.uniform(0.1, 0.9))
            assert nms_detections(dets, thr) == brute_nms(dets, thr)
        for trial in range(100):  # tied scores, x and y; IoU exactly at the threshold
            dets = grid_dets(rng, int(rng.integers(0, 30)))
            thr = float(rng.choice([0.0, 0.25, 1 / 3, 0.5, 1.0]))
            assert nms_detections(dets, thr) == brute_nms(dets, thr)

    def test_matches_brute_force_on_detector_windows(self, tiny_world, tiny_forest,
                                                     monkeypatch):
        """The sliding grid puts window pairs at exactly IoU 0.5 (a one-stride
        shift across three strides of extent), where a second IoU formula
        rounds otherwise than the one NMS reads.  The windows above the
        finest pyramid level keep the quadratic oracle fast."""
        calls, above = [], []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return nms(*args, **kwargs)

        def grid_spy(*args):
            out = score_window_grid(*args)
            above.append(int(np.count_nonzero(out[0] > TINY_SLIDING.score_threshold)))
            return out

        score_window_grid = forest.score_window_grid
        monkeypatch.setattr(forest, "nms", spy)
        monkeypatch.setattr(forest, "score_window_grid", grid_spy)
        forest.detect(tiny_world[0][0][1], tiny_forest, TINY_SLIDING)
        # the benchmark's contract: one positional call per detect, whose
        # first argument has one row per window above threshold
        (((boxes, scores, thr), kwargs),) = calls
        assert kwargs == {} and len(boxes) == sum(above)
        dets = [Detection(Box(*b), s) for b, s in zip(boxes.tolist(), scores.tolist())]
        finest = min(d.box.h for d in dets)
        coarse = [d for d in dets if d.box.h > finest]
        boxes = [d.box for d in coarse]
        assert np.any(iou_matrix(boxes, boxes) == 0.5)
        assert nms_detections(coarse, thr) == brute_nms(coarse, thr)

    def test_output_scores_descending(self):
        rng = np.random.default_rng(5)
        dets = random_dets(rng, 40)
        out = nms_detections(dets, 0.4)
        scores = [d.score for d in out]
        assert scores == sorted(scores, reverse=True)


class TestMatchDetections:
    def test_perfect_match(self):
        gt = [Box(0, 0, 10, 20), Box(50, 50, 10, 20)]
        dets = [Detection(g, 1.0) for g in gt]
        res = match_detections(dets, gt, [], 0.5)
        assert sorted(res.pairs) == [(0, 0), (1, 1)]
        assert res.unmatched_detections == []
        assert res.unmatched_gt == []

    def test_each_gt_matched_once(self):
        gt = [Box(0, 0, 10, 20)]
        dets = [Detection(Box(0, 0, 10, 20), 2.0), Detection(Box(1, 1, 10, 20), 1.0)]
        res = match_detections(dets, gt, [], 0.5)
        assert res.pairs == [(0, 0)]
        assert res.unmatched_detections == [1]

    def test_ignore_region_absorbs_fp(self):
        dets = [Detection(Box(100, 100, 10, 20), 1.0)]
        res = match_detections(dets, [], [Box(100, 100, 10, 20)], 0.5)
        assert res.ignored_detections == [0]
        assert res.unmatched_detections == []

    def test_matched_detection_never_ignored(self):
        gt = [Box(0, 0, 10, 20)]
        ign = [Box(0, 0, 10, 20)]
        dets = [Detection(Box(0, 0, 10, 20), 1.0)]
        res = match_detections(dets, gt, ign, 0.5)
        assert res.pairs == [(0, 0)]
        assert res.ignored_detections == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            draw = random_dets if trial < 100 else grid_dets  # then tied scores, x and y
            span = 100 if trial < 100 else 6
            dets = draw(rng, int(rng.integers(0, 15)), span=span)
            gt = [d.box for d in draw(rng, int(rng.integers(0, 8)), span=span)]
            ign = [d.box for d in draw(rng, int(rng.integers(0, 4)), span=span)]
            res = match_detections(dets, gt, ign, 0.5)
            pairs, unmatched, ignored = brute_match(dets, gt, ign, 0.5)
            assert res.pairs == pairs
            assert res.unmatched_detections == unmatched
            assert res.ignored_detections == ignored

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, data):
        n = data.draw(st.integers(0, 10))
        dets = [
            Detection(data.draw(boxes), data.draw(st.floats(-5, 5))) for _ in range(n)
        ]
        gt = [data.draw(boxes) for _ in range(data.draw(st.integers(0, 6)))]
        ign = [data.draw(boxes) for _ in range(data.draw(st.integers(0, 3)))]
        res = match_detections(dets, gt, ign, 0.5)
        seen = sorted(
            [d for d, _ in res.pairs] + res.unmatched_detections + res.ignored_detections
        )
        assert seen == list(range(n))
        matched_gt = [j for _, j in res.pairs]
        assert len(set(matched_gt)) == len(matched_gt)
