import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pedcascade.data import (
    BatchRatio,
    BatchSampler,
    BoxMeta,
    DataError,
    FrameAnnotation,
    LabelingPolicy,
    WindowGeometry,
    annotations_from_json,
    annotations_to_json,
    detections_from_json,
    detections_to_json,
    extract_window,
    jittered_negatives,
    label_proposals,
    load_annotations,
    random_boxes,
    reasonable_filter,
    window_source_box,
)
from pedcascade.geometry import Box, Detection, iou

KITTI_LINE = (
    "Pedestrian 0.00 0 -0.20 712.40 143.00 810.73 307.92 "
    "1.89 0.48 1.20 1.84 1.47 8.41 0.01"
)


class TestKittiParsing:
    def test_pedestrian_line_box(self, tmp_path):
        p = tmp_path / "000001.txt"
        p.write_text(KITTI_LINE + "\n")
        frames = load_annotations(p, "kitti_txt")
        assert len(frames) == 1
        (box,) = frames[0].gt_boxes
        assert box.x == pytest.approx(712.40)
        assert box.y == pytest.approx(143.00)
        assert box.w == pytest.approx(98.33)
        assert box.h == pytest.approx(164.92)
        assert frames[0].frame_id == "000001"

    def test_ignore_types_become_ignore_regions(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text(
            "DontCare -1 -1 -10 10 10 20 30 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "Cyclist 0.00 0 1.0 5 5 25 45 1.7 0.6 1.8 2 1 9 0.5\n"
        )
        frames = load_annotations(p, "kitti_txt")
        assert not frames[0].gt_boxes
        assert len(frames[0].ignore_boxes) == 2

    def test_unknown_type_warns_and_ignores(self, tmp_path, caplog):
        p = tmp_path / "f.txt"
        p.write_text("Tram 0.00 0 1.0 5 5 25 45 1.7 0.6 1.8 2 1 9 0.5\n")
        with caplog.at_level(logging.WARNING, logger="pedcascade.data"):
            frames = load_annotations(p, "kitti_txt")
        assert "Tram" in caplog.text
        assert not frames[0].gt_boxes
        assert len(frames[0].ignore_boxes) == 1

    def test_malformed_number_reports_location(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("Pedestrian 0.0 0 0.0 a b c d 1 1 1 1 1 1 1\n")
        with pytest.raises(DataError, match="bad.txt:1"):
            load_annotations(p, "kitti_txt")

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("Pedestrian 0.0 0\n")
        with pytest.raises(DataError, match="15 fields"):
            load_annotations(p, "kitti_txt")

    def test_degenerate_bbox_rejected(self, tmp_path):
        p = tmp_path / "deg.txt"
        p.write_text("Pedestrian 0.0 0 0.0 50 50 40 60 1 1 1 1 1 1 1\n")
        with pytest.raises(DataError, match="degenerate"):
            load_annotations(p, "kitti_txt")

    def test_directory_of_files_sorted_by_stem(self, tmp_path):
        for name in ("000002.txt", "000000.txt"):
            (tmp_path / name).write_text(KITTI_LINE + "\n")
        frames = load_annotations(tmp_path, "kitti_txt")
        assert [f.frame_id for f in frames] == ["000000", "000002"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_annotations(tmp_path, "kitti_txt")

    def test_occlusion_recorded(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("Pedestrian 0.0 2 0.0 10 10 30 90 1 1 1 1 1 1 1\n")
        frames = load_annotations(p, "kitti_txt")
        assert frames[0].gt_meta[0].occlusion == 2


class TestJsonRoundTrips:
    def test_annotations_roundtrip(self):
        frames = [
            FrameAnnotation(
                "a",
                [Box(1, 2, 3, 4)],
                [Box(0, 0, 5, 5)],
                [BoxMeta(height=60.0, occlusion=1)],
            ),
            FrameAnnotation("b"),
        ]
        back = annotations_from_json(json.loads(json.dumps(annotations_to_json(frames))))
        assert back == frames

    def test_annotations_version_check(self):
        with pytest.raises(DataError):
            annotations_from_json({"version": 99, "frames": []})

    def test_detections_roundtrip(self):
        dets = {
            "f0": [Detection(Box(1.5, 2.5, 10.0, 20.0), 0.75)],
            "f1": [],
        }
        back = detections_from_json(json.loads(json.dumps(detections_to_json(dets))))
        assert back == dets

    def test_detections_version_check(self):
        with pytest.raises(DataError):
            detections_from_json({"version": 0, "frames": []})


class TestFiltering:
    def test_reasonable_filter_demotes(self):
        frames = [
            FrameAnnotation(
                "f",
                [Box(0, 0, 20, 60), Box(0, 0, 20, 40), Box(0, 0, 20, 80)],
                [],
                [BoxMeta(60.0, 0), BoxMeta(40.0, 0), BoxMeta(80.0, 2)],
            )
        ]
        out = reasonable_filter(frames)
        assert len(out[0].gt_boxes) == 1
        assert out[0].gt_boxes[0].h == 60
        assert len(out[0].ignore_boxes) == 2

    def test_boundary_height_kept(self):
        frames = [FrameAnnotation("f", [Box(0, 0, 20, 50)], [], [BoxMeta(50.0, 1)])]
        assert len(reasonable_filter(frames)[0].gt_boxes) == 1


class TestLabeling:
    def test_strict_inequality_at_threshold(self):
        gt = [Box(0, 0, 10, 10)]
        # a proposal with IoU exactly 0.5: half-overlapping strip
        half = Box(0, 0, 10, 5)  # inter 50, union 100 -> 0.5
        assert iou(half, gt[0]) == pytest.approx(0.5)
        policy = LabelingPolicy(neg_iou=0.5)
        assert label_proposals([half], gt, policy) == ["ignore"]

    def test_below_threshold_negative(self):
        gt = [Box(0, 0, 10, 10)]
        far = Box(100, 100, 10, 10)
        assert label_proposals([far], gt, LabelingPolicy()) == ["neg"]

    def test_promotion_requires_pos_iou(self):
        with pytest.raises(ValueError):
            LabelingPolicy(positive_source="gt+proposals")

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            LabelingPolicy(neg_iou=1.5)
        with pytest.raises(ValueError):
            LabelingPolicy(positive_source="gt+proposals", pos_iou=1.5)

    def test_proposal_promotion(self):
        gt = [Box(0, 0, 10, 10)]
        near = Box(0.5, 0.5, 10, 10)
        policy = LabelingPolicy(positive_source="gt+proposals", pos_iou=0.7)
        assert iou(near, gt[0]) > 0.7
        assert label_proposals([near], gt, policy) == ["pos"]
        # under the default policy the same proposal is neither pos nor neg
        assert label_proposals([near], gt, LabelingPolicy()) == ["ignore"]

    def test_no_gt_everything_negative(self):
        assert label_proposals([Box(0, 0, 5, 5)], [], LabelingPolicy()) == ["neg"]


class TestNegativeGeneration:
    def test_random_boxes_in_image_with_aspect(self):
        rng = np.random.default_rng(0)
        geom = WindowGeometry()
        boxes = random_boxes(200, (240, 320), rng, geom)
        aspect = geom.pedestrian_extent[1] / geom.pedestrian_extent[0]
        for b in boxes:
            assert b.h >= 50
            assert b.w == pytest.approx(b.h * aspect)
            assert b.x >= 0 and b.y >= 0
            assert b.x + b.w <= 320 + 1e-6
            assert b.y + b.h <= 240 + 1e-6

    def test_jittered_negatives_below_max_iou(self):
        rng = np.random.default_rng(1)
        gt = [Box(60, 40, 30, 60), Box(150, 80, 25, 50)]
        negs = jittered_negatives(gt, 5, (240, 320), rng)
        assert negs
        for b in negs:
            assert max(iou(b, g) for g in gt) < 0.5
            assert b.x >= 0 and b.y >= 0
            assert b.x + b.w <= 320 and b.y + b.h <= 240

    def test_jittered_negatives_empty_gt(self):
        rng = np.random.default_rng(2)
        assert jittered_negatives([], 5, (100, 100), rng) == []


class TestWindowGeometry:
    def test_source_box_extent_ratio(self):
        geom = WindowGeometry()
        target = Box(10, 20, 48, 96)
        src = window_source_box(target, geom)
        assert src.h == pytest.approx(128.0)
        assert src.w == pytest.approx(64.0)
        assert src.center[0] == pytest.approx(target.center[0])
        assert src.center[1] == pytest.approx(target.center[1])

    def test_extract_window_exact_for_aligned_crop(self):
        rng = np.random.default_rng(3)
        img = rng.random((300, 300))
        geom = WindowGeometry()
        # target whose context window is an integer-aligned 128x64 region
        target = Box(100 + 8, 100 + 16, 48, 96)
        win = extract_window(img, target, geom)
        assert win.shape == (128, 64)
        src = window_source_box(target, geom)
        x0, y0 = int(round(src.x)), int(round(src.y))
        assert np.array_equal(win, img[y0 : y0 + 128, x0 : x0 + 64])

    @given(
        x=st.floats(-20, 320),
        y=st.floats(-20, 240),
        h=st.floats(10, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_window_shape_always_matches_model(self, x, y, h):
        img = np.zeros((240, 320))
        target = Box(x, y, h / 2, h)
        win = extract_window(img, target)
        assert win.shape == (128, 64)


class TestBatchSampler:
    @staticmethod
    def pool(n_pos, n_neg):
        wins = [np.full((2, 2), i, dtype=float) for i in range(n_pos + n_neg)]
        labels = [1] * n_pos + [0] * n_neg
        return wins, labels

    def test_exact_ratio_every_batch(self):
        wins, labels = self.pool(30, 200)
        s = BatchSampler(wins, labels, batch=60, ratio=BatchRatio(1, 5), seed=0)
        for _ in range(50):
            _, y = s.next_batch()
            assert int(np.sum(y == 1)) == 10
            assert int(np.sum(y == 0)) == 50

    def test_ratio_requires_divisible_batch(self):
        wins, labels = self.pool(5, 5)
        with pytest.raises(ValueError, match="divisible"):
            BatchSampler(wins, labels, batch=7, ratio=BatchRatio(1, 5))

    def test_ratio_requires_both_classes(self):
        wins, labels = self.pool(5, 0)
        with pytest.raises(ValueError):
            BatchSampler(wins, labels, batch=6, ratio=BatchRatio(1, 5))

    def test_small_class_drawn_with_replacement(self):
        wins, labels = self.pool(2, 100)
        s = BatchSampler(wins, labels, batch=60, ratio=BatchRatio(1, 5), seed=1)
        _, y = s.next_batch()
        assert int(np.sum(y == 1)) == 10

    def test_unratioed_batches_are_uniform(self):
        wins, labels = self.pool(50, 50)
        s = BatchSampler(wins, labels, batch=40, ratio=None, seed=2)
        counts = [s.next_batch()[1].sum() for _ in range(200)]
        # binomial(40, 0.5) mean 20; a crude 5-sigma band
        assert abs(np.mean(counts) - 20) < 5 * np.sqrt(10) / np.sqrt(200) * 5

    def test_deterministic_given_seed(self):
        wins, labels = self.pool(10, 50)
        a = BatchSampler(wins, labels, batch=12, ratio=BatchRatio(1, 5), seed=7)
        b = BatchSampler(wins, labels, batch=12, ratio=BatchRatio(1, 5), seed=7)
        xa, ya = a.next_batch()
        xb, yb = b.next_batch()
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            BatchSampler([], [], batch=4, ratio=None)

    def test_batches_per_epoch(self):
        wins, labels = self.pool(10, 20)
        s = BatchSampler(wins, labels, batch=12, ratio=BatchRatio(1, 5))
        assert s.batches_per_epoch == 3
