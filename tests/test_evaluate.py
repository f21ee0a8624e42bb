import numpy as np
import pytest

from conftest import iou
from pedcascade.data import FrameAnnotation
from pedcascade.evaluate import (
    FPPI_POINTS,
    MATCH_IOU,
    MR_FLOOR,
    EvalCurve,
    average_precision,
    fp_overlap_histogram,
    height_histogram,
    lamr,
    recall_vs_iou,
    touching_fp_analysis,
)
from pedcascade.geometry import Box, Detection
from pedcascade.synth import SynthSpec, synth_dataset


# ---------------------------------------------------------------------------
# independent reference implementations

def ref_match(dets, gt, ignore, thr):
    """Greedy matcher written independently: returns (tp_idx, fp_idx)."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gt)
    tp, fp = [], []
    for i in order:
        best_j, best_v = -1, thr
        for j, g in enumerate(gt):
            if taken[j]:
                continue
            v = iou(dets[i].box, g)
            if v >= best_v:
                best_v, best_j = v, j
        if best_j >= 0:
            taken[best_j] = True
            tp.append(i)
            continue
        if any(iou(dets[i].box, b) >= thr for b in ignore):
            continue  # matched to an ignore region: neither TP nor FP
        fp.append(i)
    return tp, fp


def ref_lamr(dets_by_frame, annotations):
    """Per-threshold re-matching sweep; no single-pass shortcut."""
    scores = sorted(
        {d.score for dets in dets_by_frame.values() for d in dets}, reverse=True
    )
    if not scores:
        scores = [0.0]
    n_gt = sum(len(a.gt_boxes) for a in annotations)
    n_frames = len(annotations)
    points = []  # (fppi, mr) per threshold, descending threshold
    for t in scores:
        tp_total = fp_total = 0
        for ann in annotations:
            kept = [d for d in dets_by_frame.get(ann.frame_id, []) if d.score >= t]
            tp, fp = ref_match(kept, ann.gt_boxes, ann.ignore_boxes, MATCH_IOU)
            tp_total += len(tp)
            fp_total += len(fp)
        points.append((fp_total / n_frames, (n_gt - tp_total) / n_gt))

    sampled = []
    for ref in FPPI_POINTS:
        feasible = [(f, m) for f, m in points if f <= ref]
        if not feasible:
            sampled.append(points[-1][1])
            continue
        fmax = max(f for f, _ in feasible)
        # among thresholds tied at fmax, the lowest threshold (latest point)
        sampled.append([m for f, m in feasible if f == fmax][-1])
    return float(np.exp(np.mean(np.log(np.maximum(sampled, MR_FLOOR)))))


def ref_ap(dets_by_frame, annotations, match_iou=0.5, n_points=11):
    rows = []
    n_gt = sum(len(a.gt_boxes) for a in annotations)
    for ann in annotations:
        dets = list(dets_by_frame.get(ann.frame_id, []))
        tp, fp = ref_match(dets, ann.gt_boxes, ann.ignore_boxes, match_iou)
        rows += [(dets[i].score, 1) for i in tp] + [(dets[i].score, 0) for i in fp]
    rows.sort(key=lambda r: -r[0])
    vals = []
    for r in np.linspace(0, 1, n_points):
        best = 0.0
        tp_c = fp_c = 0
        for _, flag in rows:
            tp_c += flag
            fp_c += 1 - flag
            if tp_c / n_gt >= r and tp_c + fp_c > 0:
                best = max(best, tp_c / (tp_c + fp_c))
        vals.append(best)
    return float(np.mean(vals))


def random_instance(rng, n_frames=4, with_ignore=True):
    annotations, dets = [], {}
    for f in range(n_frames):
        fid = f"fr{f}"
        gt = [
            Box(float(rng.uniform(0, 200)), float(rng.uniform(0, 150)),
                float(rng.uniform(15, 40)), float(rng.uniform(30, 80)))
            for _ in range(rng.integers(0, 4))
        ]
        ignore = []
        if with_ignore and rng.random() < 0.5:
            ignore = [Box(float(rng.uniform(0, 200)), float(rng.uniform(0, 150)),
                          float(rng.uniform(10, 50)), float(rng.uniform(10, 50)))]
        annotations.append(FrameAnnotation(fid, gt, ignore))
        frame_dets = []
        for g in gt:
            if rng.random() < 0.8:  # jittered near-hit
                frame_dets.append(
                    Detection(Box(g.x + rng.uniform(-5, 5), g.y + rng.uniform(-5, 5),
                                  g.w * rng.uniform(0.8, 1.2), g.h * rng.uniform(0.8, 1.2)),
                              float(rng.random()))
                )
        for _ in range(rng.integers(0, 5)):  # background noise
            frame_dets.append(
                Detection(Box(float(rng.uniform(0, 250)), float(rng.uniform(0, 180)),
                              float(rng.uniform(10, 40)), float(rng.uniform(20, 70))),
                          float(rng.random()))
            )
        dets[fid] = frame_dets
    if not any(a.gt_boxes for a in annotations):
        annotations[0].gt_boxes.append(Box(10, 10, 20, 40))
        annotations[0].gt_meta = []
        annotations[0].__post_init__()
    return dets, annotations


# ---------------------------------------------------------------------------

class TestEvalCurve:
    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            EvalCurve(np.arange(3), np.arange(4), 0.0, "pr")

    def test_rejects_nonincreasing_x(self):
        with pytest.raises(ValueError):
            EvalCurve(np.array([1.0, 1.0]), np.zeros(2), 0.0, "pr")

    def test_csv_round_trips_exactly(self):
        c = EvalCurve(np.array([0.1, 0.7]), np.array([1 / 3, 2 / 7]), 0.5, "pr")
        lines = [l for l in c.to_csv().splitlines() if not l.startswith("#")]
        back = np.array([[float(v) for v in l.split(",")] for l in lines])
        assert np.array_equal(back[:, 0], c.x)
        assert np.array_equal(back[:, 1], c.y)

    def test_svg_is_wellformed(self):
        c = EvalCurve(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.5, "mr_fppi")
        svg = c.to_svg()
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg


class TestLamrBasics:
    def test_perfect_detector_hits_floor(self):
        annotations = [FrameAnnotation("f0", [Box(10, 10, 20, 40), Box(60, 10, 20, 40)])]
        dets = {"f0": [Detection(b, 0.9) for b in annotations[0].gt_boxes]}
        curve, summary = lamr(dets, annotations)
        assert np.all(curve.y == 0.0)
        assert summary == pytest.approx(1e-5)

    def test_half_recall_no_fps(self):
        annotations = [
            FrameAnnotation(f"f{i}", [Box(10, 10, 20, 40), Box(60, 10, 20, 40)])
            for i in range(3)
        ]
        dets = {f"f{i}": [Detection(Box(10, 10, 20, 40), 0.9)] for i in range(3)}
        _, summary = lamr(dets, annotations)
        assert summary == pytest.approx(0.5)

    def test_no_detections_gives_full_miss(self):
        annotations = [FrameAnnotation("f0", [Box(0, 0, 10, 20)])]
        _, summary = lamr({}, annotations)
        assert summary == pytest.approx(1.0)

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError):
            lamr({}, [FrameAnnotation("f0")])

    def test_duplicate_frames_rejected(self):
        ann = [FrameAnnotation("a", [Box(0, 0, 5, 5)]), FrameAnnotation("a")]
        with pytest.raises(ValueError, match="duplicate"):
            lamr({}, ann)

    def test_unknown_frame_rejected(self):
        ann = [FrameAnnotation("a", [Box(0, 0, 5, 5)])]
        with pytest.raises(ValueError, match="unknown"):
            lamr({"b": []}, ann)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        dets, ann = random_instance(rng)
        _, base = lamr(dets, ann)
        for transform in (lambda s: 2 * s + 1, np.exp, lambda s: s ** 3 + 0.5):
            mapped = {
                fid: [Detection(d.box, float(transform(d.score))) for d in ds]
                for fid, ds in dets.items()
            }
            _, got = lamr(mapped, ann)
            assert got == base


class TestLamrOracle:
    def test_matches_reference_sweep(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            dets, ann = random_instance(rng)
            _, got = lamr(dets, ann)
            want = ref_lamr(dets, ann)
            assert got == pytest.approx(want, abs=1e-9), trial


class TestAveragePrecision:
    def test_perfect_detector_ap_one(self):
        annotations = [FrameAnnotation("f0", [Box(10, 10, 20, 40)])]
        dets = {"f0": [Detection(Box(10, 10, 20, 40), 0.9)]}
        _, ap = average_precision(dets, annotations)
        assert ap == pytest.approx(1.0)

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            dets, ann = random_instance(rng)
            _, got = average_precision(dets, ann)
            want = ref_ap(dets, ann)
            assert got == pytest.approx(want, abs=1e-9), trial

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError):
            average_precision({}, [FrameAnnotation("f0")])


class TestRecallVsIou:
    def test_reference_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dets, ann = random_instance(rng, with_ignore=False)
            curve = recall_vs_iou(dets, ann)
            n_gt = sum(len(a.gt_boxes) for a in ann)
            for thr, got in zip(curve.x, curve.y):
                matched = sum(
                    len(ref_match(list(dets.get(a.frame_id, [])), a.gt_boxes, [], thr)[0])
                    for a in ann
                )
                assert got == pytest.approx(matched / n_gt, abs=1e-9)

    def test_monotone_nonincreasing_in_iou(self):
        rng = np.random.default_rng(4)
        dets, ann = random_instance(rng)
        curve = recall_vs_iou(dets, ann)
        assert np.all(np.diff(curve.y) <= 1e-12)

    def test_ground_truth_as_proposals_recalls_everything(self):
        """A box overlaps itself at IoU exactly 1, so feeding the GT back
        recalls every box up to and including the threshold 1.0."""
        _, ann = synth_dataset(SynthSpec(n_frames=50), seed=0)
        dets = {a.frame_id: [Detection(b, 1.0) for b in a.gt_boxes] for a in ann}
        curve = recall_vs_iou(dets, ann)
        assert curve.x[-1] == 1.0
        assert curve.y.tolist() == [1.0] * len(curve.x)

    def test_meta_reports_proposal_budget(self):
        ann = [FrameAnnotation("f0", [Box(0, 0, 10, 20)]), FrameAnnotation("f1")]
        dets = {"f0": [Detection(Box(0, 0, 10, 20), 1.0)] * 3, "f1": []}
        curve = recall_vs_iou(dets, ann)
        assert curve.meta["avg_proposals_per_image"] == pytest.approx(1.5)


class TestFpOverlapHistogram:
    def test_bin_placement(self):
        gt = Box(0, 0, 10, 10)
        ann = [FrameAnnotation("f0", [gt])]
        # FP with IoU 0.25: a 10x4 strip (inter 40, union 160... recompute)
        fp_box = Box(0, 0, 10, 4)  # inter 40, union 100+40-40=100 -> 0.4
        assert iou(fp_box, gt) == pytest.approx(0.4)
        dets = {"f0": [Detection(gt, 0.9), Detection(fp_box, 0.5)]}
        curve = fp_overlap_histogram(dets, ann)
        # 0.4 falls in bin (0.3, 0.4] which is index 3
        assert curve.y[3] == 1
        assert curve.summary == 1

    def test_nonoverlapping_fps_not_counted(self):
        ann = [FrameAnnotation("f0", [Box(0, 0, 10, 10)])]
        dets = {"f0": [Detection(Box(200, 200, 10, 10), 0.5)]}
        curve = fp_overlap_histogram(dets, ann)
        assert curve.summary == 0


class TestTouchingFp:
    def test_delta_nonnegative_and_exact_case(self):
        gt = Box(50, 50, 20, 40)
        ann = [FrameAnnotation(f"f{i}", [gt]) for i in range(4)]
        dets = {}
        for i in range(4):
            ds = [Detection(gt, 0.9)]
            if i < 2:
                ds.append(Detection(Box(55, 60, 20, 40), 0.8))  # touching FP
            dets[f"f{i}"] = ds
        mr_std, mr_filt, delta = touching_fp_analysis(dets, ann)
        assert delta == pytest.approx(mr_std - mr_filt)
        assert delta >= 0
        assert mr_filt == pytest.approx(1e-5)  # all FPs touch, all GT found

    def test_random_instances_delta_nonnegative(self):
        """delta >= 0 holds whenever the standard MR/FPPI curve reaches every
        reference point; a top-scored exact hit guarantees FPPI 0 is on it."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            dets, ann = random_instance(rng)
            for a in ann:
                if a.gt_boxes:
                    dets[a.frame_id] = list(dets[a.frame_id]) + [
                        Detection(a.gt_boxes[0], float(rng.uniform(2.0, 3.0)))
                    ]
            _, _, delta = touching_fp_analysis(dets, ann)
            assert delta >= -1e-12


class TestHeightHistogram:
    def test_bin_counts(self):
        from pedcascade.data import BoxMeta

        ann = [
            FrameAnnotation(
                "f0",
                [Box(0, 0, 5, 5), Box(0, 0, 5, 15), Box(0, 0, 5, 25), Box(0, 0, 5, 25)],
                [],
                [BoxMeta(5.0), BoxMeta(15.0), BoxMeta(25.0), BoxMeta(25.0)],
            )
        ]
        curve = height_histogram(ann)
        assert np.array_equal(curve.x, [0.0, 10.0, 20.0])
        assert np.array_equal(curve.y, [1.0, 1.0, 2.0])
        assert curve.summary == 4

    def test_empty(self):
        curve = height_histogram([FrameAnnotation("f0")])
        assert curve.x.size == 0 and curve.summary == 0.0
