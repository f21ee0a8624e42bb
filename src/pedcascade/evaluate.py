"""Evaluation protocols: log-average miss rate, 11-point average precision,
recall-vs-IoU, false-positive overlap histogram, touching-FP analysis, and
height histograms."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import DataError, FrameAnnotation
from .geometry import Detection, iou_matrix, match_detections


@dataclass
class EvalCurve:
    x: np.ndarray
    y: np.ndarray
    summary: float
    kind: str  # mr_fppi | recall_iou | pr | histogram
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must align")
        if self.x.size > 1 and not np.all(np.diff(self.x) > 0):
            raise ValueError("x must be strictly increasing")

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# kind,{self.kind}\n# summary,{float(self.summary)!r}\n")
        for xv, yv in zip(self.x, self.y):
            out.write(f"{float(xv)!r},{float(yv)!r}\n")
        return out.getvalue()

    def to_svg(self) -> str:
        """Minimal self-contained 640x480 SVG polyline plot (deterministic
        output)."""
        width, height = 640, 480
        if self.x.size == 0:
            pts = ""
        else:
            x0, x1 = float(self.x.min()), float(self.x.max())
            y0, y1 = float(self.y.min()), float(self.y.max())
            sx = (width - 40) / (x1 - x0) if x1 > x0 else 0.0
            sy = (height - 40) / (y1 - y0) if y1 > y0 else 0.0
            pts = " ".join(
                f"{20 + (xv - x0) * sx:.2f},{height - 20 - (yv - y0) * sy:.2f}"
                for xv, yv in zip(self.x, self.y)
            )
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            f'<polyline fill="none" stroke="black" points="{pts}"/>'
            f'<text x="20" y="15">{self.kind} summary={float(self.summary)!r}</text></svg>'
        )


# The Caltech evaluation protocol (Dollar et al., TPAMI 2012): a detection
# matches at IoU >= 0.5, the miss rate is sampled at nine FPPI points evenly
# spaced in log space over [1e-2, 1], and floored before the geometric mean.
MATCH_IOU = 0.5
FPPI_POINTS = tuple(np.logspace(-2.0, 0.0, 9))
MR_FLOOR = 1e-5


def _check_frames(dets_by_frame, annotations) -> None:
    if not annotations:
        raise DataError("zero frames")
    frame_ids = {a.frame_id for a in annotations}
    if len(frame_ids) != len(annotations):
        raise DataError("duplicate frame ids")
    unknown = set(dets_by_frame) - frame_ids
    if unknown:
        raise DataError(f"detections reference unknown frames: {sorted(unknown)[:5]}")


def _count_gt(annotations, metric: str) -> int:
    n_gt = sum(len(a.gt_boxes) for a in annotations)
    if n_gt == 0:
        raise DataError(f"zero ground-truth boxes: {metric} undefined")
    return n_gt


def _matched_frames(dets_by_frame, annotations, match_iou: float = MATCH_IOU):
    """Yields (annotation, its detection list, their MatchResult) for every
    frame, in annotation order; the frames are checked before the first."""
    _check_frames(dets_by_frame, annotations)
    for ann in annotations:
        dets = list(dets_by_frame.get(ann.frame_id, []))
        yield ann, dets, match_detections(dets, ann.gt_boxes, ann.ignore_boxes, match_iou)


def _classify_all(
    dets_by_frame: Dict[str, Sequence[Detection]],
    annotations: Sequence[FrameAnnotation],
):
    """One greedy matching pass per frame at threshold -inf.

    Greedy processing by descending score means the classification of a
    detection is unchanged when lower-scored detections are dropped, so
    score sweeps can reuse this single pass.  Returns the sorted
    (tp_scores, fp_scores).
    """
    tp_scores, fp_scores = [], []
    for _, dets, res in _matched_frames(dets_by_frame, annotations):
        tp_scores.extend(dets[i].score for i, _ in res.pairs)
        fp_scores.extend(dets[i].score for i in res.unmatched_detections)
    return np.sort(np.asarray(tp_scores)), np.sort(np.asarray(fp_scores))


def lamr(
    dets_by_frame: Dict[str, Sequence[Detection]],
    annotations: Sequence[FrameAnnotation],
) -> Tuple[EvalCurve, float]:
    """Log-average miss rate over the reference FPPI points.

    The summary is the geometric mean of the miss rate sampled (as a step
    function) at FPPI_POINTS, floored at MR_FLOOR.
    """
    n_gt, n_frames = _count_gt(annotations, "miss rate"), len(annotations)
    tp_s, fp_s = _classify_all(dets_by_frame, annotations)

    thresholds = np.unique(np.concatenate([tp_s, fp_s]))[::-1]
    if thresholds.size == 0:
        thresholds = np.array([0.0])
    # at threshold t: detections with score >= t are kept
    tp_counts = tp_s.size - np.searchsorted(tp_s, thresholds, side="left")
    fp_counts = fp_s.size - np.searchsorted(fp_s, thresholds, side="left")
    mr = (n_gt - tp_counts) / n_gt
    fppi = fp_counts / n_frames

    order = np.argsort(fppi, kind="stable")
    fppi_sorted = fppi[order]
    mr_sorted = mr[order]

    sampled = np.empty(len(FPPI_POINTS))
    for i, ref in enumerate(FPPI_POINTS):
        j = np.searchsorted(fppi_sorted, ref, side="right") - 1
        # no threshold reaches this FPPI: fall back to the lowest threshold
        sampled[i] = mr_sorted[j] if j >= 0 else mr[-1]
    summary = float(np.exp(np.mean(np.log(np.maximum(sampled, MR_FLOOR)))))
    curve = EvalCurve(
        x=np.asarray(FPPI_POINTS), y=sampled, summary=summary, kind="mr_fppi",
        meta={"n_gt": n_gt, "n_frames": n_frames},
    )
    return curve, summary


def average_precision(
    dets_by_frame: Dict[str, Sequence[Detection]],
    annotations: Sequence[FrameAnnotation],
) -> Tuple[EvalCurve, float]:
    """11-point interpolated average precision (matching at MATCH_IOU)."""
    n_gt = _count_gt(annotations, "AP")
    rows = []  # (score, is_tp)
    for _, dets, res in _matched_frames(dets_by_frame, annotations):
        rows.extend((dets[i].score, 1) for i, _ in res.pairs)
        rows.extend((dets[i].score, 0) for i in res.unmatched_detections)
    rows.sort(key=lambda r: -r[0])
    flags = np.array([f for _, f in rows], dtype=np.float64)
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(1.0 - flags)
    recall = tp_cum / n_gt
    with np.errstate(invalid="ignore"):
        precision = np.where(tp_cum + fp_cum > 0, tp_cum / (tp_cum + fp_cum), 0.0)

    ref = np.linspace(0.0, 1.0, 11)
    interp = np.empty(ref.size)
    for i, r in enumerate(ref):
        mask = recall >= r
        interp[i] = float(precision[mask].max()) if np.any(mask) else 0.0
    ap = float(interp.mean())
    curve = EvalCurve(x=ref, y=interp, summary=ap, kind="pr", meta={"n_gt": n_gt})
    return curve, ap


def recall_vs_iou(
    proposals_by_frame: Dict[str, Sequence[Detection]],
    annotations: Sequence[FrameAnnotation],
    thresholds: Optional[Sequence[float]] = None,
) -> EvalCurve:
    """Fraction of GT matched by at least one proposal, per IoU threshold."""
    if thresholds is None:
        thresholds = np.linspace(0.5, 1.0, 11)
    n_gt = _count_gt(annotations, "recall")
    n_props = sum(len(v) for v in proposals_by_frame.values())
    recalls = []
    for thr in thresholds:
        matches = _matched_frames(proposals_by_frame, annotations, thr)
        recalls.append(sum(len(res.pairs) for _, _, res in matches) / n_gt)
    return EvalCurve(
        x=np.asarray(thresholds), y=np.asarray(recalls),
        summary=float(recalls[0]), kind="recall_iou",
        meta={"avg_proposals_per_image": n_props / len(annotations)},
    )


def fp_overlap_histogram(
    dets_by_frame: Dict[str, Sequence[Detection]],
    annotations: Sequence[FrameAnnotation],
) -> EvalCurve:
    """Histogram over max-IoU-with-GT of false positives that overlap GT.

    Bin i of ten covers IoU in (i/10, (i+1)/10]; x holds bin upper edges.
    """
    n_bins = 10
    counts = np.zeros(n_bins)
    for ann, dets, res in _matched_frames(dets_by_frame, annotations):
        best = iou_matrix([d.box for d in dets], ann.gt_boxes).max(axis=1, initial=0.0)
        for i in res.unmatched_detections:
            if best[i] > 0.0:
                b = min(int(math.ceil(best[i] * n_bins)) - 1, n_bins - 1)
                counts[b] += 1
    edges = (np.arange(n_bins) + 1.0) / n_bins
    return EvalCurve(x=edges, y=counts, summary=float(counts.sum()), kind="histogram")


def touching_fp_analysis(
    dets_by_frame: Dict[str, Sequence[Detection]],
    annotations: Sequence[FrameAnnotation],
):
    """LAMR before and after deleting every false positive that touches
    (IoU > 0 with) any annotation, GT or ignore.

    Returns (mr_standard, mr_filtered, delta); delta >= 0.
    """
    _, mr_standard = lamr(dets_by_frame, annotations)

    filtered: Dict[str, List[Detection]] = {}
    for ann, dets, res in _matched_frames(dets_by_frame, annotations):
        all_ann = list(ann.gt_boxes) + list(ann.ignore_boxes)
        touching = iou_matrix([d.box for d in dets], all_ann).max(axis=1, initial=0.0) > 0.0
        drop = {i for i in res.unmatched_detections if touching[i]}
        filtered[ann.frame_id] = [d for i, d in enumerate(dets) if i not in drop]
    _, mr_filtered = lamr(filtered, annotations)
    return mr_standard, mr_filtered, mr_standard - mr_filtered


def height_histogram(annotations: Sequence[FrameAnnotation]) -> EvalCurve:
    """Counts of GT pedestrian heights per [10k, 10(k+1)) pixel bin; x holds
    bin left edges."""
    bin_width = 10.0
    heights = [m.height for a in annotations for m in a.gt_meta]
    if not heights:
        return EvalCurve(x=np.empty(0), y=np.empty(0), summary=0.0, kind="histogram")
    idx = np.floor(np.asarray(heights) / bin_width).astype(int)
    n_bins = idx.max() + 1
    counts = np.bincount(idx, minlength=n_bins).astype(np.float64)
    edges = np.arange(n_bins) * bin_width
    return EvalCurve(x=edges, y=counts, summary=float(len(heights)), kind="histogram")
