"""Boxes, IoU, greedy NMS, and detection/ground-truth matching."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle at (x, y) with extent (w, h), continuous
    coordinates.  Overlap is measured on its corners (`iou_matrix`)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for v in (self.x, self.y, self.w, self.h):
            if not math.isfinite(v):
                raise ValueError(f"non-finite box coordinate: {self}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box must have positive extent: {self}")
        if (self.x + self.w - self.x) * (self.y + self.h - self.y) <= 0:
            raise ValueError(f"box extent vanishes at its position: {self}")

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class Detection:
    box: Box
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"non-finite detection score: {self.score}")


@dataclass
class MatchResult:
    """Partition of detections into matched / unmatched / ignored.

    `pairs` holds (detection index, ground-truth index) tuples.  Every
    detection index appears in exactly one of pairs, unmatched_detections,
    ignored_detections.
    """

    pairs: List[Tuple[int, int]] = field(default_factory=list)
    unmatched_detections: List[int] = field(default_factory=list)
    unmatched_gt: List[int] = field(default_factory=list)
    ignored_detections: List[int] = field(default_factory=list)


def box_array(boxes: Sequence[Box]) -> np.ndarray:
    """(n, 4) float64 array of the boxes' (x, y, w, h) rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _corners(boxes: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(x1, y1, x2, y2, area) of (x, y, w, h) rows, area taken from the corners."""
    x1, y1, w, h = boxes.T
    x2, y2 = x1 + w, y1 + h
    return x1, y1, x2, y2, (x2 - x1) * (y2 - y1)


def _overlap(a, b) -> np.ndarray:
    """IoU of corner tuples `a` and `b`, broadcast against each other."""
    (ax1, ay1, ax2, ay2, a_area), (bx1, by1, bx2, by2, b_area) = a, b
    ix = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    iy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    return inter / (a_area + b_area - inter)


def iou_matrix(a: Sequence[Box], b: Sequence[Box]) -> np.ndarray:
    """(len(a), len(b)) intersection over union; 0 for disjoint boxes.

    The one overlap kernel: NMS, matching and labelling all read it, so a
    box's IoU with itself is exactly 1 and the matrix is exactly symmetric.
    """
    return _overlap([v[:, None] for v in _corners(box_array(a))], _corners(box_array(b)))


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 for disjoint boxes."""
    return float(iou_matrix([a], [b])[0, 0])


def score_order(boxes: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row indices by descending score, then x, then y, then index (stable)."""
    return np.lexsort((boxes[:, 1], boxes[:, 0], -scores))


# The overlap above which NMS suppresses, in detection and after rescoring alike.
NMS_IOU = 0.5


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression of (n, 4) (x, y, w, h) rows by (n,) scores.

    Keeps the first remaining row in score_order and removes all others with
    IoU strictly above `iou_threshold` against it; returns the kept indices in
    that order.  Rows Box or Detection would reject are a ValueError.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0,1], got {iou_threshold}")
    if scores.ndim != 1 or boxes.shape != (scores.size, 4):
        raise ValueError(f"need (n, 4) boxes and (n,) scores, got {boxes.shape} and {scores.shape}")
    order = score_order(boxes, scores)
    corners = _corners(boxes[order])
    if not (np.isfinite(boxes).all() and np.isfinite(scores).all()
            and (boxes[:, 2:] > 0).all() and (corners[4] > 0).all()):
        raise ValueError("non-finite value, or box extent not positive or vanishing at its position")

    alive = np.ones(len(order), dtype=bool)
    for k in range(len(order)):
        if alive[k]:
            overlap = _overlap([v[k] for v in corners], [v[k + 1:] for v in corners])
            alive[k + 1:] &= ~(overlap > iou_threshold)
    return order[alive]


def match_detections(
    dets: Sequence[Detection],
    gt: Sequence[Box],
    ignore: Sequence[Box],
    iou_threshold: float,
) -> MatchResult:
    """Greedy detection-to-ground-truth matching.

    Detections are processed by descending score; each one matches the
    not-yet-matched GT box with the highest IoU >= threshold.  A detection
    that matches no GT but overlaps an ignore box at IoU >= threshold is
    placed in ignored_detections and counts neither as TP nor FP.
    """
    result = MatchResult()
    boxes = [d.box for d in dets]
    to_gt = iou_matrix(boxes, gt).tolist()
    to_ignore = (iou_matrix(boxes, ignore) >= iou_threshold).any(axis=1)
    gt_taken = [False] * len(gt)
    for i in score_order(box_array(boxes), np.array([d.score for d in dets])).tolist():
        best_j = -1
        best_iou = 0.0
        for j, o in enumerate(to_gt[i]):
            if not gt_taken[j] and o >= iou_threshold and o > best_iou:
                best_iou = o
                best_j = j
        if best_j >= 0:
            gt_taken[best_j] = True
            result.pairs.append((i, best_j))
        elif to_ignore[i]:
            result.ignored_detections.append(i)
        else:
            result.unmatched_detections.append(i)
    result.unmatched_gt = [j for j, taken in enumerate(gt_taken) if not taken]
    return result
