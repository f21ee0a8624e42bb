"""Boxes, IoU, greedy NMS, and detection/ground-truth matching."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle, continuous coordinates, area = w * h."""

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

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

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


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 for disjoint boxes."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def _det_order(dets: Sequence[Detection]) -> List[int]:
    # Deterministic: score desc, then x asc, y asc, input order.
    return sorted(
        range(len(dets)),
        key=lambda i: (-dets[i].score, dets[i].box.x, dets[i].box.y, i),
    )


def nms(dets: Sequence[Detection], iou_threshold: float) -> List[Detection]:
    """Greedy non-maximum suppression.

    Keeps the highest-scoring remaining detection and removes all others
    with IoU strictly above `iou_threshold` against it.  Output sorted by
    descending score with the same tie-break used for processing order.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0,1], got {iou_threshold}")
    if not dets:
        return []
    order = np.array(_det_order(dets), dtype=np.intp)
    x1 = np.array([d.box.x for d in dets])[order]
    y1 = np.array([d.box.y for d in dets])[order]
    x2 = np.array([d.box.x2 for d in dets])[order]
    y2 = np.array([d.box.y2 for d in dets])[order]
    area = (x2 - x1) * (y2 - y1)

    kept: List[int] = []
    alive = np.ones(len(order), dtype=bool)
    for k in range(len(order)):
        if not alive[k]:
            continue
        kept.append(int(order[k]))
        ix = np.minimum(x2[k], x2) - np.maximum(x1[k], x1)
        iy = np.minimum(y2[k], y2) - np.maximum(y1[k], y1)
        inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
        overlap = inter / (area[k] + area - inter)
        alive &= ~(overlap > iou_threshold)
        alive[k] = False
    return [dets[i] for i in kept]


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
    gt_taken = [False] * len(gt)
    for i in _det_order(dets):
        best_j = -1
        best_iou = 0.0
        for j, g in enumerate(gt):
            if gt_taken[j]:
                continue
            o = iou(dets[i].box, g)
            if o >= iou_threshold and o > best_iou:
                best_iou = o
                best_j = j
        if best_j >= 0:
            gt_taken[best_j] = True
            result.pairs.append((i, best_j))
            continue
        if any(iou(dets[i].box, ig) >= iou_threshold for ig in ignore):
            result.ignored_detections.append(i)
        else:
            result.unmatched_detections.append(i)
    result.unmatched_gt = [j for j, taken in enumerate(gt_taken) if not taken]
    return result
