"""Annotation ingestion, subset filtering, proposal labeling, window
geometry, and ratio-enforced batch sampling."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import Box, Detection, iou_matrix
from .imageops import Image, sample_box_bilinear

log = logging.getLogger(__name__)


class DataError(ValueError):
    pass


@dataclass
class BoxMeta:
    height: float
    occlusion: int = 0  # 0 = none, 1 = partial, 2 = heavy


@dataclass
class FrameAnnotation:
    frame_id: str
    gt_boxes: List[Box] = field(default_factory=list)
    ignore_boxes: List[Box] = field(default_factory=list)
    gt_meta: List[BoxMeta] = field(default_factory=list)

    def __post_init__(self):
        if not self.gt_meta:
            self.gt_meta = [BoxMeta(height=b.h) for b in self.gt_boxes]
        if len(self.gt_meta) != len(self.gt_boxes):
            raise DataError(f"frame {self.frame_id}: meta/box count mismatch")


@dataclass(frozen=True)
class LabelingPolicy:
    """How training proposals get their {pos, neg, ignore} labels.

    positive_source "gt" takes only ground-truth boxes as positives;
    "gt+proposals" additionally promotes proposals with max-IoU > pos_iou.
    neg_source "random" replaces proposal-derived negatives with uniform
    random boxes (the weak baseline).
    """

    positive_source: str = "gt"  # "gt" or "gt+proposals"
    pos_iou: Optional[float] = None
    neg_iou: float = 0.5
    neg_source: str = "proposals"  # "proposals" or "random"

    def __post_init__(self):
        if self.positive_source not in ("gt", "gt+proposals"):
            raise ValueError(f"bad positive_source {self.positive_source!r}")
        if self.positive_source == "gt+proposals" and self.pos_iou is None:
            raise ValueError("gt+proposals requires pos_iou")
        for name in ("pos_iou", "neg_iou"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if self.pos_iou is not None and self.neg_iou > self.pos_iou:
            raise ValueError("neg_iou must be <= pos_iou")
        if self.neg_source not in ("proposals", "random"):
            raise ValueError(f"bad neg_source {self.neg_source!r}")


@dataclass(frozen=True)
class BatchRatio:
    pos: int
    neg: int

    def __post_init__(self):
        if self.pos < 1 or self.neg < 1:
            raise ValueError("ratio parts must be >= 1")


# Fraction of the model window occupied by the object extent (96/128 = 48/64).
OBJECT_EXTENT_RATIO = 0.75


@dataclass(frozen=True)
class WindowGeometry:
    window: Tuple[int, int] = (128, 64)  # (h, w)
    pedestrian_extent: Tuple[int, int] = (96, 48)

    @classmethod
    def for_window(cls, hw: Sequence[int]) -> "WindowGeometry":
        """Windows of size `hw` with the pedestrian extent at
        OBJECT_EXTENT_RATIO of it: the windows a rescorer whose net input is
        `hw` reads."""
        return cls(tuple(hw), tuple(n * OBJECT_EXTENT_RATIO for n in hw))

    @property
    def context_scale(self) -> float:
        return self.window[0] / self.pedestrian_extent[0]


# ---------------------------------------------------------------------------
# annotation I/O

ANNOTATION_FORMAT_VERSION = 1

_KITTI_GT_TYPES = {"Pedestrian"}
_KITTI_IGNORE_TYPES = {"Person_sitting", "Cyclist", "DontCare"}


def _parse_kitti_file(path: Path) -> FrameAnnotation:
    frame = FrameAnnotation(frame_id=path.stem)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 15:
            raise DataError(f"{path}:{lineno}: expected >= 15 fields, got {len(parts)}")
        obj_type = parts[0]
        try:
            occlusion = int(float(parts[2]))
            x1, y1, x2, y2 = (float(v) for v in parts[4:8])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed number ({exc})") from None
        if x2 <= x1 or y2 <= y1:
            raise DataError(f"{path}:{lineno}: degenerate bbox {parts[4:8]}")
        box = Box(x1, y1, x2 - x1, y2 - y1)
        if obj_type in _KITTI_GT_TYPES:
            frame.gt_boxes.append(box)
            frame.gt_meta.append(BoxMeta(height=box.h, occlusion=min(occlusion, 2)))
        elif obj_type in _KITTI_IGNORE_TYPES:
            frame.ignore_boxes.append(box)
        else:
            log.warning("%s:%d: unknown object type %r, treating as ignore",
                        path, lineno, obj_type)
            frame.ignore_boxes.append(box)
    return frame


def load_annotations(path, fmt: str) -> List[FrameAnnotation]:
    """Load annotations from KITTI label text files or the repo JSON schema.

    For kitti_txt, `path` may be a single .txt file or a directory of
    per-frame .txt files (frame id = file stem, sorted).
    """
    p = Path(path)
    if fmt == "kitti_txt":
        files = sorted(p.glob("*.txt")) if p.is_dir() else [p]
        if not files:
            raise DataError(f"{path}: no KITTI label files found")
        return [_parse_kitti_file(f) for f in files]
    if fmt == "json":
        return annotations_from_json(json.loads(p.read_text()))
    raise DataError(f"unknown annotation format {fmt!r}")


def annotations_to_json(frames: Sequence[FrameAnnotation]) -> dict:
    return {
        "version": ANNOTATION_FORMAT_VERSION,
        "frames": [
            {
                "frame_id": f.frame_id,
                "gt": [
                    {"x": b.x, "y": b.y, "w": b.w, "h": b.h,
                     "height": m.height, "occlusion": m.occlusion}
                    for b, m in zip(f.gt_boxes, f.gt_meta)
                ],
                "ignore": [
                    {"x": b.x, "y": b.y, "w": b.w, "h": b.h} for b in f.ignore_boxes
                ],
            }
            for f in frames
        ],
    }


def annotations_from_json(d: dict) -> List[FrameAnnotation]:
    if d.get("version") != ANNOTATION_FORMAT_VERSION:
        raise DataError(f"unsupported annotation version {d.get('version')!r}")
    frames = []
    for fd in d["frames"]:
        gt = [Box(g["x"], g["y"], g["w"], g["h"]) for g in fd["gt"]]
        meta = [
            BoxMeta(height=g.get("height", g["h"]), occlusion=g.get("occlusion", 0))
            for g in fd["gt"]
        ]
        ignore = [Box(g["x"], g["y"], g["w"], g["h"]) for g in fd.get("ignore", [])]
        frames.append(FrameAnnotation(fd["frame_id"], gt, ignore, meta))
    return frames


def detections_to_json(per_frame: Dict[str, Sequence[Detection]]) -> dict:
    return {
        "version": ANNOTATION_FORMAT_VERSION,
        "frames": [
            {
                "frame_id": fid,
                "detections": [
                    {"box": {"x": d.box.x, "y": d.box.y, "w": d.box.w, "h": d.box.h},
                     "score": d.score}
                    for d in dets
                ],
            }
            for fid, dets in per_frame.items()
        ],
    }


def detections_from_json(d: dict) -> Dict[str, List[Detection]]:
    if d.get("version") != ANNOTATION_FORMAT_VERSION:
        raise DataError(f"unsupported detections version {d.get('version')!r}")
    out = {}
    for fd in d["frames"]:
        if fd["frame_id"] in out:
            raise DataError(f"repeated frame id {fd['frame_id']!r}")
        out[fd["frame_id"]] = [
            Detection(Box(e["box"]["x"], e["box"]["y"], e["box"]["w"], e["box"]["h"]),
                      e["score"])
            for e in fd["detections"]
        ]
    return out


# ---------------------------------------------------------------------------
# filtering

REASONABLE_MIN_HEIGHT = 50.0
REASONABLE_MAX_OCCLUSION = 1  # partial


def reasonable_filter(frames: Sequence[FrameAnnotation]) -> List[FrameAnnotation]:
    """Keep GT boxes at least 50 px tall and at most partially occluded;
    demoted boxes become ignore regions."""
    out = []
    for f in frames:
        kept_boxes, kept_meta, demoted = [], [], []
        for b, m in zip(f.gt_boxes, f.gt_meta):
            if m.height >= REASONABLE_MIN_HEIGHT and m.occlusion <= REASONABLE_MAX_OCCLUSION:
                kept_boxes.append(b)
                kept_meta.append(m)
            else:
                demoted.append(b)
        out.append(
            FrameAnnotation(f.frame_id, kept_boxes, list(f.ignore_boxes) + demoted, kept_meta)
        )
    return out


# ---------------------------------------------------------------------------
# proposal labeling

LABEL_POS, LABEL_NEG, LABEL_IGNORE = "pos", "neg", "ignore"


def label_proposals(
    proposals: Sequence[Box], gt: Sequence[Box], policy: LabelingPolicy
) -> List[str]:
    """Label each proposal pos/neg/ignore by its max IoU over all GT boxes.

    Strict inequalities: IoU exactly at a threshold is ignored.
    """
    labels = []
    for best in iou_matrix(proposals, gt).max(axis=1, initial=0.0):
        if (
            policy.positive_source == "gt+proposals"
            and policy.pos_iou is not None
            and best > policy.pos_iou
        ):
            labels.append(LABEL_POS)
        elif best < policy.neg_iou:
            labels.append(LABEL_NEG)
        else:
            labels.append(LABEL_IGNORE)
    return labels


def random_boxes(
    n: int, image_hw: Tuple[int, int], rng: np.random.Generator,
    geom: WindowGeometry = WindowGeometry(), min_height: int = 50,
) -> List[Box]:
    """Uniform random boxes with the model aspect ratio (the weak negatives)."""
    h_img, w_img = image_hw
    aspect = geom.pedestrian_extent[1] / geom.pedestrian_extent[0]
    out = []
    max_h = max(min_height + 1, min(h_img, int(w_img / aspect)))
    for _ in range(n):
        bh = float(rng.uniform(min_height, max_h))
        bw = bh * aspect
        bx = float(rng.uniform(0, max(w_img - bw, 1e-6)))
        by = float(rng.uniform(0, max(h_img - bh, 1e-6)))
        out.append(Box(bx, by, bw, bh))
    return out


JITTER_ATTEMPTS = 30  # draws per GT box before jittered_negatives gives up


def jittered_negatives(
    gt: Sequence[Box],
    n_per_box: int,
    image_hw: Tuple[int, int],
    rng: np.random.Generator,
    policy: LabelingPolicy = LabelingPolicy(),
) -> List[Box]:
    """Hard negatives: shifted/rescaled copies of GT boxes, clipped to the
    image, that label_proposals labels negative under `policy`."""
    h_img, w_img = image_hw
    out: List[Box] = []
    for g in gt:
        made = 0
        for _ in range(JITTER_ATTEMPTS):
            if made >= n_per_box:
                break
            s = float(rng.uniform(0.7, 1.4))
            bw, bh = g.w * s, g.h * s
            bx = g.x + float(rng.uniform(-1.2, 1.2)) * g.w
            by = g.y + float(rng.uniform(-0.8, 0.8)) * g.h
            bx = min(max(bx, 0.0), max(w_img - bw, 0.0))
            by = min(max(by, 0.0), max(h_img - bh, 0.0))
            if bw <= 1 or bh <= 1 or bx + bw > w_img or by + bh > h_img:
                continue
            cand = Box(bx, by, bw, bh)
            if label_proposals([cand], gt, policy) == [LABEL_NEG]:
                out.append(cand)
                made += 1
    return out


# ---------------------------------------------------------------------------
# window extraction

def window_source_box(target: Box, geom: WindowGeometry = WindowGeometry()) -> Box:
    """Model-window source region: the target enlarged by the context scale
    about its center, aspect adjusted to the window shape by changing width
    only (the vertical extent defines pedestrian height)."""
    cx, cy = target.center
    h = target.h * geom.context_scale
    w = h * (geom.window[1] / geom.window[0])
    return Box(cx - w / 2.0, cy - h / 2.0, w, h)


def extract_window(
    img: Union[Image, np.ndarray], target: Box, geom: WindowGeometry = WindowGeometry()
) -> np.ndarray:
    """Crop the context window around `target` and resize to the model window.

    Out-of-image regions replicate border pixels; resampling is bilinear and
    is an exact copy when the source box is integer-aligned at scale 1.
    """
    arr = img.data if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
    src = window_source_box(target, geom)
    return sample_box_bilinear(arr, src.x, src.y, src.w, src.h, geom.window[0], geom.window[1])


# ---------------------------------------------------------------------------
# batch sampling

class BatchSampler:
    """Yields training batches with a strictly enforced class ratio.

    With a ratio, every batch holds exactly batch * pos / (pos + neg)
    positives (the split must be integral); classes are drawn without
    replacement when the pool is large enough, with replacement otherwise.
    With ratio None, batches are plain uniform draws from the pool.  A batch
    is the (n, ...) window array (a sequence is stacked once) at the drawn rows.
    """

    def __init__(
        self,
        windows: np.ndarray,
        labels: Sequence[int],
        batch: int,
        ratio: Optional[BatchRatio],
        seed: int = 0,
    ):
        self.windows = np.asarray(windows)
        if len(self.windows) != len(labels) or not len(self.windows):
            raise ValueError("windows and labels must align and be non-empty")
        self.labels = np.asarray(labels, dtype=np.intp)
        self.batch = batch
        self.ratio = ratio
        self.rng = np.random.default_rng(seed)

        if ratio is not None:
            total = ratio.pos + ratio.neg
            if (batch * ratio.pos) % total != 0:
                raise ValueError(f"batch {batch} not divisible by ratio {ratio}")
            self.n_pos = batch * ratio.pos // total
            self.n_neg = batch - self.n_pos
            self.pos_idx = np.nonzero(self.labels == 1)[0]
            self.neg_idx = np.nonzero(self.labels == 0)[0]
            if self.pos_idx.size == 0 or self.neg_idx.size == 0:
                raise ValueError("ratio sampling requires both classes in the pool")

    @property
    def batches_per_epoch(self) -> int:
        return max(1, math.ceil(len(self.windows) / self.batch))

    def _draw(self, pool: np.ndarray, k: int) -> np.ndarray:
        return self.rng.choice(pool, size=k, replace=pool.size < k)

    def next_batch(self):
        if self.ratio is None:
            idx = self.rng.integers(0, len(self.windows), size=self.batch)
        else:
            idx = np.concatenate(
                [self._draw(self.pos_idx, self.n_pos), self._draw(self.neg_idx, self.n_neg)]
            )
            self.rng.shuffle(idx)
        return self.windows[idx], self.labels[idx]
