"""Deterministic synthetic street-scene generator: elongated two-tone
pedestrian glyphs with exact ground-truth boxes, plus configurable clutter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .data import FrameAnnotation, BoxMeta
from .geometry import Box, iou_matrix
from .imageops import Image

# The smallest frame side every drawn shape fits: a bright-capped pillar is
# at least 45 pixels high and at most 0.9 of the frame's height, and a
# pillar can be 49.5 pixels wide.
MIN_IMAGE_SIDE = 50


@dataclass(frozen=True)
class SynthSpec:
    n_frames: int = 50
    image_hw: Tuple[int, int] = (240, 320)
    peds_per_frame: Tuple[int, int] = (1, 2)  # (lo, hi), inclusive
    height_range: Tuple[float, float] = (64.0, 120.0)
    clutter: float = 0.0  # expected distractor shapes per frame
    noise: float = 0.01  # pixel noise sigma

    def __post_init__(self):
        if self.n_frames < 0:
            raise ValueError("n_frames must be >= 0")
        lo, hi = self.height_range
        if not (0 < lo <= hi):
            raise ValueError("bad height_range")
        if self.clutter < 0 or self.noise < 0:
            raise ValueError("clutter and noise must be >= 0")
        if min(self.image_hw) < MIN_IMAGE_SIDE:
            raise ValueError(f"image_hw {tuple(self.image_hw)} is below the minimum side "
                             f"{MIN_IMAGE_SIDE} that the drawn shapes fit")


def _draw_ellipse(img: np.ndarray, cx, cy, rx, ry, color) -> None:
    h, w = img.shape[:2]
    y0 = max(0, int(cy - ry) - 1)
    y1 = min(h, int(cy + ry) + 2)
    x0 = max(0, int(cx - rx) - 1)
    x1 = min(w, int(cx + rx) + 2)
    if y0 >= y1 or x0 >= x1:
        return
    yy, xx = np.mgrid[y0:y1, x0:x1]
    mask = ((xx + 0.5 - cx) / rx) ** 2 + ((yy + 0.5 - cy) / ry) ** 2 <= 1.0
    img[y0:y1, x0:x1][mask] = color


def _draw_rect(img: np.ndarray, x, y, w, h, color) -> None:
    H, W = img.shape[:2]
    x0, y0 = max(0, int(round(x))), max(0, int(round(y)))
    x1, y1 = min(W, int(round(x + w))), min(H, int(round(y + h)))
    if x0 < x1 and y0 < y1:
        img[y0:y1, x0:x1] = color


def _draw_pedestrian(img: np.ndarray, box: Box, rng: np.random.Generator) -> None:
    """Two-tone glyph: dark round head over a bright torso/legs column.

    Body tone varies widely and overlaps the distractor tone range, so a
    detector cannot separate the classes on brightness alone.
    """
    base = rng.uniform(0.55, 0.92)
    body = np.clip(base + rng.normal(0, 0.03, 3), 0, 1)
    head = np.clip(rng.uniform(0.08, 0.30) + rng.normal(0, 0.02, 3), 0, 1)

    head_h = box.h * 0.22
    cx = box.x + box.w / 2.0
    # torso: vertical ellipse spanning the box below the head
    _draw_ellipse(img, cx, box.y + head_h + (box.h - head_h) * 0.45,
                  box.w * 0.42, (box.h - head_h) * 0.48, body)
    # legs: two narrow columns at the bottom
    leg_w = box.w * 0.16
    leg_top = box.y + box.h * 0.62
    _draw_rect(img, cx - box.w * 0.26, leg_top, leg_w, box.y + box.h - leg_top, body)
    _draw_rect(img, cx + box.w * 0.10, leg_top, leg_w, box.y + box.h - leg_top, body)
    # head
    _draw_ellipse(img, cx, box.y + head_h * 0.55, head_h * 0.48, head_h * 0.52, head)


def _draw_distractor(img: np.ndarray, rng: np.random.Generator) -> None:
    h, w = img.shape[:2]
    kind = rng.integers(0, 4)
    color = np.clip(rng.uniform(0.50, 0.92) + rng.normal(0, 0.03, 3), 0, 1)
    if kind == 0:  # horizontal bar
        bh = rng.uniform(8, min(20, h / 3))
        bw = min(bh * rng.uniform(2.5, 5.0), w * 0.8)
        _draw_rect(img, rng.uniform(0, w - bw), rng.uniform(0, h - bh), bw, bh, color)
    elif kind == 1:  # round blob
        s = rng.uniform(15, min(45, h / 2, w / 2))
        _draw_ellipse(img, rng.uniform(s, w - s), rng.uniform(s, h - s), s / 2, s / 2, color)
    elif kind == 2:  # headless pillar: pedestrian-like column, no dark head
        ph = rng.uniform(40, min(90, h * 0.9))
        pw = ph * rng.uniform(0.40, 0.55)
        _draw_rect(img, rng.uniform(0, w - pw), rng.uniform(0, h - ph), pw, ph, color)
    else:  # bright-capped pillar: head-and-torso layout with an inverted head tone
        ph = rng.uniform(45, min(95, h * 0.9))
        pw = ph * rng.uniform(0.35, 0.50)
        px = rng.uniform(0, w - pw)
        py = rng.uniform(0, h - ph)
        head_h = ph * 0.22
        _draw_ellipse(img, px + pw / 2, py + head_h + (ph - head_h) * 0.45,
                      pw * 0.42, (ph - head_h) * 0.48, color)
        cap = np.clip(color + rng.uniform(0.05, 0.15), 0, 1)
        _draw_ellipse(img, px + pw / 2, py + head_h * 0.55,
                      head_h * 0.48, head_h * 0.52, cap)


def _draw_background_patches(img: np.ndarray, rng: np.random.Generator) -> None:
    """Low-contrast tonal rectangles so negatives are not uniformly flat."""
    h, w = img.shape[:2]
    for _ in range(int(rng.integers(3, 7))):
        pw = rng.uniform(20, w * 0.5)
        ph = rng.uniform(15, h * 0.5)
        tone = np.clip(rng.uniform(0.25, 0.60) + rng.normal(0, 0.02, 3), 0, 1)
        _draw_rect(img, rng.uniform(-pw / 2, w - pw / 2), rng.uniform(-ph / 2, h - ph / 2),
                   pw, ph, tone)


def synth_dataset(spec: SynthSpec, seed: int = 0):
    """Render the dataset; returns (images, frame annotations).

    Deterministic: a fixed (spec, seed) pair yields bit-identical output.
    """
    rng = np.random.default_rng(seed)
    h, w = spec.image_hw
    lo_n, hi_n = spec.peds_per_frame
    images: List[Image] = []
    frames: List[FrameAnnotation] = []

    for fi in range(spec.n_frames):
        base = rng.uniform(0.30, 0.45)
        img = np.empty((h, w, 3))
        ramp = base + 0.08 * (np.arange(h) / max(h - 1, 1))[:, None]
        for c in range(3):
            img[:, :, c] = ramp + rng.normal(0, 0.01)
        _draw_background_patches(img, rng)

        n_distract = rng.poisson(spec.clutter) if spec.clutter > 0 else 0
        for _ in range(n_distract):
            _draw_distractor(img, rng)

        n_peds = int(rng.integers(lo_n, hi_n + 1))
        boxes: List[Box] = []
        attempts = 0
        while len(boxes) < n_peds and attempts < 200:
            attempts += 1
            ph = float(rng.uniform(*spec.height_range))
            pw = ph / 2.0
            if pw >= w or ph >= h:
                continue
            box = Box(float(rng.uniform(0, w - pw)), float(rng.uniform(0, h - ph)), pw, ph)
            if iou_matrix([box], boxes).max(initial=0.0) < 0.1:
                boxes.append(box)
        for box in boxes:
            _draw_pedestrian(img, box, rng)

        if spec.noise > 0:
            img = img + rng.normal(0, spec.noise, img.shape)
        images.append(Image(np.clip(img, 0.0, 1.0)))
        frames.append(
            FrameAnnotation(
                frame_id=f"synth_{fi:05d}",
                gt_boxes=boxes,
                gt_meta=[BoxMeta(height=b.h) for b in boxes],
            )
        )
    return images, frames
