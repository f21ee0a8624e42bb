"""Shared fixtures: a miniature detection world small enough for fast tests.

Images are 90x120 with a single bright-column "figure" per frame; the model
window is 32x16 so sliding-window detection and forest training stay cheap.
"""

import numpy as np
import pytest

from pedcascade.channels import ChannelConfig, compute_channels
from pedcascade.data import (
    FrameAnnotation,
    WindowGeometry,
    extract_window,
    jittered_negatives,
    random_boxes,
)
from pedcascade.forest import (
    ForestModel,
    SlidingWindowConfig,
    SplitNode,
    Tree2,
    default_candidate_rects,
    train_forest,
)
from pedcascade.geometry import Box, iou_matrix
from pedcascade.imageops import Image

TINY_GEOM = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))
TINY_SLIDING = SlidingWindowConfig(
    stride=4, scale_step=2 ** 0.5, min_height=18, score_threshold=-1e9
)
TINY_CCFG = ChannelConfig("G_LUV")


def aligned_forest(rng, n_trees, cells, pitch, n_channels=3):
    """A random forest over a window of `cells` (rows, columns) of pitch x
    pitch pixels whose split rectangles all lie on that grid."""
    def node():
        h, w = (int(rng.integers(1, n + 1)) for n in cells)
        rect = Box(pitch * int(rng.integers(0, cells[1] - w + 1)),
                   pitch * int(rng.integers(0, cells[0] - h + 1)), pitch * w, pitch * h)
        return SplitNode(int(rng.integers(0, n_channels)), rect, float(rng.random()),
                         int(rng.choice([-1, 1])))

    trees = [Tree2(node(), node(), node(), tuple(rng.standard_normal(4))) for _ in range(n_trees)]
    return ForestModel(trees, list(rng.random(n_trees)), ChannelConfig("RGB"),
                       (pitch * cells[0], pitch * cells[1]),
                       score_offset=float(rng.standard_normal()))


def draw_figure(img: np.ndarray, box: Box, rng) -> None:
    x0, y0 = int(round(box.x)), int(round(box.y))
    x1, y1 = int(round(box.x + box.w)), int(round(box.y + box.h))
    img[y0:y1, x0:x1] = rng.uniform(0.6, 0.9)
    head = int(round(box.h * 0.25))
    img[y0 : y0 + head, x0:x1] = rng.uniform(0.05, 0.25)


def draw_distractor(img: np.ndarray, rng) -> None:
    """Headless pillars and bars in the figure tone range."""
    hgt, wid = img.shape[:2]
    tone = rng.uniform(0.55, 0.9)
    if rng.random() < 0.5:
        h = rng.uniform(18, 30)
        w = h / 2
    else:
        w = rng.uniform(20, 40)
        h = w / 2
    x0 = int(rng.uniform(0, wid - w))
    y0 = int(rng.uniform(0, hgt - h))
    img[y0 : y0 + int(h), x0 : x0 + int(w)] = tone


def make_world(n_frames: int, seed: int):
    """Images plus annotations with one figure per frame, plus clutter so a
    boosted forest needs several rounds and yields graded scores."""
    rng = np.random.default_rng(seed)
    images, frames = [], []
    for i in range(n_frames):
        img = np.full((90, 120, 3), 0.35) + rng.normal(0, 0.02, (90, 120, 3))
        for _ in range(int(rng.integers(2, 5))):
            draw_distractor(img, rng)
        h = float(rng.uniform(22, 34))
        w = h / 2
        box = Box(float(rng.uniform(0, 120 - w)), float(rng.uniform(0, 90 - h)), w, h)
        draw_figure(img, box, rng)
        img += rng.normal(0, 0.02, img.shape)
        images.append((f"w{i:03d}", Image(np.clip(img, 0, 1))))
        frames.append(FrameAnnotation(f"w{i:03d}", [box]))
    return images, frames


@pytest.fixture(scope="session")
def tiny_world():
    return make_world(10, seed=0)


@pytest.fixture(scope="session")
def tiny_forest(tiny_world):
    images, frames = tiny_world
    rng = np.random.default_rng(1)
    pos, neg = [], []
    for (fid, img), ann in zip(images, frames):
        for b in ann.gt_boxes:
            pos.append(compute_channels(extract_window(img, b, TINY_GEOM), TINY_CCFG))
        cand = random_boxes(8, (img.height, img.width), rng, TINY_GEOM, min_height=18)
        best = iou_matrix(cand, ann.gt_boxes).max(axis=1, initial=0.0)
        negs = [b for b, o in zip(cand, best) if o < 0.5]
        negs += jittered_negatives(ann.gt_boxes, 6, (img.height, img.width), rng)
        for b in negs:
            neg.append(compute_channels(extract_window(img, b, TINY_GEOM), TINY_CCFG))
    rects = default_candidate_rects(TINY_CCFG, TINY_GEOM.window)
    return train_forest(pos, neg, 8, rects, TINY_CCFG, TINY_GEOM.window)
