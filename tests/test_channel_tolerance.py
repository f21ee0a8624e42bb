"""Float32 channel planes held to a float64 oracle.

`compute_channels` casts its image to float32, so every plane is float32,
and `integral_image` sums the planes in float64; `forest.detect` casts each
frame to float32 once, before its pyramid.  The oracle is the float64 path:
the same `bilinear_resize`, `rgb_to_luv` and `gradient_channels` run on a
float64 frame, its integrals through `integral_image`, and a detect that
runs that pyramid through `score_window_grid` and `nms`.

The bounds:
  planes      within 1e-6 absolute of the oracle's, at the finest, a middle
              and the coarsest level size of the library-default pyramid
  integrals   within 1e-6 of the oracle's, relative to the largest
              magnitude of each plane's integral
  detections  on a held-out synthetic set, at least 99% of the oracle's
              detections have an identical box in the fast path, and
              recall@0.5 and LAMR each lie within 0.01 of the oracle's
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pedcascade.cascade import CascadeTrainConfig, train_proposal_forest
from pedcascade.channels import (
    CHANNEL_COUNTS,
    ORIENTATION_BINS,
    ChannelConfig,
    ChannelStack,
    compute_channels,
    gradient_channels,
    integral_image,
    region_pitch,
    rgb_to_luv,
)
from pedcascade.data import OBJECT_EXTENT_RATIO, WindowGeometry
from pedcascade.evaluate import lamr, recall_vs_iou
from pedcascade.forest import (
    SlidingWindowConfig,
    detect,
    pyramid_ratios,
    score_window_grid,
    split_nodes,
)
from pedcascade.geometry import NMS_IOU, Box, Detection, nms
from pedcascade.imageops import bilinear_resize
from pedcascade.synth import SynthSpec, synth_dataset

PLANE_ABS = 1e-6
INTEGRAL_REL = 1e-6
BOX_MATCH = 0.99
METRIC_ABS = 0.01


def oracle_planes(frame: np.ndarray, kind: str):
    """The channel planes of a float64 frame, computed in float64."""
    if kind == "RGB":
        return [np.ascontiguousarray(frame[..., c]) for c in range(3)]
    luv = rgb_to_luv(frame)
    l, u, v = (np.ascontiguousarray(luv[..., k]) for k in range(3))
    mag, oriented = gradient_channels(l, ORIENTATION_BINS if kind == "HOG_LUV" else 0)
    return [mag, *oriented, l, u, v]


def oracle_detect(frame: np.ndarray, model, cfg: SlidingWindowConfig):
    """forest.detect over a float64 pyramid."""
    pitch = region_pitch([(n.channel, n.rect) for n in model.nodes], cfg.stride)
    nodes = split_nodes(model, pitch)
    win_h, win_w = model.model_window
    margin_x = win_w * (1.0 - OBJECT_EXTENT_RATIO) / 2.0
    margin_y = win_h * (1.0 - OBJECT_EXTENT_RATIO) / 2.0
    boxes, scores = [np.empty((0, 4))], [np.empty(0)]
    for r in pyramid_ratios(frame.shape[0], frame.shape[1], model, cfg):
        level = frame if abs(r - 1.0) < 1e-12 else bilinear_resize(
            frame, round(frame.shape[0] * r), round(frame.shape[1] * r))
        stack = ChannelStack(oracle_planes(level, model.channel_cfg.kind), pitch)
        grid, xs, ys = score_window_grid(model, stack, cfg.stride, nodes)
        i, j = np.nonzero(grid > cfg.score_threshold)
        w, h = win_w * OBJECT_EXTENT_RATIO / r, win_h * OBJECT_EXTENT_RATIO / r
        boxes.append(np.stack([(xs[j] + margin_x) / r, (ys[i] + margin_y) / r,
                               np.full(i.size, w), np.full(i.size, h)], axis=1))
        scores.append(grid[i, j])
    boxes, scores = np.concatenate(boxes), np.concatenate(scores)
    keep = nms(boxes, scores, NMS_IOU)
    return [Detection(Box(*b), s) for b, s in zip(boxes[keep].tolist(), scores[keep].tolist())]


def default_level_sizes():
    """(h, w) of the finest, a middle and the coarsest level of the
    library-default pyramid over a 144x192 frame."""
    window = SimpleNamespace(model_window=WindowGeometry().window)
    sizes = [(round(144 * r), round(192 * r))
             for r in pyramid_ratios(144, 192, window, SlidingWindowConfig())]
    return [sizes[0], sizes[len(sizes) // 2], sizes[-1]]


@pytest.fixture(scope="module")
def levels():
    """(float32, float64) pairs: synthetic frames resized to each default
    level size from the frame in that dtype, as detect and the oracle do."""
    spec = SynthSpec(n_frames=2, image_hw=(144, 192), clutter=3.0, noise=0.2,
                     height_range=(64.0, 100.0))
    images, _ = synth_dataset(spec, seed=23)
    return [(bilinear_resize(img.data.astype(np.float32), *hw), bilinear_resize(img.data, *hw))
            for img in images for hw in default_level_sizes()]


class TestPlanes:
    def test_levels_span_the_pyramid(self):
        (h0, w0), (h1, w1), (h2, w2) = default_level_sizes()
        assert h0 > h1 > h2 and w0 > w1 > w2

    @pytest.mark.parametrize("kind", sorted(CHANNEL_COUNTS))
    def test_planes_within_abs_bound(self, levels, kind):
        for level32, level64 in levels:
            got = compute_channels(level32, ChannelConfig(kind)).channels
            want = oracle_planes(level64, kind)
            assert len(got) == len(want) == CHANNEL_COUNTS[kind]
            for g, w in zip(got, want):
                assert g.dtype == np.float32 and w.dtype == np.float64
                assert np.max(np.abs(g - w)) <= PLANE_ABS

    @pytest.mark.parametrize("pitch", [1, 4, 8])
    def test_integrals_within_rel_bound(self, levels, pitch):
        for level32, level64 in levels:
            stack = compute_channels(level32, ChannelConfig("HOG_LUV"), pitch)
            got = stack.integrals
            want = integral_image(oracle_planes(level64, "HOG_LUV"), pitch)
            assert got.dtype == want.dtype == np.float64
            err = np.max(np.abs(got - want), axis=(1, 2))
            assert np.all(err <= INTEGRAL_REL * np.max(np.abs(want), axis=(1, 2)))
            # float32 planes are summed in float64, as if cast first
            as64 = [p.astype(np.float64) for p in stack.channels]
            assert np.array_equal(got, integral_image(as64, pitch))


# A forest small enough to train in about a second on frames that still
# give it graded scores; the held-out frames come from another seed.
GEOM = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))
HELD_OUT = SynthSpec(n_frames=16, image_hw=(72, 96), height_range=(24.0, 40.0),
                     clutter=3.0, noise=0.2)


@pytest.fixture(scope="module")
def forest():
    spec = SynthSpec(n_frames=30, image_hw=(72, 96), height_range=(24.0, 40.0),
                     clutter=3.0, noise=0.2)
    images, frames = synth_dataset(spec, seed=5)
    cfg = CascadeTrainConfig(n_trees=8, geometry=GEOM, forest_negatives_per_frame=10,
                             sliding=SlidingWindowConfig(min_height=20))
    return train_proposal_forest([(f.frame_id, i) for f, i in zip(frames, images)],
                                 frames, cfg)


@pytest.mark.parametrize("threshold", [0.0, -1e9])
def test_detections_match_the_oracle(forest, threshold):
    cfg = SlidingWindowConfig(stride=4, scale_step=2 ** 0.25, min_height=20,
                              score_threshold=threshold)
    images, frames = synth_dataset(HELD_OUT, seed=6)
    fast = {f.frame_id: detect(img, forest, cfg) for f, img in zip(frames, images)}
    oracle = {f.frame_id: oracle_detect(img.data, forest, cfg)
              for f, img in zip(frames, images)}
    n_oracle = sum(map(len, oracle.values()))
    assert n_oracle > len(frames)
    same = sum(len({d.box for d in want} & {d.box for d in fast[fid]})
               for fid, want in oracle.items())
    assert same >= BOX_MATCH * n_oracle
    assert abs(recall_vs_iou(fast, frames).summary
               - recall_vs_iou(oracle, frames).summary) <= METRIC_ABS
    assert abs(lamr(fast, frames)[1] - lamr(oracle, frames)[1]) <= METRIC_ABS
