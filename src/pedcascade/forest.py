"""Boosted forest of depth-2 trees over rectangular channel sums, trained with
discrete AdaBoost and run as a sliding-window proposal detector."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channels import (ChannelConfig, ChannelStack, compute_channels, on_pitch, pooling_regions,
                       rect_sums, region_pitch)
from .geometry import Box, Detection, nms
from .imageops import Image, bilinear_resize

# Fraction of the model window occupied by the object extent (96/128 = 48/64).
OBJECT_EXTENT_RATIO = 0.75

N_THRESHOLD_QUANTILES = 256


@dataclass(frozen=True)
class SplitNode:
    channel: int
    rect: Box  # model-window coordinates
    threshold: float  # compared against the area-normalized rectangle sum
    polarity: int  # +1 or -1

    def __post_init__(self):
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +-1, got {self.polarity}")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


@dataclass(frozen=True)
class Tree2:
    """Depth-2 tree: root, two child splits, four leaf values (LL, LR, RL, RR)."""

    root: SplitNode
    left_child: SplitNode
    right_child: SplitNode
    leaf_values: Tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.leaf_values) != 4:
            raise ValueError(f"a depth-2 tree needs 4 leaf values, got {len(self.leaf_values)}")


@dataclass
class ForestModel:
    trees: List[Tree2]
    tree_weights: List[float]
    channel_cfg: ChannelConfig
    model_window: Tuple[int, int] = (128, 64)  # (height, width)
    score_offset: float = 0.0
    early_stop: bool = False
    training_log: List[Dict[str, float]] = field(default_factory=list)

    def __post_init__(self):
        if len(self.trees) != len(self.tree_weights) or not self.trees:
            raise ValueError("need equally many trees and weights, at least one")


@dataclass(frozen=True)
class SlidingWindowConfig:
    stride: int = 4
    scale_step: float = 2 ** (1 / 8)
    min_height: int = 50
    score_threshold: float = 0.0
    nms_iou: float = 0.5

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.scale_step <= 1:
            raise ValueError("scale_step must be > 1")


def default_candidate_rects(
    channel_cfg: ChannelConfig,
    model_window: Tuple[int, int] = (128, 64),
    sizes: Sequence[int] = (8, 16, 24, 32),
    grid: int = 8,
) -> List[Tuple[int, Box]]:
    """All square pooling regions of the given sizes on a regular grid,
    for every channel."""
    win_h, win_w = model_window
    rects = []
    for size in sizes:
        for y in range(0, win_h - size + 1, grid):
            for x in range(0, win_w - size + 1, grid):
                rects.append(Box(x, y, size, size))
    return [(c, r) for c in range(channel_cfg.n_channels) for r in rects]


def _sized(items: Iterable) -> Sequence:
    return items if hasattr(items, "__len__") else list(items)


def compute_feature_matrix(
    stacks: Iterable[ChannelStack], candidate_rects: Sequence[Tuple[int, Box]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(n_windows, n_candidates) matrix of area-normalized rectangle sums,
    each stack read at its integral pitch.

    The rows are written into `out` when given, one per stack, else into a
    new array; only each stack's row is kept, so a lazy iterable with a
    length is never held whole (one without a length is listed first)."""
    if out is None:
        stacks = _sized(stacks)
        out = np.empty((len(stacks), len(candidate_rects)))
    ch, x, y, w, h = pooling_regions(candidate_rects)
    area = w * h
    at_pitch = {}
    n = 0
    for n, stack in enumerate(stacks, 1):
        if stack.pitch not in at_pitch:
            at_pitch[stack.pitch] = on_pitch(stack.pitch, x, y, w, h)
        np.divide(rect_sums(stack.integrals, ch, *at_pitch[stack.pitch]), area, out=out[n - 1])
    if n != len(out):
        raise ValueError(f"{n} windows for {len(out)} feature rows")
    return out


def _split_node_list(model: ForestModel) -> List[SplitNode]:
    return [n for t in model.trees for n in (t.root, t.left_child, t.right_child)]


class SplitNodes(NamedTuple):
    """The 3T split nodes of a forest (root, left, right of each tree in
    order) as arrays: pooling regions in corner units of integrals at
    `pitch`, and float64 pixel areas, thresholds and polarities."""

    pitch: int
    channel: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    area: np.ndarray
    threshold: np.ndarray
    polarity: np.ndarray


def split_nodes(model: ForestModel, pitch: int = 1) -> SplitNodes:
    """The model's split nodes read at integral pitch `pitch`; ValueError
    unless every split rectangle's coordinates are multiples of it."""
    nodes = _split_node_list(model)
    ch, x, y, w, h = pooling_regions([(n.channel, n.rect) for n in nodes])
    area, thr, pol = (np.array(v, dtype=np.float64) for v in (
        w * h, [n.threshold for n in nodes], [n.polarity for n in nodes]))
    return SplitNodes(pitch, ch, *on_pitch(pitch, x, y, w, h), area, thr, pol)


def node_decisions(nodes: SplitNodes, integrals: np.ndarray, ox=0, oy=0) -> np.ndarray:
    """Decisions of all split nodes for windows at origins (ox, oy), in one
    pooling-kernel call over integrals at the nodes' pitch (origins in its
    corner units).

    ox and oy broadcast together, and trailing axes of `integrals` (a
    window-grid view) follow theirs; the result is boolean with shape
    (3T,) + their broadcast shape + those trailing axes.
    """
    origin_axes = (1,) * np.broadcast(ox, oy).ndim
    regions = (nodes.channel, nodes.x, nodes.y, nodes.w, nodes.h)
    f = rect_sums(integrals, *(a.reshape((-1,) + origin_axes) for a in regions), ox, oy)
    shape = (-1,) + (1,) * (f.ndim - 1)
    # in place, the node rule polarity * (sum / area - threshold) > 0
    f /= nodes.area.reshape(shape)
    f -= nodes.threshold.reshape(shape)
    f *= nodes.polarity.reshape(shape)
    return f > 0


def forest_scores(model: ForestModel, decisions: np.ndarray) -> np.ndarray:
    """Score offset plus each tree's weighted leaf value, added in tree order,
    from node decisions laid out as node_decisions returns them."""
    d = decisions.reshape((-1, 3) + decisions.shape[1:])
    leaf_idx = _leaf_index(d[:, 0], d[:, 1], d[:, 2])
    scores = np.full(decisions.shape[1:], model.score_offset, dtype=np.float64)
    for tree, alpha, idx in zip(model.trees, model.tree_weights, leaf_idx):
        scores += alpha * np.take(np.asarray(tree.leaf_values), idx)
    return scores


class _StumpSearch:
    """Shared quantized-threshold search over all candidate features."""

    def __init__(self, X: np.ndarray):
        n, self.f = X.shape
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        k = N_THRESHOLD_QUANTILES
        # k thresholds uniformly spanning each feature's empirical range.
        self.thresholds = lo[None, :] + (hi - lo)[None, :] * (np.arange(k) / (k - 1))[:, None]
        # keys[f, i] = f * (k + 1) + the number of thresholds strictly below
        # X[i, f]; feature-major, so each histogram bin adds its samples in
        # ascending order
        self.size = self.f * (k + 1)  # one histogram of every feature
        if 4 * self.size > np.iinfo(np.int32).max:
            raise ValueError(f"too many candidate features for the stump search: {self.f}")
        self.keys = np.empty((self.f, n), dtype=np.int32)
        for j in range(self.f):
            self.keys[j] = np.searchsorted(self.thresholds[:, j], X[:, j], side="left")
        self.keys += (np.arange(self.f, dtype=np.int32) * (k + 1))[:, None]

    def best_stumps(self, w: np.ndarray, y: np.ndarray,
                    side: Optional[np.ndarray] = None) -> List[Optional[tuple]]:
        """Minimum weighted-error stump on each side of a partition of the
        samples, with weights w and labels y in {+1, -1}.

        `side` is None for one side of all samples, or a boolean array that
        puts sample i on side int(side[i]).  Returns one (feature, threshold,
        polarity, error) per side, None for an empty side.  Polarity +1
        predicts positive where the normalized sum exceeds the threshold.
        One bincount fills the positive and negative histograms of every
        side at once.
        """
        k = N_THRESHOLD_QUANTILES
        n_sides = 1 if side is None else 2
        group = (y < 0).astype(np.int32)
        if side is not None:
            group += 2 * side.astype(np.int32)
        keys = self.keys + (group * np.int32(self.size))[None, :]
        hist = np.bincount(keys.ravel(), weights=np.broadcast_to(w, keys.shape).ravel(),
                           minlength=2 * n_sides * self.size)
        hist = hist.reshape(n_sides, 2, self.f, k + 1)
        out: List[Optional[tuple]] = []
        for s in range(n_sides):
            mask = slice(None) if side is None else side == bool(s)
            ws, ys = w[mask], y[mask]
            if ws.size == 0:
                out.append(None)
                continue
            cp = np.cumsum(hist[s, 0], axis=1)[:, :k]  # pos weight with value <= threshold_k
            cn = np.cumsum(hist[s, 1], axis=1)[:, :k]
            p_tot = float(np.sum(ws * (ys > 0)))
            n_tot = float(np.sum(ws * (ys < 0)))
            err_pos = cp + (n_tot - cn)  # polarity +1: predict + above the threshold
            err_neg = (p_tot + n_tot) - err_pos
            if err_pos.min() <= err_neg.min():
                err, pol = err_pos, +1
            else:
                err, pol = err_neg, -1
            fi, ki = np.unravel_index(np.argmin(err), err.shape)
            out.append((int(fi), float(self.thresholds[ki, fi]), pol, float(err[fi, ki])))
        return out


def _tree_decisions(tree_feat, tree_thr, tree_pol, X):
    """(d0, d1, d2) boolean arrays for a tree given a feature matrix."""
    return tuple(
        p * (X[:, f] - t) > 0 for f, t, p in zip(tree_feat, tree_thr, tree_pol)
    )


def _leaf_index(d0, d1, d2):
    return np.where(d0, 2 + d2.astype(np.intp), d1.astype(np.intp))


def train_forest(
    pos_windows: Iterable[ChannelStack],
    neg_windows: Iterable[ChannelStack],
    n_trees: int,
    candidate_rects: Sequence[Tuple[int, Box]],
    channel_cfg: ChannelConfig,
    model_window: Tuple[int, int] = (128, 64),
) -> ForestModel:
    """Discrete AdaBoost over greedily-fit depth-2 trees.

    Each split is the best (rect, threshold, polarity) stump on its sample
    subset, thresholds searched over 256 uniform quantiles of the feature's
    empirical range; leaf values are the +-1 weighted majority of their
    partition.  A degenerate round (error 0 or >= 1/2) stops training early
    and flags the returned model.  The windows may be lazy iterables: only
    their feature rows are kept.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if not candidate_rects:
        raise ValueError("candidate_rects must be non-empty")

    pos_windows, neg_windows = _sized(pos_windows), _sized(neg_windows)
    n_pos, n_neg = len(pos_windows), len(neg_windows)
    if not n_pos or not n_neg:
        raise ValueError("need at least one positive and one negative window")
    X = np.empty((n_pos + n_neg, len(candidate_rects)))
    compute_feature_matrix(pos_windows, candidate_rects, X[:n_pos])
    compute_feature_matrix(neg_windows, candidate_rects, X[n_pos:])
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    search = _StumpSearch(X)
    n = len(X)
    w = np.full(n, 1.0 / n)

    trees: List[Tree2] = []
    weights: List[float] = []
    log: List[Dict[str, float]] = []
    early_stop = False
    eps_floor = 1e-12
    default_child = (0, float(search.thresholds[-1, 0]), +1)

    for _ in range(n_trees):
        (f0, t0, p0, _), = search.best_stumps(w, y)
        d0 = p0 * (X[:, f0] - t0) > 0
        (f1, t1, p1), (f2, t2, p2) = (
            default_child if s is None else s[:3] for s in search.best_stumps(w, y, d0))

        feat, thr, pol = (f0, f1, f2), (t0, t1, t2), (p0, p1, p2)
        dd0, dd1, dd2 = _tree_decisions(feat, thr, pol, X)
        leaf_idx = _leaf_index(dd0, dd1, dd2)
        leaves = []
        for li in range(4):
            mask = leaf_idx == li
            balance = np.sum(w[mask] * y[mask])
            leaves.append(1.0 if balance >= 0 else -1.0)
        leaves = tuple(leaves)

        h = np.take(np.asarray(leaves), leaf_idx)
        eps = float(np.sum(w[h != y]))
        degenerate = eps < eps_floor or eps >= 0.5
        if eps >= 0.5:
            early_stop = True
            break
        eps_eff = max(eps, eps_floor)
        alpha = 0.5 * math.log((1.0 - eps_eff) / eps_eff)

        chans = [candidate_rects[f][0] for f in feat]
        rects = [candidate_rects[f][1] for f in feat]
        trees.append(
            Tree2(
                root=SplitNode(chans[0], rects[0], thr[0], pol[0]),
                left_child=SplitNode(chans[1], rects[1], thr[1], pol[1]),
                right_child=SplitNode(chans[2], rects[2], thr[2], pol[2]),
                leaf_values=leaves,
            )
        )
        weights.append(alpha)

        w = w * np.exp(-alpha * y * h)
        w /= w.sum()
        log.append({"epsilon": eps, "alpha": alpha})
        if degenerate:
            early_stop = True
            break

    if not trees:
        raise ValueError("no usable tree could be fit (first round degenerate)")
    return ForestModel(
        trees=trees,
        tree_weights=weights,
        channel_cfg=channel_cfg,
        model_window=model_window,
        early_stop=early_stop,
        training_log=log,
    )


def score_window_grid(
    model: ForestModel, stack: ChannelStack, stride: int, nodes: Optional[SplitNodes] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forest scores for every stride-aligned model window in the stack.

    Returns (scores[ny, nx], xs, ys) with window origins (xs[j], ys[i]) in
    pixels.  The stack's integrals are read at their pitch, which must
    divide the stride and every split rectangle's coordinates (ValueError
    otherwise); `nodes`, split_nodes of the model at that pitch, spares
    rebuilding them on every call.
    """
    g = stack.pitch
    if stride % g:
        raise ValueError(f"stride {stride} is not a multiple of the integral pitch {g}")
    if nodes is None:
        nodes = split_nodes(model, g)
    elif nodes.pitch != g:
        raise ValueError(f"split nodes at pitch {nodes.pitch} for integrals at pitch {g}")
    win_h, win_w = model.model_window
    xs = np.arange(0, stack.width - win_w + 1, stride, dtype=np.intp)
    ys = np.arange(0, stack.height - win_h + 1, stride, dtype=np.intp)
    if xs.size == 0 or ys.size == 0:
        return np.zeros((0, 0)), xs, ys
    # grid[c, y, x, i, j] = integrals[c, y + i*s, x + j*s], in corner units
    s = stride // g
    span = ((ys.size - 1) * s + 1, (xs.size - 1) * s + 1)
    grid = sliding_window_view(stack.integrals, span, axis=(1, 2))[..., ::s, ::s]
    scores = forest_scores(model, node_decisions(nodes, grid))
    return scores, xs, ys


def pyramid_ratios(
    img_h: int, img_w: int, model: ForestModel, cfg: SlidingWindowConfig
) -> List[float]:
    """Resize ratios of the scale pyramid, finest (largest ratio) first."""
    win_h, win_w = model.model_window
    extent_h = win_h * OBJECT_EXTENT_RATIO
    r = extent_h / cfg.min_height
    ratios = []
    while round(img_h * r) >= win_h and round(img_w * r) >= win_w:
        ratios.append(r)
        r /= cfg.scale_step
    return ratios


def detect(
    img: Image, model: ForestModel, cfg: SlidingWindowConfig
) -> List[Detection]:
    """Sliding-window detection over a scale pyramid.

    Reported boxes are the object extent (central 3/4 of the model window)
    mapped back to original image coordinates.  Returns [] when the image is
    too small for even the coarsest scale.  Integrals are built and read at
    the largest pitch that divides the stride and every split rectangle's
    coordinates (1 for a forest off that grid); the scores do not depend on
    it.
    """
    arr = img.data if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
    pitch = region_pitch([(n.channel, n.rect) for n in _split_node_list(model)], cfg.stride)
    nodes = split_nodes(model, pitch)
    win_h, win_w = model.model_window
    margin_x = win_w * (1.0 - OBJECT_EXTENT_RATIO) / 2.0
    margin_y = win_h * (1.0 - OBJECT_EXTENT_RATIO) / 2.0

    dets: List[Detection] = []
    for r in pyramid_ratios(arr.shape[0], arr.shape[1], model, cfg):
        if abs(r - 1.0) < 1e-12:
            scaled = arr
        else:
            scaled = bilinear_resize(arr, int(round(arr.shape[0] * r)), int(round(arr.shape[1] * r)))
        stack = compute_channels(scaled, model.channel_cfg, pitch)
        scores, xs, ys = score_window_grid(model, stack, cfg.stride, nodes)
        keep_i, keep_j = np.nonzero(scores > cfg.score_threshold)
        for i, j in zip(keep_i, keep_j):
            x = (xs[j] + margin_x) / r
            y = (ys[i] + margin_y) / r
            dets.append(
                Detection(
                    Box(x, y, win_w * OBJECT_EXTENT_RATIO / r, win_h * OBJECT_EXTENT_RATIO / r),
                    float(scores[i, j]),
                )
            )
    return nms(dets, cfg.nms_iou)


def filter_proposals(
    dets: Sequence[Sequence[Detection]], target_avg: float
) -> Tuple[float, List[List[Detection]]]:
    """Smallest score threshold keeping mean proposals/image <= target_avg.

    Detections with score >= the returned threshold survive, with one
    exception: when more detections tie at the top score than the budget
    floor(target_avg * n_images) allows, the threshold is that top score and
    only the first budget-many of them survive, in frame order and then in
    per-frame list order.  With a budget of zero nothing survives and the
    threshold is +inf.
    """
    if target_avg <= 0:
        raise ValueError("target_avg must be > 0")
    n_images = len(dets)
    scores = np.sort(np.array([d.score for per in dets for d in per]))[::-1]
    allowed = math.floor(target_avg * n_images)
    tied_over_budget = False
    if scores.size <= allowed:
        threshold = -math.inf
    else:
        uniq = np.unique(scores)[::-1]
        # cumulative count of detections at or above each unique score
        cum = np.searchsorted(-scores, -uniq, side="right")
        ok = np.nonzero(cum <= allowed)[0]
        if ok.size:
            threshold = float(uniq[ok[-1]])
        elif allowed:
            threshold = float(uniq[0])
            tied_over_budget = True
        else:
            threshold = math.inf
    filtered = [[d for d in per if d.score >= threshold] for per in dets]
    if tied_over_budget:
        left = allowed
        for i, per in enumerate(filtered):
            filtered[i] = per[:left]
            left -= len(filtered[i])
    return threshold, filtered


# ---------------------------------------------------------------------------
# serialization (versioned JSON)

FOREST_FORMAT_VERSION = 1


def _node_to_json(n: SplitNode) -> dict:
    return {
        "channel": n.channel,
        "rect": [n.rect.x, n.rect.y, n.rect.w, n.rect.h],
        "threshold": n.threshold,
        "polarity": n.polarity,
    }


def _node_from_json(d: dict) -> SplitNode:
    return SplitNode(d["channel"], Box(*d["rect"]), d["threshold"], d["polarity"])


def forest_to_json(model: ForestModel) -> dict:
    return {
        "version": FOREST_FORMAT_VERSION,
        "model_window": list(model.model_window),
        "score_offset": model.score_offset,
        "early_stop": model.early_stop,
        "channel_cfg": {
            "kind": model.channel_cfg.kind,
            "orientation_bins": model.channel_cfg.orientation_bins,
            "pre_blur": model.channel_cfg.pre_blur,
        },
        "tree_weights": list(model.tree_weights),
        "trees": [
            {
                "root": _node_to_json(t.root),
                "left": _node_to_json(t.left_child),
                "right": _node_to_json(t.right_child),
                "leaves": list(t.leaf_values),
            }
            for t in model.trees
        ],
        "training_log": model.training_log,
    }


def forest_from_json(d: dict) -> ForestModel:
    if d.get("version") != FOREST_FORMAT_VERSION:
        raise ValueError(f"unsupported forest format version {d.get('version')!r}")
    cfg = ChannelConfig(**d["channel_cfg"])
    trees = [
        Tree2(
            root=_node_from_json(t["root"]),
            left_child=_node_from_json(t["left"]),
            right_child=_node_from_json(t["right"]),
            leaf_values=tuple(t["leaves"]),
        )
        for t in d["trees"]
    ]
    model = ForestModel(
        trees=trees,
        tree_weights=list(d["tree_weights"]),
        channel_cfg=cfg,
        model_window=tuple(d["model_window"]),
        score_offset=d["score_offset"],
        early_stop=d.get("early_stop", False),
        training_log=d.get("training_log", []),
    )
    # every split must pool inside the model window, as scoring reads it
    win_h, win_w = model.model_window
    ch, x, y, w, h = pooling_regions([(n.channel, n.rect) for n in _split_node_list(model)])
    if (ch.min() < 0 or ch.max() >= cfg.n_channels or x.min() < 0 or y.min() < 0
            or (x + w).max() > win_w or (y + h).max() > win_h):
        raise ValueError(f"a split rectangle lies outside the {win_h}x{win_w} model window "
                         f"or its {cfg.n_channels} channels")
    return model


def save_forest(model: ForestModel, path) -> None:
    Path(path).write_text(json.dumps(forest_to_json(model), indent=1, sort_keys=True))


def load_forest(path) -> ForestModel:
    return forest_from_json(json.loads(Path(path).read_text()))
