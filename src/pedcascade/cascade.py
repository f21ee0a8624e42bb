"""Two-stage detector: forest proposals, window extraction, rescoring
(convnet, SVM head, or identity), final NMS."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channels import ChannelConfig, compute_channels, region_pitch
from .convnet import (NetModel, NetSpec, SoftmaxSpec, TrainConfig, default_cifarnet,
                      read_net, save_net, sgd_train)
from .data import (
    BatchRatio,
    BatchSampler,
    FrameAnnotation,
    LabelingPolicy,
    WindowGeometry,
    extract_window,
    jittered_negatives,
    label_proposals,
    random_boxes,
    LABEL_NEG,
    LABEL_POS,
)
from .forest import (
    ForestModel,
    SlidingWindowConfig,
    default_candidate_rects,
    detect,
    filter_proposals,
    train_forest,
)
from .geometry import Detection, iou_matrix, nms
from .imageops import Image
from .svm import SvmConfig, train_svm


class CascadeError(RuntimeError):
    pass


def _window_batch(img, boxes, geom: WindowGeometry) -> np.ndarray:
    """Extracted context windows stacked in image layout (n, H, W[, 3])."""
    return np.stack([extract_window(img, b, geom) for b in boxes])


def _net_layout(windows: np.ndarray) -> np.ndarray:
    if windows.ndim == 4:
        return windows.transpose(0, 3, 1, 2)
    return windows[:, None, :, :]


class IdentityRescorer:
    """Keeps the proposal scores; the cascade degenerates to stage one."""

    def __call__(self, windows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return np.asarray(scores, dtype=np.float64)


class NetRescorer:
    """Positive-class softmax probability of a trained net.

    `input_mean` is subtracted from every window before scoring; it must match
    the centering used when the net was trained.
    """

    def __init__(self, model: NetModel, input_mean: float = 0.0):
        self.model = model
        self.input_mean = float(input_mean)

    def __call__(self, windows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return self.model.scores(_net_layout(windows) - self.input_mean)


class SvmRescorer:
    """Linear SVM over intermediate net features (w.phi(x) + b)."""

    def __init__(self, model: NetModel, w: np.ndarray, b: float,
                 feature_layer: str = "fc1", input_mean: float = 0.0):
        self.model = model
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.feature_layer = feature_layer
        self.input_mean = float(input_mean)

    def __call__(self, windows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        phi = self.model.features(_net_layout(windows) - self.input_mean,
                                  self.feature_layer)
        return phi @ self.w + self.b


@dataclass
class CascadeConfig:
    proposal_model: ForestModel
    rescorer: object  # callable(windows, scores) -> scores
    proposal_filter_avg: float = 3.0
    final_nms_iou: float = 0.5
    score_blend: str = "replace"  # "replace" or "none"
    sliding: SlidingWindowConfig = field(default_factory=SlidingWindowConfig)
    geometry: WindowGeometry = field(default_factory=WindowGeometry)

    def __post_init__(self):
        if self.proposal_filter_avg <= 0:
            raise ValueError("proposal_filter_avg must be > 0")
        if self.score_blend not in ("replace", "none"):
            raise ValueError(f"bad score_blend {self.score_blend!r}")


@dataclass
class TimingReport:
    ms_per_window: float
    ms_per_image_proposals: float
    ms_per_image_total: float
    windows_scored: int

    def consistent(self, n_images: int, tol: float = 1e-6) -> bool:
        """Component times must not exceed the total (up to rounding)."""
        if n_images == 0:
            return (self.ms_per_window == 0 and self.ms_per_image_total == 0
                    and self.windows_scored == 0)
        rescore_total = self.ms_per_window * self.windows_scored
        component = self.ms_per_image_proposals * n_images + rescore_total
        return component <= self.ms_per_image_total * n_images + tol


def run_cascade(
    images: Sequence[Tuple[str, Image]], cfg: CascadeConfig
) -> Tuple[Dict[str, List[Detection]], TimingReport]:
    """Proposals, global score-threshold filtering to the target average,
    window rescoring, final NMS (final_nms_iou=1.0 keeps every box).

    Rescoring only rewrites scores; box geometry is untouched before NMS.
    """
    if not images:
        return {}, TimingReport(0.0, 0.0, 0.0, 0)
    ids = [fid for fid, _ in images]
    if len(set(ids)) != len(ids):
        raise CascadeError("duplicate frame ids")

    t0 = time.perf_counter()
    proposals: List[List[Detection]] = []
    for fid, img in images:
        try:
            proposals.append(detect(img, cfg.proposal_model, cfg.sliding))
        except Exception as exc:
            raise CascadeError(f"frame {fid}: proposal stage failed: {exc}") from exc
    t_prop = time.perf_counter() - t0

    _, filtered = filter_proposals(proposals, cfg.proposal_filter_avg)

    windows_scored = 0
    t_rescore = 0.0
    out: Dict[str, List[Detection]] = {}
    for (fid, img), dets in zip(images, filtered):
        if dets and cfg.score_blend == "replace":
            t1 = time.perf_counter()
            try:
                wins = _window_batch(img, [d.box for d in dets], cfg.geometry)
                new_scores = cfg.rescorer(wins, np.array([d.score for d in dets]))
            except Exception as exc:
                raise CascadeError(f"frame {fid}: rescoring failed: {exc}") from exc
            t_rescore += time.perf_counter() - t1
            windows_scored += len(dets)
            dets = [replace(d, score=float(s)) for d, s in zip(dets, new_scores)]
        out[fid] = nms(dets, cfg.final_nms_iou)

    total = time.perf_counter() - t0
    n = len(images)
    report = TimingReport(
        ms_per_window=(t_rescore / windows_scored * 1e3) if windows_scored else 0.0,
        ms_per_image_proposals=t_prop / n * 1e3,
        ms_per_image_total=total / n * 1e3,
        windows_scored=windows_scored,
    )
    return out, report


# ---------------------------------------------------------------------------
# training

@dataclass
class CascadeTrainConfig:
    n_trees: int = 64
    channel_cfg: ChannelConfig = field(default_factory=lambda: ChannelConfig("G_LUV"))
    sliding: SlidingWindowConfig = field(default_factory=SlidingWindowConfig)
    geometry: WindowGeometry = field(default_factory=WindowGeometry)
    policy: LabelingPolicy = field(default_factory=LabelingPolicy)
    net_geometry: Optional[WindowGeometry] = None  # rescorer windows; default: geometry
    ratio: Optional[BatchRatio] = field(default_factory=lambda: BatchRatio(1, 5))
    net_train: TrainConfig = field(default_factory=TrainConfig)
    net_spec: Optional[NetSpec] = None  # default: cifarnet sized to the window
    rescorer_kind: str = "net"  # "net", "svm", or "identity"
    svm: SvmConfig = field(default_factory=SvmConfig)
    forest_negatives_per_frame: int = 20
    proposal_filter_avg: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.rescorer_kind not in ("net", "svm", "identity"):
            raise ValueError(f"bad rescorer_kind {self.rescorer_kind!r}")


class _WindowStacks:
    """Channel stacks of the windows at (image, boxes) pairs, integrals at
    `pitch`, built one at a time as they are iterated; only the consumer
    keeps any of them."""

    def __init__(self, image_boxes, cfg: CascadeTrainConfig, pitch: int):
        self.image_boxes = image_boxes
        self.cfg = cfg
        self.pitch = pitch

    def __len__(self):
        return sum(len(boxes) for _, boxes in self.image_boxes)

    def __iter__(self):
        for img, boxes in self.image_boxes:
            for b in boxes:
                yield compute_channels(extract_window(img, b, self.cfg.geometry),
                                       self.cfg.channel_cfg, self.pitch)


def _random_negatives(n, img, ann, geom, cfg: CascadeTrainConfig, rng):
    """n random boxes of at least cfg.sliding.min_height, kept when below
    cfg.policy.neg_iou with every GT box."""
    cand = random_boxes(n, (img.height, img.width), rng, geom,
                        min_height=max(1, int(cfg.sliding.min_height)))
    best = iou_matrix(cand, ann.gt_boxes).max(axis=1, initial=0.0)
    return [b for b, o in zip(cand, best) if o < cfg.policy.neg_iou]


def forest_training_pool(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    cfg: CascadeTrainConfig,
    rng: np.random.Generator,
) -> Tuple[_WindowStacks, _WindowStacks]:
    """Channel stacks of the forest's positive and negative windows, as lazy
    iterables with a length: the boxes are drawn here, each stack is built
    when iterated, its integrals at the pitch of the default candidate
    rectangles that train_proposal_forest fits over.

    Positives are the GT boxes.  Negatives are, per frame,
    cfg.forest_negatives_per_frame random boxes below cfg.policy.neg_iou with
    every GT box, plus three jittered copies of each GT box.  Frames pair
    with images by position.
    """
    pos, neg = [], []
    for (_, img), ann in zip(images, frames):
        pos.append((img, ann.gt_boxes))
        keep = _random_negatives(cfg.forest_negatives_per_frame, img, ann, cfg.geometry,
                                 cfg, rng)
        keep += jittered_negatives(
            ann.gt_boxes, 3, (img.height, img.width), rng, cfg.policy.neg_iou
        )
        neg.append((img, keep))
    pitch = region_pitch(default_candidate_rects(cfg.channel_cfg, cfg.geometry.window))
    return _WindowStacks(pos, cfg, pitch), _WindowStacks(neg, cfg, pitch)


def train_proposal_forest(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    cfg: CascadeTrainConfig,
) -> ForestModel:
    """The proposal forest: cfg.n_trees boosting rounds over the default
    candidate rectangles, on the forest training pool drawn with a generator
    seeded by cfg.seed.  A pool with an empty class is a CascadeError."""
    pos, neg = forest_training_pool(images, frames, cfg, np.random.default_rng(cfg.seed))
    if not pos or not neg:
        raise CascadeError("training frames yielded an empty class")
    rects = default_candidate_rects(cfg.channel_cfg, cfg.geometry.window)
    return train_forest(pos, neg, cfg.n_trees, rects, cfg.channel_cfg, cfg.geometry.window)


def rescorer_training_pool(images, frames, proposals, cfg: CascadeTrainConfig, rng):
    """Labeled (image-layout window, 0/1) pool for the second stage, per the
    policy.  Frames and proposals pair with images by position; with
    neg_source "random", each frame draws len(proposals) + 4 candidates."""
    geom = cfg.net_geometry or cfg.geometry
    windows, labels = [], []
    for (fid, img), ann, props in zip(images, frames, proposals):
        boxes = [d.box for d in props]
        labs = label_proposals(boxes, ann.gt_boxes, cfg.policy)
        pos = [b for b, l in zip(boxes, labs) if l == LABEL_POS] + list(ann.gt_boxes)
        if cfg.policy.neg_source == "random":
            neg = _random_negatives(len(boxes) + 4, img, ann, geom, cfg, rng)
        else:
            neg = [b for b, l in zip(boxes, labs) if l == LABEL_NEG]
        windows.extend(extract_window(img, b, geom) for b in pos + neg)
        labels.extend([1] * len(pos) + [0] * len(neg))
    if not any(labels) or all(labels):
        raise CascadeError("rescorer pool is single-class; adjust the policy")
    return windows, labels


def _centred(windows: Sequence[np.ndarray], input_mean: float) -> List[np.ndarray]:
    return [_net_layout(w[None])[0] - input_mean for w in windows]


def train_net_rescorer(windows, labels, cfg: CascadeTrainConfig) -> NetRescorer:
    """Fit cfg.net_spec (default: cifarnet sized to the windows) on a labeled
    pool of image-layout windows, centred by the pool's mean."""
    input_mean = float(np.mean([w.mean() for w in windows]))
    net_windows = _centred(windows, input_mean)
    in_ch, h, w = net_windows[0].shape
    spec = cfg.net_spec or default_cifarnet(input_channels=in_ch, input_hw=(h, w))
    model = NetModel(spec, seed=cfg.seed, init_sigma=cfg.net_train.init_sigma,
                     first_layer_sigma=cfg.net_train.first_layer_sigma)
    sampler = BatchSampler(net_windows, labels, cfg.net_train.batch, cfg.ratio, seed=cfg.seed)
    sgd_train(model, sampler, cfg.net_train)
    return NetRescorer(model, input_mean=input_mean)


def train_svm_head(rescorer: NetRescorer, windows, labels, cfg: SvmConfig) -> SvmRescorer:
    """Fit a linear SVM on the trained net's cfg.feature_layer features of a
    labeled pool; the head keeps the net and its input mean."""
    phi = rescorer.model.features(np.stack(_centred(windows, rescorer.input_mean)),
                                  cfg.feature_layer)
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    w, b = train_svm(phi, y, cfg)
    return SvmRescorer(rescorer.model, w, b, cfg.feature_layer, rescorer.input_mean)


def train_rescorer(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    proposals: Sequence[Sequence[Detection]],
    cfg: CascadeTrainConfig,
):
    """Train the second-stage rescorer on windows labeled from filtered
    proposals.  Returns a callable rescorer (net or SVM head per the config)."""
    rng = np.random.default_rng(cfg.seed)
    windows, labels = rescorer_training_pool(images, frames, proposals, cfg, rng)
    rescorer = train_net_rescorer(windows, labels, cfg)
    if cfg.rescorer_kind == "net":
        return rescorer
    return train_svm_head(rescorer, windows, labels, cfg.svm)


def save_rescorer(rescorer, path) -> None:
    """Write a NetRescorer or SvmRescorer as one net file: the weights, plus
    the input mean and any SVM head in its JSON header."""
    header = {"input_mean": rescorer.input_mean}
    if isinstance(rescorer, SvmRescorer):
        header.update(feature_layer=rescorer.feature_layer, w=rescorer.w.tolist(),
                      b=rescorer.b)
    save_net(rescorer.model, path, header)


def load_rescorer(path):
    """The NetRescorer or SvmRescorer in a net file; a header without an
    input mean loads as mean 0.0."""
    model, header = read_net(path)
    if model.spec.layers[-1:] != [SoftmaxSpec()] or model.spec.shapes()[-1] != (2,):
        raise ValueError(f"{path}: a rescorer net must end in a 2-class softmax")
    mean = float(header.get("input_mean", 0.0))
    if "w" not in header:
        return NetRescorer(model, input_mean=mean)
    layer = header["feature_layer"]
    shape = model.spec.shapes()[model.layer_names.index(layer)]
    if len(header["w"]) != int(np.prod(shape)):
        raise ValueError(f"{path}: SVM head does not fit the {layer} features {shape}")
    return SvmRescorer(model, header["w"], header["b"], layer, input_mean=mean)


def train_cascade(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    cfg: CascadeTrainConfig,
) -> CascadeConfig:
    """Train the proposal forest on GT vs random negatives, run it over the
    training frames, label its proposals per the policy, train the rescorer
    on the extracted windows, and assemble the cascade."""
    if len(images) != len(frames) or not images:
        raise CascadeError("need aligned, non-empty images and frames")
    forest = train_proposal_forest(images, frames, cfg)

    if cfg.rescorer_kind == "identity":
        return CascadeConfig(
            proposal_model=forest, rescorer=IdentityRescorer(),
            proposal_filter_avg=cfg.proposal_filter_avg, score_blend="none",
            sliding=cfg.sliding, geometry=cfg.geometry,
        )

    proposals = [detect(img, forest, cfg.sliding) for _, img in images]
    _, proposals = filter_proposals(proposals, cfg.proposal_filter_avg)
    rescorer = train_rescorer(images, frames, proposals, cfg)

    return CascadeConfig(
        proposal_model=forest, rescorer=rescorer,
        proposal_filter_avg=cfg.proposal_filter_avg,
        sliding=cfg.sliding, geometry=cfg.net_geometry or cfg.geometry,
    )
