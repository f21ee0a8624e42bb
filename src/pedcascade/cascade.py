"""Two-stage detector: forest proposals, window extraction, rescoring
(convnet or SVM head; none for proposals only), final NMS."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from .geometry import NMS_IOU, Detection, box_array, nms
from .imageops import Image
from .svm import SvmConfig, train_svm


class CascadeError(RuntimeError):
    pass


def _by_id(pairs) -> dict:
    """{frame id: item} of (frame id, item) pairs, in their order; a
    repeated id is a CascadeError naming it."""
    out = {}
    for fid, item in pairs:
        if fid in out:
            raise CascadeError(f"duplicate frame id {fid!r}")
        out[fid] = item
    return out


def _per_frame(images, by_id: Mapping, what: str) -> list:
    """by_id's entry of each image's frame id, in image order; entries of
    other frames are ignored.  A repeated frame id, or one that by_id lacks,
    is a CascadeError naming the frame."""
    ids = _by_id(images)
    for fid in ids:
        if fid not in by_id:
            raise CascadeError(f"frame {fid!r} has no {what}")
    return [by_id[fid] for fid in ids]


def _window_batch(img, boxes, geom: WindowGeometry) -> np.ndarray:
    """Extracted context windows stacked in image layout (n, H, W[, 3])."""
    return np.stack([extract_window(img, b, geom) for b in boxes])


def _net_layout(windows: np.ndarray) -> np.ndarray:
    if windows.ndim == 4:
        return windows.transpose(0, 3, 1, 2)
    return windows[:, None, :, :]


class NetRescorer:
    """Positive-class softmax probability of a trained net; with a linear
    head (`w` given), the SVM score w.phi(x) + b of the net's
    `feature_layer` features phi(x) instead.

    `input_mean` is subtracted from every window before scoring; it must match
    the centering used when the net was trained.
    """

    def __init__(self, model: NetModel, input_mean: float = 0.0,
                 w: Optional[np.ndarray] = None, b: float = 0.0, feature_layer: str = "fc1"):
        self.model = model
        self.input_mean = float(input_mean)
        self.w = None if w is None else np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.feature_layer = feature_layer

    def __call__(self, windows: np.ndarray, scores: np.ndarray) -> np.ndarray:
        x = _net_layout(windows) - self.input_mean
        if self.w is None:
            return self.model.scores(x)
        return self.model.features(x, self.feature_layer) @ self.w + self.b


def _check_proposal_budget(avg: float) -> None:
    if not 0 < avg < math.inf:
        raise ValueError(f"proposal_filter_avg must be positive and finite, got {avg!r}")


@dataclass
class CascadeConfig:
    proposal_model: ForestModel
    rescorer: Optional[object]  # callable(windows, scores) -> scores; None: proposals only
    proposal_filter_avg: float = 3.0
    sliding: SlidingWindowConfig = field(default_factory=SlidingWindowConfig)
    geometry: WindowGeometry = field(default_factory=WindowGeometry)

    def __post_init__(self):
        _check_proposal_budget(self.proposal_filter_avg)


@dataclass
class TimingReport:
    """Where one run_cascade call spent its time.

    ms_per_image_proposals: `propose` (every frame's detect, then the global
        filter), per image.
    ms_per_window: `rescore` (window extraction, the rescorer and the final
        NMS), per rescored window; 0 when no window is rescored.
    ms_per_image_total: the whole call, per image.
    windows_scored: proposals handed to the rescorer; 0 without one.
    """

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


def propose(
    images: Sequence[Tuple[str, Image]], model: ForestModel, sliding: SlidingWindowConfig,
    target_avg: float,
) -> Tuple[float, Dict[str, List[Detection]]]:
    """Forest proposals of every frame, filtered globally to at most
    target_avg per image: (score threshold, {frame id: Detection list} in
    image order), as filter_proposals returns them.  A repeated frame id is
    a CascadeError."""
    ids = list(_by_id(images))
    proposals: List[List[Detection]] = []
    for fid, img in images:
        try:
            proposals.append(detect(img, model, sliding))
        except Exception as exc:
            raise CascadeError(f"frame {fid}: proposal stage failed: {exc}") from exc
    threshold, kept = filter_proposals(proposals, target_avg)
    return threshold, dict(zip(ids, kept))


def rescore(
    images: Sequence[Tuple[str, Image]],
    proposals: Mapping[str, Sequence[Detection]],
    rescorer: Optional[object],
    geometry: WindowGeometry,
) -> Dict[str, List[Detection]]:
    """Each frame's proposals, looked up by frame id, rescored on their
    `geometry` windows, then final NMS at NMS_IOU.  A repeated frame id, or
    one the proposals lack, is a CascadeError.  A None rescorer keeps the
    proposal scores and extracts no window.

    Rescoring only rewrites scores; box geometry is untouched before NMS.
    """
    out: Dict[str, List[Detection]] = {}
    for (fid, img), dets in zip(images, _per_frame(images, proposals, "proposals")):
        boxes = [d.box for d in dets]
        scores = np.array([d.score for d in dets])
        if dets and rescorer is not None:
            try:
                scores = np.asarray(rescorer(_window_batch(img, boxes, geometry), scores),
                                    dtype=np.float64)
            except Exception as exc:
                raise CascadeError(f"frame {fid}: rescoring failed: {exc}") from exc
        keep = nms(box_array(boxes), scores, NMS_IOU)
        out[fid] = [Detection(boxes[i], s) for i, s in zip(keep.tolist(), scores[keep].tolist())]
    return out


def run_cascade(
    images: Sequence[Tuple[str, Image]], cfg: CascadeConfig
) -> Tuple[Dict[str, List[Detection]], TimingReport]:
    """`propose`, then `rescore` with the config's rescorer, timed."""
    if not images:
        return {}, TimingReport(0.0, 0.0, 0.0, 0)
    t0 = time.perf_counter()
    _, proposals = propose(images, cfg.proposal_model, cfg.sliding, cfg.proposal_filter_avg)
    t1 = time.perf_counter()
    out = rescore(images, proposals, cfg.rescorer, cfg.geometry)
    t2 = time.perf_counter()

    windows = sum(map(len, proposals.values())) if cfg.rescorer is not None else 0
    n = len(images)
    report = TimingReport(
        ms_per_window=(t2 - t1) / windows * 1e3 if windows else 0.0,
        ms_per_image_proposals=(t1 - t0) / n * 1e3,
        ms_per_image_total=(t2 - t0) / n * 1e3,
        windows_scored=windows,
    )
    return out, report


# ---------------------------------------------------------------------------
# training

@dataclass
class CascadeTrainConfig:
    n_trees: int = 64
    channel_cfg: ChannelConfig = field(default_factory=ChannelConfig)
    sliding: SlidingWindowConfig = field(default_factory=SlidingWindowConfig)
    geometry: WindowGeometry = field(default_factory=WindowGeometry)
    policy: LabelingPolicy = field(default_factory=LabelingPolicy)
    net_geometry: Optional[WindowGeometry] = None  # rescorer windows; default: geometry
    ratio: Optional[BatchRatio] = field(default_factory=lambda: BatchRatio(1, 5))
    net_train: TrainConfig = field(default_factory=TrainConfig)
    net_spec: Optional[NetSpec] = None  # default: cifarnet sized to the window
    forest_negatives_per_frame: int = 20
    proposal_filter_avg: float = 3.0
    seed: int = 0

    def __post_init__(self):
        _check_proposal_budget(self.proposal_filter_avg)


def _labelled_boxes(images, frames, proposals, policy: LabelingPolicy, negative_candidates):
    """Per image, in order, (image, positives, negatives) by
    label_proposals: the proposals it labels positive, then the GT boxes;
    those of negative_candidates(image, annotation, proposal boxes) it
    labels negative.  Annotations and proposals are looked up by frame id;
    a repeated image or annotation id, or one they lack, is a CascadeError
    before any frame is labelled."""
    anns = _per_frame(images, _by_id((f.frame_id, f) for f in frames), "annotation")
    per_image = _per_frame(images, proposals, "proposals")
    out = []
    for (_, img), ann, props in zip(images, anns, per_image):
        boxes = [d.box for d in props]
        labs = label_proposals(boxes, ann.gt_boxes, policy)
        pos = [b for b, l in zip(boxes, labs) if l == LABEL_POS] + list(ann.gt_boxes)
        cand = negative_candidates(img, ann, boxes)
        labs = label_proposals(cand, ann.gt_boxes, policy)
        out.append((img, pos, [b for b, l in zip(cand, labs) if l == LABEL_NEG]))
    return out


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


def train_proposal_forest(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    cfg: CascadeTrainConfig,
) -> ForestModel:
    """The proposal forest: cfg.n_trees boosting rounds over the default
    candidate rectangles, on a pool drawn with a generator seeded by
    cfg.seed.  Its negative candidates are cfg.forest_negatives_per_frame
    random boxes and three jittered copies of each GT box per frame; each
    window's channel stack is built when train_forest reads it, integrals at
    the rectangles' pitch.  A pool with an empty class is a CascadeError."""
    rng = np.random.default_rng(cfg.seed)

    def candidates(img, ann, _):
        hw = (img.height, img.width)
        return (random_boxes(cfg.forest_negatives_per_frame, hw, rng, cfg.geometry,
                             min_height=int(cfg.sliding.min_height))
                + jittered_negatives(ann.gt_boxes, 3, hw, rng, cfg.policy))

    pool = _labelled_boxes(images, frames, {fid: () for fid, _ in images}, cfg.policy,
                           candidates)
    rects = default_candidate_rects(cfg.channel_cfg, cfg.geometry.window)
    pitch = region_pitch(rects)
    pos = _WindowStacks([(img, p) for img, p, _ in pool], cfg, pitch)
    neg = _WindowStacks([(img, n) for img, _, n in pool], cfg, pitch)
    if not pos or not neg:
        raise CascadeError("training frames yielded an empty class")
    return train_forest(pos, neg, cfg.n_trees, rects, cfg.channel_cfg, cfg.geometry.window)


def rescorer_training_pool(images, frames, proposals, cfg: CascadeTrainConfig, rng):
    """The second stage's pool: an (n, H, W[, 3]) array of image-layout
    windows and their (n,) 0/1 labels, frame by frame, positives first.  The
    negative candidates are the proposals, or with neg_source "random"
    len(proposals) + 4 random boxes per frame.  A single-class pool is a
    CascadeError."""
    geom = cfg.net_geometry or cfg.geometry

    def candidates(img, ann, boxes):
        if cfg.policy.neg_source == "random":
            return random_boxes(len(boxes) + 4, (img.height, img.width), rng, geom,
                                min_height=int(cfg.sliding.min_height))
        return boxes

    pool = _labelled_boxes(images, frames, proposals, cfg.policy, candidates)
    labels = np.array([lab for _, pos, neg in pool for lab in [1] * len(pos) + [0] * len(neg)])
    if labels.all() or not labels.any():
        raise CascadeError("rescorer pool is single-class; adjust the policy")
    return np.stack([extract_window(img, b, geom) for img, pos, neg in pool
                     for b in pos + neg]), labels


def train_net_rescorer(windows, labels, cfg: CascadeTrainConfig) -> NetRescorer:
    """Fit cfg.net_spec (default: cifarnet sized to the windows) on a labeled
    pool of image-layout window rows, centred by the pool's mean."""
    input_mean = float(np.mean([w.mean() for w in windows]))
    net_windows = _net_layout(windows) - input_mean
    spec = cfg.net_spec or default_cifarnet(input_channels=net_windows.shape[1],
                                            input_hw=net_windows.shape[2:])
    model = NetModel(spec, seed=cfg.seed, init_sigma=cfg.net_train.init_sigma,
                     first_layer_sigma=cfg.net_train.first_layer_sigma)
    sampler = BatchSampler(net_windows, labels, cfg.net_train.batch, cfg.ratio, seed=cfg.seed)
    sgd_train(model, sampler, cfg.net_train)
    return NetRescorer(model, input_mean=input_mean)


def train_svm_head(rescorer: NetRescorer, windows, labels, cfg: SvmConfig) -> NetRescorer:
    """Fit a linear SVM on the trained net's cfg.feature_layer features of a
    labeled pool: the net and its input mean with that linear head."""
    phi = rescorer.model.features(_net_layout(windows) - rescorer.input_mean,
                                  cfg.feature_layer)
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    w, b = train_svm(phi, y, cfg)
    return NetRescorer(rescorer.model, rescorer.input_mean, w, b, cfg.feature_layer)


def train_rescorer(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    proposals: Mapping[str, Sequence[Detection]],
    cfg: CascadeTrainConfig,
) -> NetRescorer:
    """The second-stage net: rescorer_training_pool on the proposals, drawn
    with a generator seeded by cfg.seed, then train_net_rescorer.  An SVM
    head on it is train_svm_head's."""
    rng = np.random.default_rng(cfg.seed)
    windows, labels = rescorer_training_pool(images, frames, proposals, cfg, rng)
    return train_net_rescorer(windows, labels, cfg)


def save_rescorer(rescorer: NetRescorer, path) -> None:
    """Write a NetRescorer as one net file: the weights, plus the input mean
    and any linear head in its JSON header."""
    header = {"input_mean": rescorer.input_mean}
    if rescorer.w is not None:
        header.update(feature_layer=rescorer.feature_layer, w=rescorer.w.tolist(),
                      b=rescorer.b)
    save_net(rescorer.model, path, header)


def load_rescorer(path) -> NetRescorer:
    """The NetRescorer in a net file, with its linear head if it has one; a
    header without an input mean loads as mean 0.0.  A non-finite input
    mean or head is a ValueError naming the file."""
    model, header = read_net(path)
    if model.spec.layers[-1:] != [SoftmaxSpec()] or model.spec.shapes()[-1] != (2,):
        raise ValueError(f"{path}: a rescorer net must end in a 2-class softmax")
    mean = header.get("input_mean", 0.0)
    if not math.isfinite(mean):
        raise ValueError(f"{path}: non-finite input mean {mean!r}")
    if "w" not in header:
        return NetRescorer(model, mean)
    layer = header["feature_layer"]
    shape = model.spec.shapes()[model.layer_names.index(layer)]
    if len(header["w"]) != int(np.prod(shape)):
        raise ValueError(f"{path}: SVM head does not fit the {layer} features {shape}")
    head = NetRescorer(model, mean, header["w"], header["b"], layer)
    if not (np.all(np.isfinite(head.w)) and math.isfinite(head.b)):
        raise ValueError(f"{path}: the SVM head holds a non-finite value")
    return head


def train_cascade(
    images: Sequence[Tuple[str, Image]],
    frames: Sequence[FrameAnnotation],
    cfg: CascadeTrainConfig,
) -> CascadeConfig:
    """The three training stages in turn: train_proposal_forest, propose
    over the training frames, train_rescorer on those proposals; assembled
    into the cascade.  Annotations are looked up by frame id; a repeated
    image or annotation id, or an image id they lack, is a CascadeError
    before anything is fitted.  A proposals-only cascade is
    CascadeConfig(train_proposal_forest(...), None, ...)."""
    forest = train_proposal_forest(images, frames, cfg)
    _, proposals = propose(images, forest, cfg.sliding, cfg.proposal_filter_avg)
    rescorer = train_rescorer(images, frames, proposals, cfg)
    return CascadeConfig(
        proposal_model=forest, rescorer=rescorer,
        proposal_filter_avg=cfg.proposal_filter_avg,
        sliding=cfg.sliding, geometry=cfg.net_geometry or cfg.geometry,
    )
