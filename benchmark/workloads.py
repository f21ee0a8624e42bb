"""Workloads, set-up and correctness gates of the pedcascade benchmark.

Every call into the library goes through a module attribute
(``forest.detect``, ``cascade.run_cascade``, ...) so that the tracer in
``spans.py`` sees it.  All load is closed-loop from one caller: the next
operation starts when the previous one returns.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from pedcascade import cascade, evaluate, forest, forest2nn
from pedcascade.convnet import TrainConfig, default_cifarnet
from pedcascade.data import BatchRatio, LabelingPolicy, WindowGeometry, detections_to_json
from pedcascade.forest import SlidingWindowConfig, forest_to_json
from pedcascade.synth import SynthSpec, synth_dataset

from spans import Tracer

PROPOSAL_BUDGET = 3.0
EQUIVALENCE_SAMPLES = 2000
EQUIVALENCE_TOL = 1e-9


# Synthetic frames: 1-2 pedestrians and 3 distractors per frame on average.
# Pixel noise of 0.2 keeps the forest's training set from being separable by
# one depth-2 tree; at the library's default of 0.01 AdaBoost stops after
# 1-5 trees on most seeds, and a run with an early-stopped forest fails.
PEDS_PER_FRAME = (1, 2)
CLUTTER = 3.0
NOISE = 0.2
FOREST_NEGATIVES_PER_FRAME = 10


@dataclass(frozen=True)
class Scale:
    """Input sizes and model settings shared by set-up and every workload."""

    image_hw: Tuple[int, int] = (144, 192)
    height_range: Tuple[float, float] = (64.0, 100.0)
    train_frames: int = 100
    test_frames: int = 96
    n_trees: int = 32
    net_epochs: int = 6
    net_extra_epochs: int = 1
    net_filters: Tuple[int, int, int] = (8, 8, 16)
    net_fc_units: int = 16
    geometry: WindowGeometry = field(default_factory=WindowGeometry)
    net_geometry: WindowGeometry = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))
    # detect-default: the library-default sliding config
    detect_sliding: SlidingWindowConfig = field(default_factory=SlidingWindowConfig)
    # training and test-set cascades: the acceptance config, every window
    # materialised
    dense_sliding: SlidingWindowConfig = SlidingWindowConfig(
        stride=8, scale_step=2 ** 0.25, min_height=60, score_threshold=-1e9)


def train_config(scale: Scale) -> cascade.CascadeTrainConfig:
    """The criterion-7 cascade training config at this scale."""
    return cascade.CascadeTrainConfig(
        n_trees=scale.n_trees,
        sliding=scale.dense_sliding,
        geometry=scale.geometry,
        policy=LabelingPolicy(positive_source="gt+proposals", pos_iou=0.5),
        net_geometry=scale.net_geometry,
        net_spec=default_cifarnet(input_hw=scale.net_geometry.window,
                                  conv_filters=scale.net_filters, conv_kernels=(5, 5, 5),
                                  fc_units=scale.net_fc_units),
        ratio=BatchRatio(1, 5),
        forest_negatives_per_frame=FOREST_NEGATIVES_PER_FRAME,
        seed=0,
        net_train=TrainConfig(batch=60, lr=0.01, epochs=scale.net_epochs,
                              extra_epochs=scale.net_extra_epochs, weight_decay=1e-4,
                              final_layer_decay=1.0, init_sigma=0.1,
                              first_layer_sigma=0.1, seed=0),
    )


def cascade_config(scale: Scale, casc: cascade.CascadeConfig) -> cascade.CascadeConfig:
    """A trained cascade run at the acceptance sliding config."""
    return cascade.CascadeConfig(
        proposal_model=casc.proposal_model, rescorer=casc.rescorer,
        proposal_filter_avg=PROPOSAL_BUDGET, sliding=scale.dense_sliding,
        geometry=scale.net_geometry,
    )


def synth_inputs(scale: Scale, seed: int):
    """Seeded training and held-out test sets, each as ((id, image) pairs,
    annotations)."""
    out = []
    sizes = (scale.train_frames, scale.test_frames)
    for n, s in zip(sizes, np.random.SeedSequence(seed).generate_state(2)):
        spec = SynthSpec(n_frames=n, image_hw=scale.image_hw, peds_per_frame=PEDS_PER_FRAME,
                         height_range=scale.height_range, clutter=CLUTTER, noise=NOISE)
        images, frames = synth_dataset(spec, seed=int(s))
        out.append(([(f.frame_id, img) for f, img in zip(frames, images)], frames))
    return out


def dets_bytes(per_frame) -> bytes:
    return json.dumps(detections_to_json(per_frame), sort_keys=True).encode()


def model_bytes(casc: cascade.CascadeConfig) -> bytes:
    """Forest JSON, net weights and the rescorer's input mean."""
    rescorer = casc.rescorer
    parts = [json.dumps(forest_to_json(casc.proposal_model), sort_keys=True).encode(),
             repr(rescorer.input_mean).encode()]
    parts.extend(p.tobytes() for _, layer in rescorer.model.param_layers()
                 for p in layer.params)
    return b"\0".join(parts)


def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at least
    ten samples above it.  With fewer than twenty samples that percentile
    lies below the median, so the maximum (percentile 100) is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    pct = math.floor(100.0 * (n - 10) / n)
    return float(pct), xs[math.ceil(pct / 100.0 * n) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Setup:
    scale: Scale
    train_pairs: list
    train_frames: list
    test_pairs: list
    test_frames: list
    cascade: Optional[cascade.CascadeConfig]
    setup_s: float
    train_s: Optional[float]


SYNTH_REPEATS = 5


def set_up(scale: Scale, seed: int, train: bool) -> Setup:
    """Synthesise the frames and, with `train`, train one cascade; the whole
    step is setup_s.  Without training, set-up is short, so the synthesis is
    repeated and setup_s is its median time."""
    t0 = time.perf_counter()
    (train_pairs, train_frames), (test_pairs, test_frames) = synth_inputs(scale, seed)
    t1 = time.perf_counter()
    if not train:
        times = [t1 - t0]
        for _ in range(SYNTH_REPEATS - 1):
            t = time.perf_counter()
            synth_inputs(scale, seed)
            times.append(time.perf_counter() - t)
        return Setup(scale, train_pairs, train_frames, test_pairs, test_frames,
                     None, float(np.median(times)), None)
    casc = cascade.train_cascade(train_pairs, train_frames, train_config(scale))
    t2 = time.perf_counter()
    return Setup(scale, train_pairs, train_frames, test_pairs, test_frames,
                 casc, t2 - t0, t2 - t1)


class Gate:
    """Named correctness checks; a run is correct when every check holds."""

    def __init__(self):
        self.checks: Dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def equivalence_check(casc: cascade.CascadeConfig, gate: Gate) -> None:
    """The compiled net must reproduce the setup forest exactly."""
    model = casc.proposal_model
    try:
        rep = forest2nn.verify_equivalence(model, forest2nn.compile_forest(model),
                                           samples=EQUIVALENCE_SAMPLES)
        ok = rep.decision_mismatches == 0 and rep.max_score_diff <= EQUIVALENCE_TOL
    except forest2nn.EquivalenceError:
        ok = False
    gate.check("forest2nn_equivalence", ok)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A closed loop of one operation over a fixed, cyclic list of inputs."""

    name = ""
    # whether a trace-off run also repeats one operation traced to compare
    cross_check_op = True
    # whether set-up trains the cascade the operations use
    trains_in_setup = True

    def __init__(self, st: Setup):
        self.st = st
        self.reports: List[Tuple[cascade.TimingReport, int]] = []  # (report, images)

    def inputs(self) -> list:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def images(self, x) -> int:
        """Images one operation on `x` processes."""
        raise NotImplementedError

    def key(self, x, out) -> bytes:
        """Bytes compared between repeats, and between traced and untraced
        operations on the same input."""
        raise NotImplementedError

    def evaluate(self, first: list, counts: Dict[str, int]) -> Dict[str, list]:
        """The step after the loop, part of the workload: per-frame test-set
        detections of the first pass, scored for accuracy.  It counts the
        operation it runs; a result with no detections on frames that hold
        ground truth counts as a failed operation."""
        raise NotImplementedError

    def eval_images(self) -> int:
        """Images `evaluate` processes that the loop did not."""
        raise NotImplementedError


class DetectDefault(Workload):
    """forest.detect per test frame at the library-default sliding config,
    then one global filter_proposals to the 3.0 budget."""

    name = "detect-default"

    def inputs(self):
        return list(self.st.test_pairs)

    def op(self, x):
        return forest.detect(x[1], self.st.cascade.proposal_model, self.st.scale.detect_sliding)

    def images(self, x):
        return 1

    def key(self, x, out):
        return dets_bytes({x[0]: out})

    def evaluate(self, first, counts):
        counts["attempted"] += 1
        _, kept = forest.filter_proposals(first, PROPOSAL_BUDGET)
        if _has_gt(self.st.test_frames) and not any(kept):
            counts["failed"] += 1
        return {fid: k for (fid, _), k in zip(self.st.test_pairs, kept)}

    def eval_images(self):
        return 0  # the filter reads the loop's detections


class Train(Workload):
    """One train_cascade call on the training frames per operation; after the
    loop the trained cascade runs once over the test frames (run_cascade at
    the acceptance config), which is part of the workload."""

    name = "train"
    cross_check_op = False  # an operation is a whole training run
    trains_in_setup = False  # training is the operation; set-up only synthesises

    def inputs(self):
        return [train_config(self.st.scale)]

    def op(self, x):
        return cascade.train_cascade(self.st.train_pairs, self.st.train_frames, x)

    def images(self, x):
        return len(self.st.train_pairs)

    def key(self, x, out):
        return model_bytes(out)

    def evaluate(self, first, counts):
        counts["attempted"] += 1
        out, report = cascade.run_cascade(self.st.test_pairs,
                                          cascade_config(self.st.scale, first[0]))
        self.reports.append((report, len(self.st.test_pairs)))
        if _has_gt(self.st.test_frames) and not any(out.values()):
            counts["failed"] += 1
        return out

    def eval_images(self):
        return len(self.st.test_pairs)


WORKLOADS = {w.name: w for w in (DetectDefault, Train)}


def _has_gt(frames) -> bool:
    return any(f.gt_boxes for f in frames)


def accuracy(per_frame: Dict[str, list], frames) -> Tuple[float, float, float]:
    """(LAMR, recall at IoU 0.5, mean detections per image)."""
    _, lamr = evaluate.lamr(per_frame, frames)
    rc = evaluate.recall_vs_iou(per_frame, frames, thresholds=[0.5])
    return lamr, float(rc.y[0]), float(rc.meta["avg_proposals_per_image"])


# ---------------------------------------------------------------------------
# the run

def _timed(wl: Workload, x, counts) -> Tuple[float, object]:
    """(seconds, output); output is None when the operation raised."""
    counts["attempted"] += 1
    t0 = time.perf_counter()
    try:
        out = wl.op(x)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        counts["failed"] += 1
        return time.perf_counter() - t0, None
    return time.perf_counter() - t0, out


@dataclass
class Loop:
    """What the closed loop measured."""

    untraced: List[float] = field(default_factory=list)  # seconds per operation
    images: List[int] = field(default_factory=list)  # images per untraced operation
    traced: List[float] = field(default_factory=list)
    wall: float = 0.0
    covered: float = 0.0  # traced seconds inside top-level spans
    # span index range and tracer counts of the loop and the step after it
    spans: Tuple[int, int] = (0, 0)
    start_counts: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def close(self, tracer: Tracer) -> None:
        """End the loop's span range and counts at the tracer's present state."""
        self.spans = (self.spans[0], len(tracer.spans))
        self.counts = {k: v - self.start_counts.get(k, 0.0) for k, v in tracer.counts.items()}


def closed_loop(wl: Workload, seconds: float, tracer: Optional[Tracer], gate: Gate,
                counts: Dict[str, int]) -> Tuple[Loop, list]:
    """Run operations back to back for `seconds` and at least one pass over
    the inputs.  With a tracer, every operation is run untraced and then
    traced on the same input, and the two outputs are compared.  Returns the
    measurements and the first output for each input."""
    inputs = wl.inputs()
    first: list = [None] * len(inputs)
    keys: list = [None] * len(inputs)
    loop = Loop()
    if tracer is not None:
        loop.spans = (len(tracer.spans), len(tracer.spans))
        loop.start_counts = dict(tracer.counts)
    t_start = time.perf_counter()
    i = 0
    while i < len(inputs) or time.perf_counter() - t_start < seconds:
        j = i % len(inputs)
        x = inputs[j]
        dt, out = _timed(wl, x, counts)
        loop.untraced.append(dt)
        loop.images.append(wl.images(x))
        if out is not None:
            k = wl.key(x, out)
            if keys[j] is None:
                keys[j], first[j] = k, out
            gate.check("repeats_identical", k == keys[j])
        if tracer is not None:
            mark = len(tracer.spans)
            with tracer.installed():
                tdt, tout = _timed(wl, x, counts)
            loop.traced.append(tdt)
            loop.covered += tracer.covered(mark)
            if out is not None and tout is not None:
                gate.check("traced_equals_untraced", wl.key(x, tout) == keys[j])
        i += 1
    loop.wall = time.perf_counter() - t_start
    return loop, first


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Optional[Scale] = None) -> Tuple[dict, dict]:
    """Set up, run one workload for `seconds` and check it.

    Returns (result, record): result holds correct, attempted, failed and the
    metrics (end-to-end without trace, per-layer with it); record holds the
    run's details for the log.
    """
    scale = scale or Scale()
    st = set_up(scale, seed, train=WORKLOADS[workload].trains_in_setup)
    wl = WORKLOADS[workload](st)
    gate = Gate()
    counts = {"attempted": 0, "failed": 0}
    tracer = Tracer() if trace else None
    traced_ctx = tracer.installed if trace else nullcontext
    if tracer is not None and st.cascade is not None:
        tracer.name_layers(st.cascade.rescorer.model)

    loop, first = closed_loop(wl, seconds, tracer, gate, counts)
    gate.check("every_input_succeeded", all(f is not None for f in first))
    if not gate.ok:
        return ({"correct": False, "attempted": counts["attempted"],
                 "failed": counts["failed"], "metrics": {}},
                {"workload": workload, "seed": seed, "gates": gate.checks})
    t0 = time.perf_counter()
    with traced_ctx():
        per_frame = wl.evaluate(first, counts)
    eval_s = time.perf_counter() - t0
    if tracer is not None:
        loop.close(tracer)
    casc = st.cascade if st.cascade is not None else first[0]
    gate.check("forest_not_early_stopped", not casc.proposal_model.early_stop
               and len(casc.proposal_model.trees) == st.scale.n_trees)
    with traced_ctx():
        equivalence_check(casc, gate)
    if tracer is None:
        # the loop ran untraced: repeat the evaluation, and one operation
        # where that is cheap, with tracing on and compare the bytes
        check = Tracer()
        with check.installed():
            again = wl.evaluate(first, {"attempted": 0, "failed": 0})
            ok = dets_bytes(again) == dets_bytes(per_frame)
            if wl.cross_check_op:
                x = wl.inputs()[0]
                ok &= wl.key(x, wl.op(x)) == wl.key(x, first[0])
        gate.check("traced_equals_untraced", ok)
    with traced_ctx():
        lamr, recall, avg_dets = accuracy(per_frame, st.test_frames)
    gate.check("proposal_budget", avg_dets <= PROPOSAL_BUDGET)
    for rep, n in wl.reports:
        gate.check("timing_report_consistent", rep.consistent(n))
        gate.check("proposal_budget", rep.windows_scored <= PROPOSAL_BUDGET * n)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "operations": len(loop.untraced) + len(loop.traced),
        "forest_trees": len(casc.proposal_model.trees),
        "forest_early_stop": casc.proposal_model.early_stop,
        "gates": gate.checks,
    }
    if tracer is not None:
        record["site_calls"] = dict(tracer.site_calls)
        metrics = layer_metrics(tracer, loop, casc, counts)
        metrics["lamr"] = (lamr, "ratio")
    else:
        per_image_ms = [s / n * 1e3 for s, n in zip(loop.untraced, loop.images)]
        pct, tail = tail_percentile(per_image_ms)
        record.update({"image_ms.tail_percentile": pct, "image_ms.samples": len(per_image_ms)})
        metrics = {
            "setup_s": (st.setup_s, "s"),
            "image_ms.p50": (float(np.median(per_image_ms)), "ms"),
            "image_ms.tail": (tail, "ms"),
            "images_per_s": ((sum(loop.images) + wl.eval_images()) / (loop.wall + eval_s),
                             "1/s"),
            "train_s": (float(np.median(loop.untraced)) if isinstance(wl, Train)
                        else st.train_s, "s"),
            "recall.iou0.5": (recall, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    result = {
        "correct": gate.ok,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


# ---------------------------------------------------------------------------
# per-layer metrics

# self-time spans reported per operation of the loop
LOOP_SPANS = [
    "imageops.bilinear_resize", "channels.compute_channels", "channels.rgb_to_luv",
    "channels.gradient_channels", "channels.integral_image",
    "forest.score_window_grid", "forest.detect", "geometry.nms.detect",
    "geometry.nms.final", "forest.filter_proposals", "forest.train_forest",
    "forest.compute_feature_matrix", "data.extract_window",
    "data.BatchSampler.next_batch", "convnet.loss_and_grads", "convnet.sgd_train",
    "cascade.run_cascade", "cascade.rescore",
]
# spans of calls made once per run, outside the loop
ONCE_SPANS = ["forest2nn.verify_equivalence", "evaluate.lamr"]
NET_LAYERS = ["conv1", "conv2", "conv3", "pool1", "pool2", "pool3",
              "relu1", "relu2", "relu3", "fc1", "fc2"]
LOOP_COUNTS = [
    "imageops.pyramid_levels", "forest.windows_scanned",
    "forest.windows_above_threshold", "forest.windows_after_nms",
    "forest.proposals_kept", "convnet.batches", "cascade.windows_rescored",
    "cascade.detections_final",
]


def layer_metrics(tracer: Tracer, loop: Loop, casc: cascade.CascadeConfig, counts) -> dict:
    """Per-layer numbers of the traced operations, each per operation."""
    n_ops = len(loop.traced)
    lo, hi = loop.spans
    in_loop = tracer.self_times(lo, hi)
    whole = tracer.self_times()
    c = loop.counts
    m = {f"{name}.self_s": (in_loop.get(name, 0.0) / n_ops, "s") for name in LOOP_SPANS}
    for layer in NET_LAYERS:
        for suffix in ("fwd", "bwd"):
            m[f"convnet.{layer}.{suffix}_s"] = (
                in_loop.get(f"convnet.{layer}.{suffix}", 0.0) / n_ops, "s")
    for name in ONCE_SPANS:
        m[f"{name}.self_s"] = (whole.get(name, 0.0), "s")
    for name in LOOP_COUNTS:
        m[name] = (c.get(name, 0.0) / n_ops, "count")
    m["forest.nms_keep_ratio"] = (
        _ratio(c.get("forest.windows_after_nms", 0.0), c.get("forest.windows_above_threshold", 0.0)),
        "ratio")
    m["forest.filter_keep_ratio"] = (
        _ratio(c.get("forest.proposals_kept", 0.0), c.get("forest.proposals_in", 0.0)), "ratio")
    m["forest.trees"] = (float(len(casc.proposal_model.trees)), "count")
    traced_s = sum(loop.traced)
    m["trace.unattributed_frac"] = (1.0 - loop.covered / traced_s, "ratio")
    m["trace.overhead_frac"] = (traced_s / sum(loop.untraced) - 1.0, "ratio")
    m["failed_frac"] = (counts["failed"] / counts["attempted"], "ratio")
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
