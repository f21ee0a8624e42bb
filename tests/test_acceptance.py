"""Acceptance gate: ten criteria, one test (and one pass/fail line) each.

Criteria 1-6 and 9-10 are oracle/property checks with pinned tolerances and
runtime budgets.  Criteria 7 and 8 are directional end-to-end experiments on
a fixed-seed synthetic dataset and share one trained pipeline through a
module-scoped fixture.
"""

import itertools
import json
import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from pedcascade.cascade import (
    CascadeTrainConfig,
    propose,
    rescore,
    train_proposal_forest,
    train_rescorer,
)
from pedcascade.channels import ChannelStack
from pedcascade.cli import EXIT_OK, cli_dispatch
from pedcascade.convnet import (
    ConvSpec,
    FCSpec,
    NetModel,
    NetSpec,
    PoolSpec,
    ReLUSpec,
    SigmoidSpec,
    SoftmaxSpec,
    TrainConfig,
    save_net,
    sgd_train,
)
from pedcascade.data import (
    BatchRatio,
    BatchSampler,
    LabelingPolicy,
    WindowGeometry,
)
from pedcascade.evaluate import average_precision, lamr, recall_vs_iou
from pedcascade.forest import (
    SlidingWindowConfig,
    detect,
    forest_to_json,
)
from pedcascade.forest2nn import compile_forest, verify_equivalence
from pedcascade.geometry import Box, Detection, match_detections
from pedcascade.imageops import write_pnm
from pedcascade.synth import SynthSpec, synth_dataset

from test_channels import rect_sum
from test_convnet import check_param_grads
from test_evaluate import random_instance, ref_ap, ref_lamr, ref_match
from test_forest2nn import leaf_by_traversal, random_forest
from test_geometry import brute_nms, nms_detections

from scipy import stats


def _verdict(n, ok, detail):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. forest -> net compilation is exact

def test_criterion_01_forest_to_net_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(20):
        n_trees = int(rng.integers(1, 257))
        model = random_forest(rng, n_trees)
        net = compile_forest(model)
        rep = verify_equivalence(model, net, samples=10_000, seed=k)
        assert rep.decision_mismatches == 0
        worst = max(worst, rep.max_score_diff)
    elapsed = time.time() - t0
    _verdict(1, worst <= 1e-9 and elapsed < 120,
             f"20 forests x 1e4 windows, 0 mismatches, "
             f"max score diff {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. leaf-indicator truth table, exhaustively

def test_criterion_02_leaf_indicator_table():
    from pedcascade.forest2nn import _LEAF_BIASES, _LEAF_WEIGHTS

    ok = True
    for d0, d1, d2 in itertools.product([0, 1], repeat=3):
        z = np.array([d0, d1, d2], dtype=np.float64)
        pre = _LEAF_WEIGHTS @ z + _LEAF_BIASES
        fired = (pre > 0).astype(int)
        ok &= fired.sum() == 1
        ok &= int(np.argmax(fired)) == leaf_by_traversal(d0, d1, d2)
    _verdict(2, ok, "all 8 decision combinations one-hot, matching traversal")


# ---------------------------------------------------------------------------
# 3. gradient correctness for every layer type and the composed net

def test_criterion_03_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(103)
    cfg = TrainConfig(weight_decay=0.01, final_layer_decay=2.0)
    checked = 0

    per_layer = [
        NetSpec((2, 8, 8), [ConvSpec(4, 3), FCSpec(2), SoftmaxSpec()]),
        NetSpec((2, 9, 9), [PoolSpec("max"), FCSpec(2), SoftmaxSpec()]),
        NetSpec((2, 9, 9), [PoolSpec("mean"), FCSpec(2), SoftmaxSpec()]),
        NetSpec((6,), [FCSpec(5), ReLUSpec(), FCSpec(2), SoftmaxSpec()]),
        NetSpec((6,), [FCSpec(5), SigmoidSpec(), FCSpec(2), SoftmaxSpec()]),
    ]
    # composed default architecture at reduced width so the finite-difference
    # sweep stays inside the runtime budget
    composed = NetSpec(
        (3, 32, 16),
        [ConvSpec(4, 5), PoolSpec("max"), ReLUSpec(),
         ConvSpec(4, 5), ReLUSpec(), PoolSpec("mean"),
         ConvSpec(6, 5), ReLUSpec(), PoolSpec("mean"),
         FCSpec(8), ReLUSpec(), FCSpec(2), SoftmaxSpec()],
    )
    for spec in per_layer + [composed]:
        model = NetModel(spec, seed=7, init_sigma=0.3, first_layer_sigma=0.3)
        x = rng.normal(size=(3,) + spec.input_shape)
        labels = rng.integers(0, 2, size=3)
        checked += check_param_grads(model, x, labels, cfg, rng,
                                     samples_per_tensor=150, tol=1e-4)
    elapsed = time.time() - t0
    _verdict(3, checked >= 1000 and elapsed < 60,
             f"{checked} sampled weights, rel err <= 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. metric implementations agree with brute-force references

def test_criterion_04_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(104)
    for _ in range(100):
        dets, ann = random_instance(rng)

        got = ref_lamr(dets, ann)
        _, fast = lamr(dets, ann)
        assert abs(got - fast) <= 1e-9

        assert abs(ref_ap(dets, ann) - average_precision(dets, ann)[1]) <= 1e-9

        flat = [d for ds in dets.values() for d in ds]
        assert nms_detections(flat, 0.5) == brute_nms(flat, 0.5)

        a = ann[0]
        frame_dets = dets[a.frame_id]
        res = match_detections(frame_dets, a.gt_boxes, a.ignore_boxes, 0.5)
        tp_ref, fp_ref = ref_match(frame_dets, a.gt_boxes, a.ignore_boxes, 0.5)
        assert sorted(i for i, _ in res.pairs) == sorted(tp_ref)
        assert sorted(res.unmatched_detections) == sorted(fp_ref)

        planes = [rng.random((12, 15)) for _ in range(2)]
        stack = ChannelStack(planes)
        x, y = int(rng.integers(0, 10)), int(rng.integers(0, 8))
        w, h = int(rng.integers(1, 15 - x + 1)), int(rng.integers(1, 12 - y + 1))
        direct = planes[1][y:y + h, x:x + w].sum()
        assert abs(rect_sum(stack, 1, Box(x, y, w, h)) - direct) <= 1e-9
    elapsed = time.time() - t0
    _verdict(4, elapsed < 60,
             f"lamr/ap/nms/match/rect_sum vs references on 100 instances "
             f"to 1e-9, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. protocol invariants

def _instance_with_fppi_zero(rng):
    """Random instance plus one exact top-scored hit per GT-bearing frame, so
    the standard curve always reaches FPPI 0 (precondition for delta >= 0)."""
    dets, ann = random_instance(rng)
    for a in ann:
        if a.gt_boxes:
            dets[a.frame_id] = list(dets[a.frame_id]) + [
                Detection(a.gt_boxes[0], float(rng.uniform(2, 3)))
            ]
    return dets, ann


def test_criterion_05_protocol_invariants():
    from pedcascade.channels import gradient_channels
    from pedcascade.evaluate import touching_fp_analysis

    rng = np.random.default_rng(105)
    transforms = [lambda s: 2.0 * s + 1.0, lambda s: s ** 3, np.exp]
    ok = True
    for _ in range(10):
        dets, ann = random_instance(rng)
        _, base = lamr(dets, ann)
        for f in transforms:
            mapped = {
                fid: [Detection(d.box, float(f(d.score))) for d in ds]
                for fid, ds in dets.items()
            }
            _, got = lamr(mapped, ann)
            ok &= abs(got - base) <= 1e-12

    deltas = []
    for _ in range(25):
        dets, ann = _instance_with_fppi_zero(rng)
        _, _, delta = touching_fp_analysis(dets, ann)
        deltas.append(delta)
    ok &= min(deltas) >= 0.0

    lum = rng.random((40, 30))
    mag, oriented = gradient_channels(lum, 6)
    conservation = float(np.max(np.abs(np.sum(oriented, axis=0) - mag)))
    ok &= conservation <= 1e-9
    _verdict(5, ok,
             f"lamr invariant under 3 monotone transforms, "
             f"min touching-FP delta {min(deltas):.4f} >= 0, "
             f"binning conservation {conservation:.1e}")


# ---------------------------------------------------------------------------
# 6. batch-ratio contract

def test_criterion_06_batch_ratio():
    rng = np.random.default_rng(106)
    wins = [np.float64(v) for v in rng.random(300)]
    labels = [1] * 60 + [0] * 240

    sampler = BatchSampler(wins, labels, batch=60, ratio=BatchRatio(1, 5), seed=0)
    exact = all(
        int(np.sum(sampler.next_batch()[1] == 1)) == 10 for _ in range(10_000)
    )

    # unratioed sampling: per-batch positive counts should look Binomial(40, p)
    pool_p = 0.2
    free = BatchSampler(wins, labels, batch=40, ratio=None, seed=1)
    counts = np.array([int(free.next_batch()[1].sum()) for _ in range(2000)])
    lo, hi = 3, 14  # ~99.9% of Binomial(40, 0.2) mass, tails folded in
    observed = np.zeros(hi - lo + 1)
    for c in counts:
        observed[min(max(c, lo), hi) - lo] += 1
    pmf = stats.binom.pmf(np.arange(lo, hi + 1), 40, pool_p)
    pmf[0] += stats.binom.cdf(lo - 1, 40, pool_p)
    pmf[-1] += stats.binom.sf(hi, 40, pool_p)
    chi2 = float(np.sum((observed - 2000 * pmf) ** 2 / (2000 * pmf)))
    crit = float(stats.chi2.ppf(0.999, df=len(observed) - 1))
    _verdict(6, exact and chi2 < crit,
             f"1e4 batches exactly 10/50; chi2 {chi2:.1f} < {crit:.1f} "
             f"for ratio=None")


# ---------------------------------------------------------------------------
# 7/8. end-to-end synthetic experiments (shared pipeline)

SLIDING = SlidingWindowConfig(stride=8, scale_step=2 ** 0.25, min_height=60,
                              score_threshold=-1e9)
NET_GEOM = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))


def _train_config():
    return CascadeTrainConfig(
        n_trees=64,
        sliding=SLIDING,
        policy=LabelingPolicy(positive_source="gt+proposals", pos_iou=0.5),
        net_geometry=NET_GEOM,
        net_spec=None,
        ratio=BatchRatio(1, 5),
        forest_negatives_per_frame=10,
        seed=0,
        net_train=TrainConfig(batch=60, lr=0.01, epochs=60, extra_epochs=10,
                              weight_decay=1e-4, final_layer_decay=1.0,
                              init_sigma=0.1, first_layer_sigma=0.1, seed=0),
    )


def _cifarnet_small():
    from pedcascade.convnet import default_cifarnet

    return default_cifarnet(input_hw=NET_GEOM.window,
                            conv_filters=(8, 8, 16), conv_kernels=(5, 5, 5),
                            fc_units=16)


def _eval_rescorer(pipeline, rescorer):
    """The test frames' one proposal set, rescored by `rescorer` (None: the
    forest scores), and its LAMR."""
    dets = rescore(pipeline["test_pairs"], pipeline["test_props"], rescorer, NET_GEOM)
    _, mr = lamr(dets, pipeline["test_frames"])
    return dets, mr


@pytest.fixture(scope="module")
def pipeline():
    t0 = time.time()
    train_imgs, train_frames = synth_dataset(
        SynthSpec(n_frames=200, clutter=3.0), seed=10
    )
    test_imgs, test_frames = synth_dataset(
        SynthSpec(n_frames=100, clutter=3.0), seed=11
    )
    train_pairs = [(f.frame_id, i) for f, i in zip(train_frames, train_imgs)]
    test_pairs = [(f.frame_id, i) for f, i in zip(test_frames, test_imgs)]

    # train_cascade's three stages (tests/test_cascade.py pins the equality),
    # run here so the training proposals are kept for criterion 8
    cfg = _train_config()
    cfg = dc_replace(cfg, net_spec=_cifarnet_small())
    forest = train_proposal_forest(train_pairs, train_frames, cfg)
    _, train_props = propose(train_pairs, forest, SLIDING, cfg.proposal_filter_avg)
    rescorer = train_rescorer(train_pairs, train_frames, train_props, cfg)

    _, test_props = propose(test_pairs, forest, SLIDING, cfg.proposal_filter_avg)
    return {
        "rescorer": rescorer,
        "cfg": cfg,
        "train_pairs": train_pairs,
        "train_frames": train_frames,
        "train_props": train_props,
        "test_pairs": test_pairs,
        "test_props": test_props,
        "test_frames": test_frames,
        "train_seconds": time.time() - t0,
    }


def test_criterion_07_cascade_beats_proposals(pipeline):
    t0 = time.time()
    prop_dets, mr_prop = _eval_rescorer(pipeline, None)
    rc = recall_vs_iou(prop_dets, pipeline["test_frames"])
    recall = float(rc.y[0])
    avg_props = float(rc.meta["avg_proposals_per_image"])

    _, mr_casc = _eval_rescorer(pipeline, pipeline["rescorer"])
    elapsed = pipeline["train_seconds"] + (time.time() - t0)
    _verdict(7, mr_casc < mr_prop and recall >= 0.9 and avg_props <= 3.0
             and elapsed <= 900,
             f"cascade LAMR {mr_casc:.4f} < proposals {mr_prop:.4f}, "
             f"recall@0.5 {recall:.3f} at {avg_props:.2f} proposals/image, "
             f"{elapsed:.0f}s")


def test_criterion_08_random_negatives_are_worse(pipeline):
    t0 = time.time()
    cfg = pipeline["cfg"]
    # the fixture trained its rescorer on these proposals with this config:
    # the IoU-negative rescorer
    iou_rescorer = pipeline["rescorer"]
    rand_cfg = dc_replace(cfg, policy=dc_replace(cfg.policy, neg_source="random"))
    rand_rescorer = train_rescorer(
        pipeline["train_pairs"], pipeline["train_frames"],
        pipeline["train_props"], rand_cfg,
    )
    _, mr_iou = _eval_rescorer(pipeline, iou_rescorer)
    _, mr_rand = _eval_rescorer(pipeline, rand_rescorer)
    elapsed = time.time() - t0
    _verdict(8, mr_rand > mr_iou and elapsed <= 900,
             f"random-negative LAMR {mr_rand:.4f} > IoU<0.5 LAMR {mr_iou:.4f}, "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. determinism

def test_criterion_09_determinism(tmp_path, tiny_world, tiny_forest):
    from pedcascade.evaluate import lamr as _lamr

    pairs, frames = tiny_world
    imgs_a, frames_a = synth_dataset(SynthSpec(n_frames=3), seed=42)
    imgs_b, frames_b = synth_dataset(SynthSpec(n_frames=3), seed=42)
    ok = all(
        a.data.tobytes() == b.data.tobytes() for a, b in zip(imgs_a, imgs_b)
    ) and [f.gt_boxes for f in frames_a] == [f.gt_boxes for f in frames_b]

    ok &= forest_to_json(tiny_forest) == forest_to_json(tiny_forest)

    spec = NetSpec((4,), [FCSpec(6), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
    rng = np.random.default_rng(0)
    x = [rng.normal(size=(4,)) for _ in range(30)]
    y = [int(v) for v in rng.integers(0, 2, 30)]
    blobs = []
    for run_idx in range(2):
        model = NetModel(spec, seed=3, init_sigma=0.1, first_layer_sigma=0.1)
        sampler = BatchSampler(x, y, batch=10, ratio=None, seed=4)
        sgd_train(model, sampler, TrainConfig(batch=10, epochs=3, extra_epochs=1))
        path = tmp_path / f"net{run_idx}.bin"
        save_net(model, path)
        blobs.append(path.read_bytes())
    ok &= blobs[0] == blobs[1]

    sliding = SlidingWindowConfig(stride=4, scale_step=2 ** 0.5, min_height=18,
                                  score_threshold=-1e9)
    det_a = [detect(img, tiny_forest, sliding) for _, img in pairs[:3]]
    det_b = [detect(img, tiny_forest, sliding) for _, img in pairs[:3]]
    ok &= det_a == det_b

    dets = {fid: ds for (fid, _), ds in zip(pairs[:3], det_a)}
    curve_a, _ = _lamr(dets, frames[:3])
    curve_b, _ = _lamr(dets, frames[:3])
    ok &= curve_a.to_csv() == curve_b.to_csv()
    _verdict(9, ok, "synth, forest json, net bytes, detect, and lamr csv "
                    "identical across reruns")


# ---------------------------------------------------------------------------
# 10. timing report

def test_criterion_10_bench_report(tmp_path, tiny_world, tiny_forest, capsys):
    from pedcascade.forest import save_forest

    pairs, _ = tiny_world
    images_dir = tmp_path / "imgs"
    images_dir.mkdir()
    for fid, img in pairs[:3]:
        write_pnm(images_dir / f"{fid}.ppm", img)
    model_path = tmp_path / "forest.bin"
    save_forest(tiny_forest, model_path)

    code = cli_dispatch(["--out-dir", str(tmp_path), "bench",
                         "--images", str(images_dir), "--model", str(model_path)])
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "bench.json").read_text())
    fields = ["ms_per_window", "ms_per_image_proposals", "ms_per_image_total",
              "windows_scored"]
    ok = code == EXIT_OK and all(f in report for f in fields)
    ok &= "ms_per_window" in out and "internally_consistent True" in out
    component = (report["ms_per_image_proposals"] * 3
                 + report["ms_per_window"] * report["windows_scored"])
    ok &= component <= report["ms_per_image_total"] * 3 + 1e-6
    _verdict(10, ok, "bench report emitted and internally consistent")
