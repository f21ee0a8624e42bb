#!/usr/bin/env python3
"""End-to-end synthetic experiment: train the proposal forest, train the
rescoring net, and compare log-average miss rate of proposals-only vs the
full cascade on a held-out split.  The held-out frames are proposed once,
then rescored twice: with no rescorer, and with the trained net.

Usage: python3 scripts/run_synth_cascade.py [--frames 200] [--test-frames 100]
"""

import argparse
import time


from pedcascade.cascade import CascadeTrainConfig, propose, rescore, train_cascade
from pedcascade.convnet import TrainConfig, default_cifarnet
from pedcascade.data import BatchRatio, LabelingPolicy, WindowGeometry
from pedcascade.evaluate import lamr, recall_vs_iou
from pedcascade.forest import SlidingWindowConfig
from pedcascade.synth import SynthSpec, synth_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=200)
    ap.add_argument("--test-frames", type=int, default=100)
    ap.add_argument("--trees", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.time()

    def stamp(msg):
        print(f"[{time.time() - t0:7.1f}s] {msg}", flush=True)

    train_imgs, train_frames = synth_dataset(
        SynthSpec(n_frames=args.frames, clutter=3.0), seed=args.seed + 10
    )
    test_imgs, test_frames = synth_dataset(
        SynthSpec(n_frames=args.test_frames, clutter=3.0), seed=args.seed + 11
    )
    train_pairs = [(f.frame_id, img) for f, img in zip(train_frames, train_imgs)]
    test_pairs = [(f.frame_id, img) for f, img in zip(test_frames, test_imgs)]
    stamp(f"synth: {args.frames} train / {args.test_frames} test frames")

    sliding = SlidingWindowConfig(
        stride=8, scale_step=2 ** 0.25, min_height=60, score_threshold=-1e9
    )
    net_geom = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))
    cfg = CascadeTrainConfig(
        n_trees=args.trees,
        sliding=sliding,
        policy=LabelingPolicy(positive_source="gt+proposals", pos_iou=0.5),
        net_geometry=net_geom,
        net_spec=default_cifarnet(input_hw=net_geom.window,
                                  conv_filters=(8, 8, 16), conv_kernels=(5, 5, 5),
                                  fc_units=16),
        net_train=TrainConfig(batch=60, lr=0.01, epochs=args.epochs,
                              extra_epochs=max(2, args.epochs // 6),
                              weight_decay=1e-4, final_layer_decay=1.0,
                              init_sigma=0.1, first_layer_sigma=0.1,
                              seed=args.seed),
        ratio=BatchRatio(1, 5),
        forest_negatives_per_frame=10,
        seed=args.seed,
    )
    cascade = train_cascade(train_pairs, train_frames, cfg)
    stamp(f"cascade trained ({len(cascade.proposal_model.trees)} trees)")

    _, test_props = propose(test_pairs, cascade.proposal_model, cascade.sliding,
                            cascade.proposal_filter_avg)
    windows = sum(map(len, test_props.values()))
    stamp(f"test frames proposed ({windows} proposals)")

    def rescored(rescorer):
        return rescore(test_pairs, test_props, rescorer, cascade.geometry)

    prop_dets = rescored(None)
    rc = recall_vs_iou(prop_dets, test_frames)
    _, mr_prop = lamr(prop_dets, test_frames)
    stamp(f"proposals: {rc.meta['avg_proposals_per_image']:.2f}/image, "
          f"recall@0.5 {rc.y[0]:.3f}, LAMR {mr_prop:.4f}")

    t1 = time.perf_counter()
    casc_dets = rescored(cascade.rescorer)
    ms_per_window = (time.perf_counter() - t1) / max(windows, 1) * 1e3
    _, mr_casc = lamr(casc_dets, test_frames)
    stamp(f"cascade: LAMR {mr_casc:.4f} "
          f"({ms_per_window:.2f} ms/window, {windows} windows)")
    stamp("cascade beats proposals" if mr_casc < mr_prop else "no improvement")


if __name__ == "__main__":
    main()
