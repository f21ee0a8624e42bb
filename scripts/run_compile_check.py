#!/usr/bin/env python3
"""Train a small forest on synthetic windows, compile it to a network, and
verify decision-for-decision equivalence on random windows.

The frames are the benchmark's kind (100 frames, clutter 3, pixel noise 0.2),
noisy enough that AdaBoost fits every requested tree; a forest with fewer
trees than --trees exits 1.

Usage: python3 scripts/run_compile_check.py [--trees 32] [--samples 10000]
"""

import argparse
import sys

from pedcascade.cascade import CascadeTrainConfig, train_proposal_forest
from pedcascade.forest2nn import compile_forest, verify_equivalence
from pedcascade.synth import SynthSpec, synth_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trees", type=int, default=32)
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    images, frames = synth_dataset(SynthSpec(n_frames=100, clutter=3.0, noise=0.2),
                                   seed=args.seed)
    pairs = [(f.frame_id, img) for f, img in zip(frames, images)]
    cfg = CascadeTrainConfig(n_trees=args.trees, forest_negatives_per_frame=10,
                             seed=args.seed)
    model = train_proposal_forest(pairs, frames, cfg)
    print(f"forest: {len(model.trees)} trees (early_stop={model.early_stop})")
    if len(model.trees) < args.trees:
        print(f"error: the forest stopped at {len(model.trees)} of {args.trees} trees",
              file=sys.stderr)
        sys.exit(1)

    net = compile_forest(model)
    report = verify_equivalence(model, net, samples=args.samples, seed=args.seed)
    print(f"verified on {report.samples} windows: "
          f"{report.decision_mismatches} mismatches, "
          f"max score diff {report.max_score_diff:.3e}")


if __name__ == "__main__":
    main()
