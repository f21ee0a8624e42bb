#!/usr/bin/env python3
"""SHA-256 digests of the outputs a bit-exact change must leave alone.

On one benchmark seed this trains the benchmark's cascade and prints one
digest per line for:

  model             train_cascade model bytes (forest JSON, net weights,
                    input mean)
  detect            detect-default detections on the test frames, before
                    the proposal filter
  detect.filtered   the same detections after filter_proposals to the
                    benchmark's budget of 3.0 per image
  detect.dense      detections on the test frames at the dense config
                    training and run_cascade use (threshold -1e9, so every
                    window enters NMS), before the proposal filter
  run_cascade       the test-set run_cascade output at the acceptance config
  verify            the verify_equivalence report of the compiled forest

Run it at two commits and compare the lines; equal digests mean equal
bytes.  It reuses the benchmark's workload definitions read-only.
`tests/test_output_digest.py` pins the six lines on seed 1 at a tiny
scale, through `digests(seed, scale)`.

Every area-normalised rectangle read goes through `channels.pooled`; each
line pins it on one path and integral pitch:

  model             the training feature matrix
                    (`forest.compute_feature_matrix`) at pitch 8 (and,
                    through the net's training proposals, the split-node
                    decisions at pitch 8)
  detect            the split-node decisions (`forest.node_decisions`) over
                    the window grid at pitch 4
  detect.dense,     the split-node decisions at pitch 8
  run_cascade
  verify            `CompiledNet.pooled_features` at pitch 1 (and the
                    split-node decisions at the origins it samples)

detect.filtered follows from detect.

Usage: python3 scripts/output_digest.py --seed 1
"""

import os
import sys

# One BLAS thread, as in the benchmark: the net's training bytes may depend
# on the thread count.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no cache files under benchmark/

import argparse  # noqa: E402
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from pedcascade import cascade, forest, forest2nn  # noqa: E402

import workloads  # noqa: E402


def digests(seed: int, scale=None):
    """(name, hex digest) pairs of the six outputs on one seed, at the
    benchmark's `workloads.Scale()` unless another scale is given."""
    scale = workloads.Scale() if scale is None else scale
    (train_pairs, train_frames), (test_pairs, _) = workloads.synth_inputs(scale, seed)
    casc = cascade.train_cascade(train_pairs, train_frames, workloads.train_config(scale))
    model = casc.proposal_model
    dets = [forest.detect(img, model, scale.detect_sliding) for _, img in test_pairs]
    _, kept = forest.filter_proposals(dets, workloads.PROPOSAL_BUDGET)
    dense = [forest.detect(img, model, scale.dense_sliding) for _, img in test_pairs]
    ids = [fid for fid, _ in test_pairs]
    run, _ = cascade.run_cascade(test_pairs, workloads.cascade_config(scale, casc))
    report = forest2nn.verify_equivalence(model, forest2nn.compile_forest(model),
                                          samples=workloads.EQUIVALENCE_SAMPLES)
    outputs = [
        ("model", workloads.model_bytes(casc)),
        ("detect", workloads.dets_bytes(dict(zip(ids, dets)))),
        ("detect.filtered", workloads.dets_bytes(dict(zip(ids, kept)))),
        ("detect.dense", workloads.dets_bytes(dict(zip(ids, dense)))),
        ("run_cascade", workloads.dets_bytes(run)),
        ("verify", repr(report).encode()),
    ]
    return [(name, hashlib.sha256(b).hexdigest()) for name, b in outputs]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    for name, digest in digests(args.seed):
        print(f"{name} {digest}")


if __name__ == "__main__":
    main()
