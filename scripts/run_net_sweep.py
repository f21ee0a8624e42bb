#!/usr/bin/env python3
"""Architecture sweep: held-out classification error of the rescoring net
over a small grid of hidden widths and conv filter counts, on synthetic
window pools.

Usage: python3 scripts/run_net_sweep.py [--seeds 2]
"""

import argparse

from pedcascade.sweep import grid_sweep, sweep_to_csv, task_runner


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=2)
    ap.add_argument("--frames", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    run = task_runner(
        {"task": "net-synth", "frames": args.frames, "epochs": args.epochs,
         "window": [32, 16]}
    )
    axes = [
        ("fc_units", [8, 16, 32]),
        ("filters", [(4, 4, 8), (8, 8, 16)]),
    ]
    cells = grid_sweep(axes, run, n_seeds=args.seeds)
    csv = sweep_to_csv(cells)
    with open(args.out, "w") as f:
        f.write(csv)
    print(csv)
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
