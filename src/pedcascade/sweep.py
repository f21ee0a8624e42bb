"""Grid-sweep harness: train/evaluate every cell over several seeds and
report mean +- std, with per-cell failure isolation."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cascade import CascadeTrainConfig, rescorer_training_pool, train_net_rescorer
from .convnet import TrainConfig, default_cifarnet
from .data import DataError, LabelingPolicy, WindowGeometry
from .synth import SynthSpec, synth_dataset


@dataclass
class SweepCell:
    params: Dict[str, object]
    values: List[float] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else math.nan

    @property
    def std(self) -> float:
        return float(np.std(self.values)) if self.values else math.nan


def grid_sweep(
    axes: Sequence[Tuple[str, Sequence[object]]],
    run: Callable[[Dict[str, object], int], float],
    n_seeds: int = 1,
    base_seed: int = 0,
) -> List[SweepCell]:
    """Evaluate `run(params, seed)` on the full grid in row-major order.

    Each cell is run with `n_seeds` seeds; a failing cell is marked with its
    error and does not abort the sweep.
    """
    if not axes or any(len(values) == 0 for _, values in axes):
        raise ValueError("axes must be non-empty")
    cells: List[SweepCell] = []
    shape = [len(values) for _, values in axes]
    for flat in range(int(np.prod(shape))):
        idx = np.unravel_index(flat, shape)
        params = {name: values[i] for (name, values), i in zip(axes, idx)}
        cell = SweepCell(params=params)
        try:
            for s in range(n_seeds):
                cell.values.append(float(run(params, base_seed + s)))
        except Exception as exc:
            cell.values = []
            cell.error = f"{type(exc).__name__}: {exc}"
        cells.append(cell)
    return cells


def sweep_to_csv(cells: Sequence[SweepCell]) -> str:
    if not cells:
        return ""
    names = list(cells[0].params.keys())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names + ["mean", "std", "n", "error"])
    for cell in cells:
        row = [repr(cell.params[n]) if isinstance(cell.params[n], (list, tuple))
               else cell.params[n] for n in names]
        if cell.error is None:
            row += [f"{cell.mean:.6g}", f"{cell.std:.6g}", len(cell.values), ""]
        else:
            row += ["", "", 0, cell.error]
        writer.writerow(row)
    return out.getvalue()


def task_runner(task: dict) -> Callable[[Dict[str, object], int], float]:
    """The per-cell runner `run(params, seed)` of a sweep config's task.
    Task "net-synth" trains the parameterized net on the rescorer pool of a
    small synthetic set (GT positives, random negatives below IoU 0.3 with
    every GT box) and reports held-out classification error."""
    kind = task.get("task", "net-synth")
    if kind != "net-synth":
        raise DataError(f"unknown sweep task {kind!r}")
    n_frames = int(task.get("frames", 12))
    epochs = int(task.get("epochs", 3))
    hw = tuple(task.get("window", [32, 16]))
    geometry = WindowGeometry.for_window(hw)

    def run(params: dict, seed: int) -> float:
        images, frames = synth_dataset(SynthSpec(n_frames=n_frames, clutter=2.0), seed=seed)
        cfg = CascadeTrainConfig(
            geometry=geometry, policy=LabelingPolicy(neg_iou=0.3, neg_source="random"),
            ratio=None, seed=seed,
            net_train=TrainConfig(batch=16, epochs=epochs, extra_epochs=1, seed=seed),
            net_spec=default_cifarnet(
                input_hw=hw,
                conv_filters=tuple(params.get("filters", (8, 8, 16))),
                conv_kernels=tuple(params.get("kernels", (3, 3, 3))),
                fc_units=int(params.get("fc_units", 16)),
            ),
        )
        rng = np.random.default_rng(seed)
        pairs = [(f.frame_id, img) for f, img in zip(frames, images)]
        windows, labels = rescorer_training_pool(pairs, frames, {fid: [] for fid, _ in pairs},
                                                 cfg, rng)
        order = rng.permutation(len(windows))
        n_test = max(2, len(windows) // 5)
        test_i, train_i = order[:n_test], order[n_test:]
        net = train_net_rescorer(windows[train_i], labels[train_i], cfg)
        return float(np.mean((net(windows[test_i], None) >= 0.5) != labels[test_i]))

    return run
