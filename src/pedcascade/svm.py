"""Linear SVM head trained by deterministic sub-gradient descent."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


STEP_SIZE = 1.0  # initial step of the 1/t schedule
ITERATIONS = 4000  # full-batch sub-gradient steps


@dataclass(frozen=True)
class SvmConfig:
    C: float = 1e-3
    feature_layer: str = "fc1"

    def __post_init__(self):
        if not 0 < self.C < np.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    margins = y * (X @ w + b)
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def train_svm(features: np.ndarray, labels: np.ndarray, cfg: SvmConfig) -> Tuple[np.ndarray, float]:
    """Minimize 0.5*||w||^2 + C * sum hinge(y * (w.x + b)).

    Deterministic full-batch sub-gradient descent with a 1/t step schedule
    and Polyak averaging of the iterates.  Negatives are assumed to be
    pre-filtered upstream by the labeling policy's neg_iou.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) aligned with labels")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("both classes must be present")

    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    for t in range(1, ITERATIONS + 1):
        margins = y * (X @ w + b)
        active = margins < 1.0
        gw = w - cfg.C * (y[active, None] * X[active]).sum(axis=0)
        gb = -cfg.C * y[active].sum()
        eta = STEP_SIZE / (1.0 + 0.1 * t)
        w = w - eta * gw
        b = b - eta * gb
        w_avg += (w - w_avg) / t
        b_avg += (b - b_avg) / t

    if svm_objective(w_avg, b_avg, X, y, cfg.C) <= svm_objective(w, b, X, y, cfg.C):
        return w_avg, b_avg
    return w, b
