"""Exact compilation of a boosted depth-2 forest into a three-layer network,
plus an equivalence verifier and a differentiable (softened) export."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .channels import ChannelStack, pooled, pooling_regions
from .convnet import FCSpec, NetModel, NetSpec, SigmoidSpec, sigmoid
from .forest import ForestModel, forest_scores, node_decisions, split_nodes
from .geometry import Box


class EquivalenceError(AssertionError):
    pass


# Leaf-indicator rows over node decisions (d0, d1, d2), one block per tree.
# Row k fires (pre-activation > 0) exactly when the traversal ends in leaf k.
_LEAF_WEIGHTS = np.array(
    [
        [-1.0, -1.0, 0.0],  # LL: d0 = 0, d1 = 0
        [-1.0, +1.0, 0.0],  # LR: d0 = 0, d1 = 1
        [+1.0, 0.0, -1.0],  # RL: d0 = 1, d2 = 0
        [+1.0, 0.0, +1.0],  # RR: d0 = 1, d2 = 1
    ]
)
_LEAF_BIASES = np.array([+0.5, -0.5, -0.5, -1.5])


@dataclass
class CompiledNet:
    """Affine/threshold network equivalent to a ForestModel.

    features lists the distinct (channel, rect) pooling regions; the input
    vector holds their area-normalized rectangle sums.  sharpness = inf means
    hard-step activations (the exact regime); finite sharpness means
    sigmoid(sharpness * x).
    """

    features: List[Tuple[int, Box]]
    W1: np.ndarray  # (3T, F): one row per split node
    b1: np.ndarray
    W2: np.ndarray  # (4T, 3T): per-tree leaf indicators
    b2: np.ndarray
    W3: np.ndarray  # (4T,): tree_weight * leaf_value
    b3: float
    sharpness: float = math.inf
    model_window: Tuple[int, int] = (128, 64)

    @property
    def n_trees(self) -> int:
        return self.W1.shape[0] // 3

    def _activate(self, x: np.ndarray) -> np.ndarray:
        if math.isinf(self.sharpness):
            return (x > 0).astype(np.float64)
        return sigmoid(self.sharpness * x)

    def forward(self, pooled: np.ndarray):
        """Evaluate on (n, F) pooled-feature rows.

        Returns (scores, node_decisions, leaf_indicators).
        """
        pooled = np.atleast_2d(pooled)
        a1 = pooled @ self.W1.T + self.b1
        z1 = self._activate(a1)
        a2 = z1 @ self.W2.T + self.b2
        z2 = self._activate(a2)
        scores = z2 @ self.W3 + self.b3
        return scores, z1, z2

    def pooled_features(self, stack: ChannelStack, origins: Sequence[Tuple[int, int]]) -> np.ndarray:
        """(n_origins, F) area-normalized pooling sums for (x, y) window
        origins in pixels, read at the stack's integral pitch; ValueError
        unless the origins and the features lie on it."""
        g = stack.pitch
        o = np.asarray(origins, dtype=np.intp).reshape(-1, 2)
        if np.any(o % g):
            raise ValueError(f"window origins are not multiples of the integral pitch {g}")
        regions = pooling_regions(self.features, g)
        return pooled(regions, stack.integrals, o[:, 0] // g, o[:, 1] // g).T


def compile_forest(model: ForestModel) -> CompiledNet:
    """Build the network: layer 1 applies each node's pooled threshold, layer 2
    turns the three node decisions of each tree into a one-hot leaf indicator,
    layer 3 is the weighted sum of leaf values plus the score offset."""
    # the W1 column of each distinct pooling region, in order of first use
    column = {r: j for j, r in enumerate(dict.fromkeys((n.channel, n.rect) for n in model.nodes))}

    T = len(model.trees)
    W1 = np.zeros((3 * T, len(column)))
    b1 = np.zeros(3 * T)
    for i, n in enumerate(model.nodes):
        W1[i, column[n.channel, n.rect]] = float(n.polarity)
        b1[i] = -float(n.polarity) * n.threshold

    W2 = np.zeros((4 * T, 3 * T))
    b2 = np.zeros(4 * T)
    for t in range(T):
        W2[4 * t : 4 * t + 4, 3 * t : 3 * t + 3] = _LEAF_WEIGHTS
        b2[4 * t : 4 * t + 4] = _LEAF_BIASES

    W3 = np.zeros(4 * T)
    for t, (tree, alpha) in enumerate(zip(model.trees, model.tree_weights)):
        W3[4 * t : 4 * t + 4] = alpha * np.asarray(tree.leaf_values)

    return CompiledNet(
        features=list(column), W1=W1, b1=b1, W2=W2, b2=b2, W3=W3,
        b3=model.score_offset, model_window=tuple(model.model_window),
    )


@dataclass
class EquivalenceReport:
    samples: int
    decision_mismatches: int
    max_score_diff: float
    hard_mode: bool


def verify_equivalence(
    model: ForestModel, net: CompiledNet, samples: int, seed: int = 0
) -> EquivalenceReport:
    """Evaluate forest and compiled net on random channel windows.

    In hard-step mode any decision mismatch or score difference above 1e-9
    raises EquivalenceError; in sigmoid mode the report is informational.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    win_h, win_w = model.model_window
    margin = 64
    h, w = win_h + margin, win_w + margin
    stack = ChannelStack(
        [rng.random((h, w)) for _ in range(model.channel_cfg.n_channels)]
    )
    ox = rng.integers(0, w - win_w + 1, size=samples)
    oy = rng.integers(0, h - win_h + 1, size=samples)

    forest_dec = node_decisions(split_nodes(model), stack.integrals, ox, oy)
    forest_score = forest_scores(model, forest_dec)
    net_scores, z1, _ = net.forward(net.pooled_features(stack, np.column_stack((ox, oy))))
    hard = math.isinf(net.sharpness)
    net_dec = z1 > 0.5 if not hard else z1.astype(bool)
    mismatches = int(np.sum(net_dec != forest_dec.T))
    max_diff = float(np.max(np.abs(net_scores - forest_score)))
    report = EquivalenceReport(samples, mismatches, max_diff, hard)
    if hard and (mismatches > 0 or max_diff > 1e-9):
        raise EquivalenceError(
            f"compiled net diverges from forest: {mismatches} decision "
            f"mismatches, max score diff {max_diff:.3e}"
        )
    return report


def soften(net: CompiledNet, sharpness: float) -> CompiledNet:
    """Replace hard steps with sigmoid(sharpness * x); weights unchanged."""
    if not (sharpness > 0):
        raise ValueError("sharpness must be > 0")
    return replace(net, sharpness=float(sharpness))


def to_netmodel(net: CompiledNet) -> NetModel:
    """Export a softened compiled net in the trainable NetModel format.

    The sharpness is folded into the affine layers so plain sigmoid
    activations reproduce sigmoid(sharpness * x).
    """
    if math.isinf(net.sharpness):
        raise ValueError("export requires a finite sharpness (call soften first)")
    F = len(net.features)
    T = net.n_trees
    spec = NetSpec(
        input_shape=(F,),
        layers=[FCSpec(3 * T), SigmoidSpec(), FCSpec(4 * T), SigmoidSpec(), FCSpec(1)],
    )
    model = NetModel(spec, seed=0)
    fc_layers = [layer for _, layer in model.param_layers()]
    s = net.sharpness
    fc_layers[0].W[...] = s * net.W1
    fc_layers[0].b[...] = s * net.b1
    fc_layers[1].W[...] = s * net.W2
    fc_layers[1].b[...] = s * net.b2
    fc_layers[2].W[...] = net.W3[None, :]
    fc_layers[2].b[...] = net.b3
    return model

