import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_CCFG, TINY_GEOM, aligned_forest
from pedcascade.channels import ChannelConfig, ChannelStack, compute_channels
from pedcascade.convnet import sigmoid
from pedcascade.forest import ForestModel, SplitNode, Tree2, score_window_grid
from pedcascade.forest2nn import (
    EquivalenceError,
    _LEAF_BIASES,
    _LEAF_WEIGHTS,
    compile_forest,
    soften,
    verify_equivalence,
)
from pedcascade.geometry import Box

WIN = (32, 16)


def random_forest(rng, n_trees, n_channels=3, win=WIN):
    cfg_kind = {3: "RGB", 4: "G_LUV"}[n_channels]
    trees, weights = [], []
    for _ in range(n_trees):
        nodes = []
        for _ in range(3):
            c = int(rng.integers(0, n_channels))
            w = int(rng.integers(2, 9))
            h = int(rng.integers(2, 9))
            x = int(rng.integers(0, win[1] - w + 1))
            y = int(rng.integers(0, win[0] - h + 1))
            nodes.append(
                SplitNode(c, Box(x, y, w, h), float(rng.uniform(0.2, 0.8)),
                          int(rng.choice([-1, 1])))
            )
        leaves = tuple(float(v) for v in rng.choice([-1.0, 1.0], size=4))
        trees.append(Tree2(nodes[0], nodes[1], nodes[2], leaves))
        weights.append(float(rng.uniform(0.1, 2.0)))
    return ForestModel(trees, weights, ChannelConfig(cfg_kind), win,
                       score_offset=float(rng.normal()))


def leaf_by_traversal(d0, d1, d2):
    """Recursive-walk reference for which leaf a decision triple reaches."""
    if d0:
        return 3 if d2 else 2
    return 1 if d1 else 0


class TestLeafIndicatorTable:
    def test_all_eight_combinations_one_hot(self):
        for d0, d1, d2 in itertools.product([0, 1], repeat=3):
            z = np.array([d0, d1, d2], dtype=np.float64)
            pre = _LEAF_WEIGHTS @ z + _LEAF_BIASES
            fired = (pre > 0).astype(int)
            assert fired.sum() == 1, (d0, d1, d2, pre)
            assert int(np.argmax(fired)) == leaf_by_traversal(d0, d1, d2)

    def test_margins_bounded_away_from_zero(self):
        # exactness relies on pre-activations never sitting on the threshold
        for d0, d1, d2 in itertools.product([0, 1], repeat=3):
            z = np.array([d0, d1, d2], dtype=np.float64)
            pre = _LEAF_WEIGHTS @ z + _LEAF_BIASES
            assert np.min(np.abs(pre)) >= 0.5


class TestCompileForest:
    def test_layer_shapes(self):
        rng = np.random.default_rng(0)
        model = random_forest(rng, 5)
        net = compile_forest(model)
        T = 5
        assert net.W1.shape[0] == 3 * T
        assert net.W2.shape == (4 * T, 3 * T)
        assert net.W3.shape == (4 * T,)
        assert net.n_trees == T

    def test_shared_features_deduplicated(self):
        node = SplitNode(0, Box(0, 0, 4, 4), 0.5, 1)
        tree = Tree2(node, node, node, (1.0, -1.0, 1.0, -1.0))
        model = ForestModel([tree, tree], [1.0, 1.0], ChannelConfig("RGB"), WIN)
        net = compile_forest(model)
        assert len(net.features) == 1

    def test_node_rows_have_single_nonzero(self):
        rng = np.random.default_rng(1)
        net = compile_forest(random_forest(rng, 8))
        assert np.all(np.sum(net.W1 != 0, axis=1) == 1)
        assert np.all(np.isin(net.W1[net.W1 != 0], [-1.0, 1.0]))

    def test_third_layer_encodes_weighted_leaves(self):
        rng = np.random.default_rng(2)
        model = random_forest(rng, 4)
        net = compile_forest(model)
        for t, (tree, alpha) in enumerate(zip(model.trees, model.tree_weights)):
            got = net.W3[4 * t: 4 * t + 4]
            assert np.allclose(got, alpha * np.asarray(tree.leaf_values))
        assert net.b3 == model.score_offset


class TestEquivalence:
    def test_exact_on_random_forests(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            model = random_forest(rng, int(rng.integers(1, 40)))
            net = compile_forest(model)
            report = verify_equivalence(model, net, samples=500, seed=trial)
            assert report.decision_mismatches == 0
            assert report.max_score_diff <= 1e-9

    def test_exact_with_four_channels(self):
        rng = np.random.default_rng(4)
        model = random_forest(rng, 12, n_channels=4)
        report = verify_equivalence(model, compile_forest(model), samples=300, seed=0)
        assert report.decision_mismatches == 0

    def test_tampered_net_raises(self):
        rng = np.random.default_rng(5)
        model = random_forest(rng, 6)
        net = compile_forest(model)
        net.b1 = net.b1 + 0.25
        with pytest.raises(EquivalenceError):
            verify_equivalence(model, net, samples=400, seed=0)

    def test_rejects_zero_samples(self):
        rng = np.random.default_rng(6)
        model = random_forest(rng, 2)
        with pytest.raises(ValueError):
            verify_equivalence(model, compile_forest(model), samples=0)


class TestCompiledNetOnWindows:
    def test_matches_forest_score_on_model_window(self, tiny_forest):
        rng = np.random.default_rng(0)
        windows = rng.random((6,) + TINY_GEOM.window + (3,))
        net = compile_forest(tiny_forest)
        for win in windows:
            stack = compute_channels(win, TINY_CCFG)
            score = net.forward(net.pooled_features(stack, [(0, 0)]))[0][0]
            grid, xs, ys = score_window_grid(tiny_forest, stack, 4)
            assert (xs[0], ys[0]) == (0, 0)
            assert score == pytest.approx(grid[0, 0], abs=1e-9)


class TestPooledFeaturesPitch:
    """pooled_features reads a stack at its integral pitch."""

    def test_is_the_same_at_every_pitch_of_the_grid(self):
        rng = np.random.default_rng(12)
        net = compile_forest(aligned_forest(rng, 4, (8, 4), 8))  # on the 8-pixel grid
        planes = [rng.random((80, 48)) for _ in range(3)]
        origins = [(0, 0), (16, 8), (8, 16)]
        got = [net.pooled_features(ChannelStack(planes, g), origins) for g in (1, 4, 8)]
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])
        want = [[planes[c][oy + int(r.y):, ox + int(r.x):][:int(r.h), :int(r.w)].mean()
                 for c, r in net.features] for ox, oy in origins]
        assert np.allclose(got[0], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pitch, origin", [(4, (2, 0)), (8, (0, 4)), (8, (12, 8))])
    def test_an_origin_off_the_pitch_is_a_value_error(self, pitch, origin):
        rng = np.random.default_rng(13)
        net = compile_forest(aligned_forest(rng, 4, (8, 4), 8))
        stack = ChannelStack([rng.random((80, 48)) for _ in range(3)], pitch)
        with pytest.raises(ValueError, match="pitch"):
            net.pooled_features(stack, [(0, 0), origin])


def soft_scores(net, sharpness, pooled):
    """The compiled net's sigmoid relaxation, evaluated directly: each hard
    step x > 0 becomes sigmoid(sharpness * x), and the output layer is
    unchanged."""
    z1 = sigmoid(sharpness * (pooled @ net.W1.T + net.b1))
    z2 = sigmoid(sharpness * (z1 @ net.W2.T + net.b2))
    return z2 @ net.W3 + net.b3


class TestSoften:
    def test_requires_positive_sharpness(self):
        rng = np.random.default_rng(7)
        net = compile_forest(random_forest(rng, 2))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive and finite"):
                soften(net, bad)

    def test_original_is_unchanged(self):
        rng = np.random.default_rng(8)
        net = compile_forest(random_forest(rng, 2))
        before = [a.copy() for a in (net.W1, net.b1, net.W2, net.b2, net.W3)]
        soft = soften(net, 10.0)
        after = (net.W1, net.b1, net.W2, net.b2, net.W3)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        soft_arrays = [a for _, layer in soft.param_layers() for a in (layer.W, layer.b)]
        assert not any(np.shares_memory(a, b) for a in soft_arrays for b in after)

    def test_high_sharpness_approaches_hard_scores(self):
        rng = np.random.default_rng(9)
        model = random_forest(rng, 10)
        net = compile_forest(model)
        soft = soften(net, 1e6)

        h, w = WIN[0] + 16, WIN[1] + 16
        stack = ChannelStack([rng.random((h, w)) for _ in range(3)])
        origins = [(int(rng.integers(0, 16)), int(rng.integers(0, 16))) for _ in range(50)]
        pooled = net.pooled_features(stack, origins)
        hard_scores, z1, _ = net.forward(pooled)
        # the limit argument needs pre-activations bounded away from zero
        a1 = pooled @ net.W1.T + net.b1
        mask = np.all(np.abs(a1) >= 0.01, axis=1)
        soft_scores = soft.forward(pooled)[0][:, 0]
        diff = np.abs(soft_scores - hard_scores)
        assert np.all(diff[mask] <= 1e-6 * max(1.0, np.abs(hard_scores).max()))


class TestToNetModel:
    """soften exports the relaxation as a trainable NetModel."""

    def test_requires_finite_sharpness(self):
        rng = np.random.default_rng(10)
        net = compile_forest(random_forest(rng, 2))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                soften(net, bad)

    def test_export_matches_compiled_soft_scores(self):
        rng = np.random.default_rng(11)
        model = random_forest(rng, 6)
        net = compile_forest(model)
        exported = soften(net, 25.0)
        pooled = rng.random((40, len(net.features)))
        want = soft_scores(net, 25.0, pooled)
        got = exported.forward(pooled)[0][:, 0]
        assert np.allclose(got, want, atol=1e-9)


def _compile_check_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_compile_check.py"
    spec = importlib.util.spec_from_file_location("run_compile_check", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_compile_check_script_smoke(monkeypatch, capsys):
    script = _compile_check_script()
    monkeypatch.setattr(sys, "argv", ["run_compile_check.py", "--trees", "2",
                                      "--samples", "200"])
    script.main()
    out = capsys.readouterr().out
    assert "forest: 2 trees (early_stop=False)" in out
    assert "verified on 200 windows: 0 mismatches" in out


def test_compile_check_script_rejects_a_short_forest(monkeypatch, capsys):
    script = _compile_check_script()
    train = script.train_proposal_forest

    def one_tree(*args):
        m = train(*args)
        return dataclasses.replace(m, trees=m.trees[:1], tree_weights=m.tree_weights[:1],
                                   early_stop=True)

    monkeypatch.setattr(script, "train_proposal_forest", one_tree)
    monkeypatch.setattr(sys, "argv", ["run_compile_check.py", "--trees", "2",
                                      "--samples", "200"])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "forest: 1 trees (early_stop=True)" in captured.out
    assert "stopped at 1 of 2 trees" in captured.err
    assert "verified" not in captured.out
