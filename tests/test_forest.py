import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_SLIDING, aligned_forest
from pedcascade import forest as forest_module
from pedcascade.channels import ChannelConfig, ChannelStack, compute_channels
from pedcascade.forest import (
    ForestModel,
    N_THRESHOLD_QUANTILES,
    STUMP_BLOCK_KEYS,
    SlidingWindowConfig,
    SplitNode,
    Tree2,
    _StumpSearch,
    compute_feature_matrix,
    default_candidate_rects,
    detect,
    filter_proposals,
    forest_from_json,
    forest_scores,
    forest_to_json,
    node_decisions,
    pyramid_ratios,
    score_window_grid,
    split_nodes,
    train_forest,
)
from pedcascade.geometry import Box, Detection, nms


WIN = (32, 16)


# Per-window scalar traversal: the independent oracle for the vectorised
# node decisions and score accumulation of score_window_grid.

def _node_feature(node: SplitNode, stack: ChannelStack, ox: int, oy: int) -> float:
    x, y, w, h = (int(round(v)) for v in (node.rect.x, node.rect.y, node.rect.w, node.rect.h))
    ii = stack.integrals[node.channel]
    x += ox
    y += oy
    if x < 0 or y < 0 or x + w > stack.width or y + h > stack.height:
        raise ValueError("window rectangle out of bounds")
    s = ii[y + h, x + w] - ii[y, x + w] - ii[y + h, x] + ii[y, x]
    return float(s) / (w * h)


def _node_decision(node: SplitNode, stack: ChannelStack, ox: int, oy: int) -> bool:
    f = _node_feature(node, stack, ox, oy)
    return node.polarity * (f - node.threshold) > 0


def eval_tree(t: Tree2, stack: ChannelStack, window_origin) -> float:
    """Leaf value of one tree on the window at `window_origin` (x, y)."""
    ox, oy = window_origin
    if _node_decision(t.root, stack, ox, oy):
        idx = 3 if _node_decision(t.right_child, stack, ox, oy) else 2
    else:
        idx = 1 if _node_decision(t.left_child, stack, ox, oy) else 0
    return t.leaf_values[idx]


def score_window(model: ForestModel, stack: ChannelStack, window_origin) -> float:
    leaves = np.array([eval_tree(t, stack, window_origin) for t in model.trees])
    return float(np.dot(np.asarray(model.tree_weights), leaves)) + model.score_offset


def random_forest(rng, n_trees, win, n_channels):
    """Trees of random in-window rectangles, thresholds and leaves, with a
    nonzero score offset."""
    def node():
        h, w = (int(rng.integers(1, n + 1)) for n in win)
        rect = Box(int(rng.integers(0, win[1] - w + 1)), int(rng.integers(0, win[0] - h + 1)), w, h)
        return SplitNode(int(rng.integers(0, n_channels)), rect, float(rng.random()),
                         int(rng.choice([-1, 1])))

    trees = [Tree2(node(), node(), node(), tuple(rng.standard_normal(4))) for _ in range(n_trees)]
    return ForestModel(trees, list(rng.random(n_trees)), ChannelConfig("RGB"), win,
                       score_offset=float(rng.standard_normal()))


def small_cfg():
    return ChannelConfig("RGB")


def random_stack(rng, h=WIN[0], w=WIN[1], n=3):
    return ChannelStack([rng.random((h, w)) for _ in range(n)])


def small_rects():
    return default_candidate_rects(small_cfg(), WIN, sizes=(4, 8), grid=4)


def make_pool(rng, n_pos=40, n_neg=40):
    """Positives carry a bright top-left block; negatives are noise."""
    pos, neg = [], []
    for _ in range(n_pos):
        planes = [rng.random((WIN[0], WIN[1])) * 0.3 for _ in range(3)]
        planes[0][2:10, 2:10] += 0.8 + rng.random() * 0.2
        pos.append(ChannelStack(planes))
    for _ in range(n_neg):
        neg.append(ChannelStack([rng.random((WIN[0], WIN[1])) * 0.5 for _ in range(3)]))
    return pos, neg


class TestSplitNode:
    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError):
            SplitNode(0, Box(0, 0, 4, 4), 0.5, polarity=0)

    def test_rejects_nonfinite_threshold(self):
        with pytest.raises(ValueError):
            SplitNode(0, Box(0, 0, 4, 4), float("inf"), polarity=1)


class TestEvalTree:
    def test_routing_matches_manual_walk(self):
        rng = np.random.default_rng(0)
        stack = random_stack(rng)
        node = lambda thr, pol: SplitNode(0, Box(0, 0, 8, 8), thr, pol)
        tree = Tree2(node(0.5, 1), node(0.3, 1), node(0.7, -1), (1.0, 2.0, 3.0, 4.0))

        def normsum(n):
            sub = stack.channels[n.channel][0:8, 0:8]
            return sub.sum() / 64.0

        d0 = tree.root.polarity * (normsum(tree.root) - tree.root.threshold) > 0
        if d0:
            d = tree.right_child.polarity * (normsum(tree.right_child) - tree.right_child.threshold) > 0
            want = tree.leaf_values[3 if d else 2]
        else:
            d = tree.left_child.polarity * (normsum(tree.left_child) - tree.left_child.threshold) > 0
            want = tree.leaf_values[1 if d else 0]
        assert eval_tree(tree, stack, (0, 0)) == want

    def test_score_is_weighted_leaf_sum(self):
        rng = np.random.default_rng(1)
        stack = random_stack(rng)
        node = SplitNode(1, Box(2, 2, 4, 4), 0.4, 1)
        trees = [Tree2(node, node, node, (-1.0, 1.0, -1.0, 1.0)) for _ in range(3)]
        model = ForestModel(trees, [0.5, 1.5, 2.0], small_cfg(), WIN, score_offset=0.25)
        leaves = [eval_tree(t, stack, (0, 0)) for t in trees]
        want = 0.5 * leaves[0] + 1.5 * leaves[1] + 2.0 * leaves[2] + 0.25
        assert score_window(model, stack, (0, 0)) == pytest.approx(want, abs=1e-12)


def two_bincount_best_stump(search: _StumpSearch, idx, w, y):
    """Minimum weighted-error stump over samples `idx` (weights w and labels
    y of those samples), from two weighted bincounts over sample-major keys
    with zero weights for the other class: the oracle for the one-pass
    _StumpSearch.best_stumps."""
    k = N_THRESHOLD_QUANTILES
    keys = search.bins.astype(np.int64) + np.arange(search.f)[:, None] * (k + 1)
    keys = keys.T[idx].ravel()
    rep = search.f
    wp = np.repeat(w * (y > 0), rep)
    wn = np.repeat(w * (y < 0), rep)
    size = search.f * (k + 1)
    hp = np.bincount(keys, weights=wp, minlength=size).reshape(search.f, k + 1)
    hn = np.bincount(keys, weights=wn, minlength=size).reshape(search.f, k + 1)
    cp = np.cumsum(hp, axis=1)[:, :k]
    cn = np.cumsum(hn, axis=1)[:, :k]
    p_tot = float(np.sum(w * (y > 0)))
    n_tot = float(np.sum(w * (y < 0)))
    err_pos = cp + (n_tot - cn)
    err_neg = (p_tot + n_tot) - err_pos
    if err_pos.min() <= err_neg.min():
        fi, ki = np.unravel_index(np.argmin(err_pos), err_pos.shape)
        return int(fi), float(search.thresholds[ki, fi]), +1, float(err_pos[fi, ki])
    fi, ki = np.unravel_index(np.argmin(err_neg), err_neg.shape)
    return int(fi), float(search.thresholds[ki, fi]), -1, float(err_neg[fi, ki])


class TestStumpSearch:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), f=st.integers(1, 6),
           right_share=st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    def test_one_pass_matches_two_bincount_oracle(self, seed, n, f, right_share):
        rng = np.random.default_rng(seed)
        X = rng.random((n, f))
        X[:, rng.random(f) < 0.4] = rng.integers(0, 3, (n, 1)) / 3.0  # tied columns
        X[:, rng.integers(f)] = 0.25  # a constant column
        y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
        w = rng.random(n) + 1e-3
        w /= w.sum()
        side = rng.random(n) < right_share  # 0.0 and 1.0 leave one side empty
        search = _StumpSearch(X)
        assert search.best_stumps(w, y) == [two_bincount_best_stump(search, np.arange(n), w, y)]
        want = []
        for s in (False, True):
            idx = np.flatnonzero(side == s)
            want.append(two_bincount_best_stump(search, idx, w[idx], y[idx]) if idx.size else None)
        assert search.best_stumps(w, y, side) == want

    @pytest.mark.parametrize("layout", ["tiled", "boundary"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocks_match_two_bincount_oracle(self, seed, layout):
        """Several feature blocks: equal minima in different blocks must
        resolve to the first feature, as one search over all features does."""
        rng = np.random.default_rng(seed)
        n, f = 2000, 300
        step = max(1, STUMP_BLOCK_KEYS // n)
        assert 3 * step < f  # at least four blocks
        y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
        if layout == "tiled":
            # every block holds copies of the same seven columns, one constant
            base = rng.random((n, 7))
            base[:, 3] = 0.25
            base[:, 5] = (y > 0) * 0.5 + rng.random(n) * 0.6  # informative
            X = base[:, np.arange(f) % 7]
        else:
            X = rng.random((n, f))
            informative = (y > 0) * 0.5 + rng.random(n) * 0.6
            for j in (step - 1, step, 3 * step + 2):  # last of block 0, first of block 1
                X[:, j] = informative
            X[:, 2 * step - 1] = X[:, 2 * step] = 0.5  # constant across a boundary
        w = rng.random(n) + 1e-3
        w /= w.sum()
        side = X[:, 1] > 0.5
        search = _StumpSearch(X)
        root = two_bincount_best_stump(search, np.arange(n), w, y)
        assert search.best_stumps(w, y) == [root]
        want = []
        for s in (False, True):
            idx = np.flatnonzero(side == s)
            want.append(two_bincount_best_stump(search, idx, w[idx], y[idx]))
        assert search.best_stumps(w, y, side) == want
        if layout == "boundary":
            assert root[0] == step - 1  # the tie with the next block's first column

    def test_call_builds_no_feature_by_sample_temporary(self):
        """A two-sided call's numpy temporaries stay below half the size of
        one f x n float64 array."""
        rng = np.random.default_rng(5)
        n, f = 2000, 1000
        search = _StumpSearch(rng.random((n, f)))
        y = np.where(rng.random(n) < 0.3, 1.0, -1.0)
        w = np.full(n, 1.0 / n)
        side = rng.random(n) < 0.5
        tracemalloc.start()
        try:
            search.best_stumps(w, y, side)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f * n * 8 / 2

    def test_int32_keys_bound_the_feature_count(self):
        f = np.iinfo(np.int32).max // (N_THRESHOLD_QUANTILES + 1) + 1
        with pytest.raises(ValueError, match="too many candidate features"):
            _StumpSearch(np.broadcast_to(0.0, (1, f)))

    def test_agrees_with_exhaustive_search(self):
        rng = np.random.default_rng(2)
        n, f = 60, 7
        X = rng.random((n, f))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        w = rng.random(n)
        w /= w.sum()
        search = _StumpSearch(X)
        (fi, thr, pol, err), = search.best_stumps(w, y)

        best = np.inf
        k = N_THRESHOLD_QUANTILES
        for j in range(f):
            lo, hi = X[:, j].min(), X[:, j].max()
            for ki in range(k):
                t = lo + (hi - lo) * ki / (k - 1)
                for p in (+1, -1):
                    pred = np.where(p * (X[:, j] - t) > 0, 1.0, -1.0)
                    e = w[pred != y].sum()
                    best = min(best, e)
        assert err == pytest.approx(best, abs=1e-12)
        pred = np.where(pol * (X[:, fi] - thr) > 0, 1.0, -1.0)
        assert w[pred != y].sum() == pytest.approx(err, abs=1e-12)

    def test_subset_restriction(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 4))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        search = _StumpSearch(X)
        idx = np.arange(0, 40, 2)
        w = np.full(idx.size, 1.0 / idx.size)
        side = np.ones(40, dtype=bool)
        side[idx] = False
        fi, thr, pol, err = search.best_stumps(np.full(40, 1.0 / idx.size), y, side)[0]
        pred = np.where(pol * (X[idx, fi] - thr) > 0, 1.0, -1.0)
        assert w[pred != y[idx]].sum() == pytest.approx(err, abs=1e-12)


class TestFeatureMatrix:
    def test_entries_are_area_normalized_sums(self):
        rng = np.random.default_rng(4)
        stacks = [random_stack(rng) for _ in range(3)]
        rects = small_rects()
        X = compute_feature_matrix(stacks, rects)
        assert X.shape == (3, len(rects))
        for i in (0, 2):
            for j in (0, len(rects) // 2, len(rects) - 1):
                c, r = rects[j]
                sub = stacks[i].channels[c][int(r.y): int(r.y + r.h), int(r.x): int(r.x + r.w)]
                assert X[i, j] == pytest.approx(sub.mean(), abs=1e-9)

    def test_lazy_iterable_gives_the_list_rows(self):
        rng = np.random.default_rng(4)
        stacks = [random_stack(rng) for _ in range(3)]
        rects = small_rects()
        X = compute_feature_matrix(stacks, rects)
        assert np.array_equal(compute_feature_matrix((s for s in stacks), rects), X)
        assert compute_feature_matrix(iter([]), rects).shape == (0, len(rects))


    def test_pitch_8_rows_equal_pitch_1_rows(self):
        rng = np.random.default_rng(22)
        cfg = ChannelConfig("G_LUV")
        rects = default_candidate_rects(cfg)
        windows = [rng.random((128, 64, 3)) for _ in range(3)]
        X1 = compute_feature_matrix([compute_channels(w, cfg) for w in windows], rects)
        X8 = compute_feature_matrix([compute_channels(w, cfg, 8) for w in windows], rects)
        assert np.array_equal(X8, X1)
        mixed = [compute_channels(w, cfg, p) for w, p in zip(windows, (8, 1, 4))]
        assert np.array_equal(compute_feature_matrix(mixed, rects), X1)

    def test_fills_the_given_rows(self):
        rng = np.random.default_rng(23)
        stacks = [random_stack(rng) for _ in range(3)]
        rects = small_rects()
        out = np.zeros((5, len(rects)))
        compute_feature_matrix(stacks, rects, out[1:4])
        assert np.array_equal(out[1:4], compute_feature_matrix(stacks, rects))
        assert not out[0].any() and not out[4].any()
        with pytest.raises(ValueError, match="rows"):
            compute_feature_matrix(stacks[:2], rects, out[:3])

    def test_rejects_a_rectangle_off_the_pitch(self):
        stack = ChannelStack([np.ones(WIN)], pitch=4)
        with pytest.raises(ValueError, match="pitch"):
            compute_feature_matrix([stack], [(0, Box(2, 0, 4, 4))])


class TestTrainForest:
    def test_separable_pool_trains_and_separates(self):
        rng = np.random.default_rng(5)
        pos, neg = make_pool(rng)
        model = train_forest(pos, neg, 8, small_rects(), small_cfg(), WIN)
        pos_scores = [score_window(model, s, (0, 0)) for s in pos]
        neg_scores = [score_window(model, s, (0, 0)) for s in neg]
        assert min(pos_scores) > max(neg_scores)

    def test_weights_positive_and_log_populated(self):
        rng = np.random.default_rng(6)
        pos, neg = make_pool(rng, 30, 30)
        model = train_forest(pos, neg, 4, small_rects(), small_cfg(), WIN)
        assert all(a > 0 for a in model.tree_weights)
        assert len(model.training_log) == len(model.trees)
        for entry in model.training_log:
            assert 0.0 <= entry["epsilon"] < 0.5

    def test_alpha_formula(self):
        rng = np.random.default_rng(7)
        pos, neg = make_pool(rng, 25, 25)
        model = train_forest(pos, neg, 3, small_rects(), small_cfg(), WIN)
        for entry, alpha in zip(model.training_log, model.tree_weights):
            eps = max(entry["epsilon"], 1e-12)
            assert alpha == pytest.approx(0.5 * np.log((1 - eps) / eps), rel=1e-9)

    def test_determinism(self):
        rng1 = np.random.default_rng(8)
        rng2 = np.random.default_rng(8)
        pos1, neg1 = make_pool(rng1)
        pos2, neg2 = make_pool(rng2)
        m1 = train_forest(pos1, neg1, 5, small_rects(), small_cfg(), WIN)
        m2 = train_forest(pos2, neg2, 5, small_rects(), small_cfg(), WIN)
        assert forest_to_json(m1) == forest_to_json(m2)

    def test_rejects_empty_classes(self):
        rng = np.random.default_rng(9)
        pos, _ = make_pool(rng, 5, 5)
        with pytest.raises(ValueError):
            train_forest(pos, [], 4, small_rects(), small_cfg(), WIN)
        with pytest.raises(ValueError):
            train_forest(iter([]), iter(pos), 4, small_rects(), small_cfg(), WIN)

    def test_perfectly_separable_flags_early_stop(self):
        # one feature already separates: expect a degenerate (zero-error)
        # round and the early_stop flag after the first tree
        pos = [ChannelStack([np.full((WIN[0], WIN[1]), 1.0) for _ in range(3)])
               for _ in range(10)]
        neg = [ChannelStack([np.zeros((WIN[0], WIN[1])) for _ in range(3)])
               for _ in range(10)]
        model = train_forest(pos, neg, 16, small_rects(), small_cfg(), WIN)
        assert model.early_stop
        assert len(model.trees) == 1


class TestScoreWindowGrid:
    def test_matches_per_window_scoring(self):
        rng = np.random.default_rng(10)
        pos, neg = make_pool(rng, 20, 20)
        model = train_forest(pos, neg, 6, small_rects(), small_cfg(), WIN)
        stack = random_stack(rng, 48, 40)
        scores, xs, ys = score_window_grid(model, stack, stride=4)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                assert scores[i, j] == pytest.approx(
                    score_window(model, stack, (int(x), int(y))), abs=1e-9
                )

    @given(
        win=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        stride=st.integers(1, 9),
        extra=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        n_trees=st.integers(1, 5),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_is_bit_equal_to_listed_origins(self, win, stride, extra, n_trees, seed):
        rng = np.random.default_rng(seed)
        model = random_forest(rng, n_trees, win, n_channels=3)
        stack = random_stack(rng, win[0] + extra[0], win[1] + extra[1])
        scores, xs, ys = score_window_grid(model, stack, stride)
        assert xs.tolist() == list(range(0, extra[1] + 1, stride))
        assert ys.tolist() == list(range(0, extra[0] + 1, stride))
        ox, oy = (o.ravel() for o in np.meshgrid(xs, ys))
        want = forest_scores(model, node_decisions(split_nodes(model), stack.integrals, ox, oy))
        assert np.array_equal(scores, want.reshape(ys.size, xs.size))

    @given(
        cells=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        pitch=st.integers(1, 8),
        steps=st.integers(1, 3),
        extra=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_pitch_g_equals_pitch_one_on_an_aligned_forest(self, cells, pitch, steps, extra,
                                                           seed):
        rng = np.random.default_rng(seed)
        model = aligned_forest(rng, 3, cells, pitch)
        planes = [rng.random((model.model_window[0] + extra[0], model.model_window[1] + extra[1]))
                  for _ in range(3)]
        want = score_window_grid(model, ChannelStack(planes), pitch * steps)
        got = score_window_grid(model, ChannelStack(planes, pitch), pitch * steps)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_rejects_a_stride_or_rectangle_off_the_pitch(self):
        rng = np.random.default_rng(24)
        model = aligned_forest(rng, 2, (4, 2), 4)
        stack = ChannelStack([rng.random((40, 24)) for _ in range(3)], pitch=4)
        assert score_window_grid(model, stack, 8)[0].shape == (4, 3)
        with pytest.raises(ValueError, match="stride 6"):
            score_window_grid(model, stack, 6)
        with pytest.raises(ValueError, match="split nodes at pitch 1"):
            score_window_grid(model, stack, 8, split_nodes(model))
        off = dataclasses.replace(model.trees[1].left_child, rect=Box(2, 4, 4, 4))
        model.trees[1] = dataclasses.replace(model.trees[1], left_child=off)
        with pytest.raises(ValueError, match="pitch"):
            score_window_grid(model, stack, 4)
        assert score_window_grid(model, ChannelStack(stack.channels), 4)[0].shape == (7, 5)

    def test_too_small_stack_yields_empty_grid(self):
        rng = np.random.default_rng(11)
        pos, neg = make_pool(rng, 10, 10)
        model = train_forest(pos, neg, 2, small_rects(), small_cfg(), WIN)
        scores, xs, ys = score_window_grid(model, random_stack(rng, 8, 8), 4)
        assert scores.size == 0


class TestDetectPitch:
    @staticmethod
    def detect_with_pitches(monkeypatch, images, model, at_pitch_one=False):
        """Detections on every image and the integral pitches detect built."""
        pitches = set()

        def recording(img, cfg, pitch=1):
            pitches.add(pitch)
            return compute_channels(img, cfg, pitch)

        with monkeypatch.context() as m:
            m.setattr(forest_module, "compute_channels", recording)
            if at_pitch_one:
                m.setattr(forest_module, "region_pitch", lambda *args: 1)
            dets = [detect(img, model, TINY_SLIDING) for _, img in images]
        return dets, pitches

    def test_aligned_forest_reads_at_the_stride_gcd(self, tiny_world, tiny_forest, monkeypatch):
        images = tiny_world[0][:3]
        dets, pitches = self.detect_with_pitches(monkeypatch, images, tiny_forest)
        want, ones = self.detect_with_pitches(monkeypatch, images, tiny_forest, True)
        assert (pitches, ones) == ({4}, {1})
        assert sum(map(len, dets)) > 0 and dets == want

    def test_forest_off_the_grid_reads_at_pitch_one(self, tiny_world, tiny_forest, monkeypatch):
        images = tiny_world[0][:3]
        model = dataclasses.replace(tiny_forest, trees=list(tiny_forest.trees))
        root = dataclasses.replace(model.trees[0].root, rect=Box(3, 5, 8, 8))
        model.trees[0] = dataclasses.replace(model.trees[0], root=root)
        dets, pitches = self.detect_with_pitches(monkeypatch, images, model)
        want, _ = self.detect_with_pitches(monkeypatch, images, model, True)
        assert pitches == {1}
        assert sum(map(len, dets)) > 0 and dets == want
        assert dets != self.detect_with_pitches(monkeypatch, images, tiny_forest)[0]


class TestDetectOutput:
    def test_builds_detections_only_for_survivors(self, tiny_world, tiny_forest, monkeypatch):
        """Every window above threshold enters NMS as an array row; only the
        rows NMS keeps become Detection objects."""
        built, rows = [], []

        def counting(*args):
            built.append(Detection(*args))
            return built[-1]

        def nms_spy(boxes, scores, thr):
            rows.append(len(boxes))
            return nms(boxes, scores, thr)

        monkeypatch.setattr(forest_module, "Detection", counting)
        monkeypatch.setattr(forest_module, "nms", nms_spy)
        dets = detect(tiny_world[0][0][1], tiny_forest, TINY_SLIDING)
        assert dets == built and 0 < len(dets) < rows[0]

    def test_image_below_the_coarsest_scale_has_no_detections(self, tiny_forest):
        assert detect(np.zeros((10, 10, 3)), tiny_forest, TINY_SLIDING) == []


class TestSlidingWindowConfig:
    @pytest.mark.parametrize("field, value", [
        ("min_height", 0), ("min_height", -10), ("score_threshold", float("nan")),
    ])
    def test_rejects_values_that_give_silent_or_late_failures(self, field, value):
        with pytest.raises(ValueError, match=field):
            SlidingWindowConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("min_height", 1), ("min_height", 18), ("min_height", 60), ("score_threshold", -1e9),
    ])
    def test_keeps_the_values_in_use(self, field, value):
        assert getattr(SlidingWindowConfig(**{field: value}), field) == value


class TestPyramid:
    def test_ratios_decrease_by_scale_step(self):
        rng = np.random.default_rng(12)
        pos, neg = make_pool(rng, 10, 10)
        model = train_forest(pos, neg, 2, small_rects(), small_cfg(), WIN)
        cfg = SlidingWindowConfig(min_height=20)
        ratios = pyramid_ratios(200, 200, model, cfg)
        assert len(ratios) >= 2
        for a, b in zip(ratios, ratios[1:]):
            assert a / b == pytest.approx(cfg.scale_step)
        # finest ratio maps min_height objects onto the model extent
        assert ratios[0] == pytest.approx(WIN[0] * 0.75 / cfg.min_height)

    def test_tiny_image_has_no_scales(self):
        rng = np.random.default_rng(13)
        pos, neg = make_pool(rng, 10, 10)
        model = train_forest(pos, neg, 2, small_rects(), small_cfg(), WIN)
        assert pyramid_ratios(4, 4, model, SlidingWindowConfig(min_height=24)) == []


class TestFilterProposals:
    def test_keeps_everything_when_under_budget(self):
        dets = [[Detection(Box(0, 0, 5, 5), 1.0)], []]
        thr, out = filter_proposals(dets, 3.0)
        assert thr == -np.inf
        assert out == dets

    def test_threshold_hits_budget(self):
        per = [
            [Detection(Box(0, 0, 5, 5), s) for s in (0.9, 0.8, 0.1)],
            [Detection(Box(0, 0, 5, 5), s) for s in (0.7, 0.2)],
        ]
        thr, out = filter_proposals(per, 1.0)  # 2 images -> keep at most 2
        kept = sum(len(p) for p in out)
        assert kept <= 2
        assert thr == pytest.approx(0.8)

    def test_matches_naive_threshold_search(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            per = [
                [Detection(Box(0, 0, 5, 5), float(rng.normal()))
                 for _ in range(rng.integers(0, 8))]
                for _ in range(int(rng.integers(1, 6)))
            ]
            target = float(rng.uniform(0.5, 4.0))
            thr, out = filter_proposals(per, target)
            allowed = int(np.floor(target * len(per)))
            scores = sorted((d.score for p in per for d in p), reverse=True)
            # naive: smallest unique score whose at-or-above count fits
            best = -np.inf
            if len(scores) > allowed:
                best = np.inf
                for s in sorted(set(scores), reverse=True):
                    if sum(1 for v in scores if v >= s) <= allowed:
                        best = s
            assert thr == pytest.approx(best)
            assert sum(len(p) for p in out) <= max(allowed, 0) or best == np.inf

    def test_top_score_tie_over_budget_keeps_first_in_order(self):
        per = [[Detection(Box(i, f, 5, 5), 1.0) for i in range(2)] for f in range(2)]
        thr, out = filter_proposals(per, 1.0)  # 2 images -> keep 2 of 4 tied
        assert thr == 1.0
        assert out == [per[0], []]

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            filter_proposals([[]], 0.0)

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_rejects_non_finite_target_naming_it(self, target):
        det = Detection(Box(0, 0, 5, 5), 1.0)
        with pytest.raises(ValueError, match=f"target_avg .* got {target}"):
            filter_proposals([[det]], target)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(15)
        pos, neg = make_pool(rng, 15, 15)
        model = train_forest(pos, neg, 4, small_rects(), small_cfg(), WIN)
        back = forest_from_json(forest_to_json(model))
        assert forest_to_json(back) == forest_to_json(model)
        stack = random_stack(rng)
        assert score_window(back, stack, (0, 0)) == score_window(model, stack, (0, 0))

    def test_rejects_wrong_version(self):
        rng = np.random.default_rng(16)
        pos, neg = make_pool(rng, 10, 10)
        d = forest_to_json(train_forest(pos, neg, 2, small_rects(), small_cfg(), WIN))
        d["version"] = 99
        with pytest.raises(ValueError):
            forest_from_json(d)

    @pytest.mark.parametrize("node, rect", [
        ("root", [-1, 0, 4, 4]),  # left of the window
        ("left", [0, 29, 4, 4]),  # below it (WIN is 32 high)
        ("right", [13, 0, 4, 4]),  # right of it (WIN is 16 wide)
        ("root", [0, 0, 16, 33]),  # taller than it
    ])
    def test_rejects_rectangle_outside_model_window(self, node, rect):
        d = forest_to_json(random_forest(np.random.default_rng(17), 2, WIN, n_channels=3))
        forest_from_json(d)
        d["trees"][1][node]["rect"] = rect
        with pytest.raises(ValueError, match="outside"):
            forest_from_json(d)

    def test_rejects_channel_outside_stack(self):
        d = forest_to_json(random_forest(np.random.default_rng(18), 2, WIN, n_channels=3))
        d["trees"][0]["right"]["channel"] = 3  # RGB has channels 0-2
        with pytest.raises(ValueError, match="outside"):
            forest_from_json(d)

    @pytest.mark.parametrize("trees, weights, match", [
        (slice(0, 0), slice(0, 0), "at least one"),  # no trees
        (slice(None), slice(0, 1), "equally many"),  # a weight short
    ])
    def test_rejects_tree_and_weight_counts(self, trees, weights, match):
        d = forest_to_json(random_forest(np.random.default_rng(20), 2, WIN, n_channels=3))
        d["trees"], d["tree_weights"] = d["trees"][trees], d["tree_weights"][weights]
        with pytest.raises(ValueError, match=match):
            forest_from_json(d)

    @pytest.mark.parametrize("n_leaves", [3, 5])
    def test_rejects_leaf_count(self, n_leaves):
        d = forest_to_json(random_forest(np.random.default_rng(21), 2, WIN, n_channels=3))
        d["trees"][1]["leaves"] = [0.5] * n_leaves
        with pytest.raises(ValueError, match="4 leaf values"):
            forest_from_json(d)

    def test_pre_blur_loads_only_as_false_or_missing(self):
        d = forest_to_json(random_forest(np.random.default_rng(22), 2, WIN, n_channels=3))
        assert d["channel_cfg"]["pre_blur"] is False
        del d["channel_cfg"]["pre_blur"]
        assert forest_to_json(forest_from_json(d))["channel_cfg"]["pre_blur"] is False
        d["channel_cfg"]["pre_blur"] = True
        with pytest.raises(ValueError, match="pre_blur"):
            forest_from_json(d)

    def test_rectangle_filling_the_window_loads(self):
        d = forest_to_json(random_forest(np.random.default_rng(19), 1, WIN, n_channels=3))
        d["trees"][0]["root"]["rect"] = [0, 0, WIN[1], WIN[0]]
        model = forest_from_json(d)
        scores, _, _ = score_window_grid(model, random_stack(np.random.default_rng(0)), 1)
        assert scores.shape == (1, 1)
