import importlib.util
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_CCFG, TINY_GEOM, TINY_SLIDING
from pedcascade import cascade as cascade_module
from pedcascade.cascade import (
    _random_negatives,
    CascadeConfig,
    CascadeError,
    CascadeTrainConfig,
    IdentityRescorer,
    NetRescorer,
    SvmRescorer,
    TimingReport,
    load_rescorer,
    run_cascade,
    save_rescorer,
    train_cascade,
    train_proposal_forest,
)
from pedcascade.channels import compute_channels
from pedcascade.convnet import (
    NetModel, NetSpec, ConvSpec, PoolSpec, ReLUSpec, FCSpec, SoftmaxSpec, TrainConfig,
    read_net, save_net,
)
from pedcascade.data import BatchRatio, BatchSampler, extract_window, jittered_negatives
from pedcascade.forest import (detect, default_candidate_rects, filter_proposals,
                               forest_to_json, train_forest)
from pedcascade.geometry import nms


def base_config(forest, **kw):
    defaults = dict(
        proposal_model=forest,
        rescorer=IdentityRescorer(),
        sliding=TINY_SLIDING,
        geometry=TINY_GEOM,
    )
    defaults.update(kw)
    return CascadeConfig(**defaults)


class TestConfigValidation:
    def test_bad_blend(self, tiny_forest):
        with pytest.raises(ValueError):
            base_config(tiny_forest, score_blend="mix")

    def test_bad_filter_avg(self, tiny_forest):
        with pytest.raises(ValueError):
            base_config(tiny_forest, proposal_filter_avg=0.0)

    def test_bad_rescorer_kind(self):
        with pytest.raises(ValueError):
            CascadeTrainConfig(rescorer_kind="forest")


class TestTimingReport:
    def test_consistent_accepts_valid(self):
        r = TimingReport(1.0, 10.0, 20.0, 5)
        assert r.consistent(n_images=2)

    def test_consistent_rejects_component_overflow(self):
        r = TimingReport(100.0, 10.0, 20.0, 50)
        assert not r.consistent(n_images=2)

    def test_empty_run_report(self):
        out, report = run_cascade([], CascadeConfig(None, IdentityRescorer()))
        assert out == {}
        assert report.consistent(0)
        assert report.windows_scored == 0


class TestSvmRescorer:
    def test_linear_head_on_centred_features(self):
        spec = NetSpec((3, 8, 6), [ConvSpec(2, 3, pad=1), PoolSpec("max"), ReLUSpec(),
                                   FCSpec(5), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=4, init_sigma=0.5, first_layer_sigma=0.5)
        rng = np.random.default_rng(1)
        windows = rng.random((4, 8, 6, 3))
        w, b = rng.normal(size=5), 0.25
        scores = np.zeros(len(windows))

        mean = 0.4
        got = SvmRescorer(model, w, b, "fc1", input_mean=mean)(windows, scores)
        phi = model.features(windows.transpose(0, 3, 1, 2) - mean, "fc1")
        assert np.array_equal(got, phi @ w + b)

        uncentred = SvmRescorer(model, w, b, "fc1")(windows, scores)
        assert not np.allclose(got, uncentred)


class TestRunCascade:
    def test_identity_matches_filtered_proposals(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        cfg = base_config(tiny_forest)
        out, report = run_cascade(images, cfg)

        proposals = [detect(img, tiny_forest, TINY_SLIDING) for _, img in images]
        _, filtered = filter_proposals(proposals, cfg.proposal_filter_avg)
        for (fid, _), dets in zip(images, filtered):
            assert out[fid] == nms(dets, cfg.final_nms_iou)
        assert report.consistent(len(images))
        assert report.windows_scored == sum(len(v) for v in out.values()) or True

    def test_blend_none_skips_rescoring(self, tiny_world, tiny_forest):
        images, _ = tiny_world

        def exploding(wins, scores):  # pragma: no cover - must not run
            raise AssertionError("rescorer called despite blend none")

        cfg = base_config(tiny_forest, rescorer=exploding, score_blend="none")
        out, report = run_cascade(images, cfg)
        assert report.windows_scored == 0
        assert any(out.values())

    def test_rescoring_keeps_geometry(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        rng = np.random.default_rng(0)

        def jumble(wins, scores):
            return rng.random(len(scores))

        # final NMS at IoU 1.0 suppresses nothing: it removes only IoU > threshold
        cfg = base_config(tiny_forest, rescorer=jumble, final_nms_iou=1.0)
        out, _ = run_cascade(images, cfg)

        proposals = [detect(img, tiny_forest, TINY_SLIDING) for _, img in images]
        _, filtered = filter_proposals(proposals, cfg.proposal_filter_avg)
        for (fid, _), dets in zip(images, filtered):
            assert Counter(d.box for d in out[fid]) == Counter(d.box for d in dets)

    def test_rescorer_window_shapes(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        seen = []

        def probe(wins, scores):
            seen.append(wins.shape)
            return scores

        cfg = base_config(tiny_forest, rescorer=probe)
        run_cascade(images, cfg)
        for shape in seen:
            assert shape[1:] == (32, 16, 3)

    def test_duplicate_frame_ids_rejected(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        dup = [images[0], images[0]]
        with pytest.raises(CascadeError, match="duplicate"):
            run_cascade(dup, base_config(tiny_forest))

    def test_failing_rescorer_names_frame(self, tiny_world, tiny_forest):
        images, _ = tiny_world

        def broken(wins, scores):
            raise RuntimeError("boom")

        with pytest.raises(CascadeError, match="w00"):
            run_cascade(images, base_config(tiny_forest, rescorer=broken))

    def test_deterministic(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        cfg = base_config(tiny_forest)
        out1, _ = run_cascade(images, cfg)
        out2, _ = run_cascade(images, cfg)
        assert out1 == out2


def tiny_net_spec():
    return NetSpec(
        (3, 32, 16),
        [ConvSpec(4, 3), PoolSpec("max"), ReLUSpec(),
         FCSpec(8), ReLUSpec(), FCSpec(2), SoftmaxSpec()],
    )


class TestTrainCascade:
    def test_rejects_empty(self):
        with pytest.raises(CascadeError):
            train_cascade([], [], CascadeTrainConfig())

    def test_identity_cascade_trains_and_runs(self, tiny_world):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=8, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, rescorer_kind="identity",
            forest_negatives_per_frame=6,
        )
        cascade = train_cascade(images, frames, cfg)
        assert isinstance(cascade.rescorer, IdentityRescorer)
        assert cascade.score_blend == "none"
        out, report = run_cascade(images, cascade)
        assert report.consistent(len(images))
        # the proposal stage should find most of the easy figures
        hit = sum(1 for fid, dets in out.items() if dets)
        assert hit >= len(images) // 2

    def test_net_cascade_trains_and_rescoring_runs(self, tiny_world):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=8, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, rescorer_kind="net",
            net_spec=tiny_net_spec(),
            net_train=TrainConfig(batch=12, epochs=2, extra_epochs=1, seed=0),
            ratio=BatchRatio(1, 5),
            forest_negatives_per_frame=6,
        )
        cascade = train_cascade(images, frames, cfg)
        assert isinstance(cascade.rescorer, NetRescorer)
        out, report = run_cascade(images, cascade)
        for dets in out.values():
            for d in dets:
                assert 0.0 <= d.score <= 1.0
        assert report.windows_scored > 0
        assert report.consistent(len(images))

    def test_deterministic_training(self, tiny_world):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=3, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, rescorer_kind="identity",
            forest_negatives_per_frame=5, seed=3,
        )
        a = train_cascade(images, frames, cfg)
        b = train_cascade(images, frames, cfg)
        from pedcascade.forest import forest_to_json

        assert forest_to_json(a.proposal_model) == forest_to_json(b.proposal_model)


def eager_forest_pool(images, frames, cfg, rng):
    """Lists of every forest training window's channel stack, all built up
    front: the oracle for the streamed forest_training_pool."""
    pos, neg = [], []
    for (_, img), ann in zip(images, frames):
        pos.extend(compute_channels(extract_window(img, b, cfg.geometry), cfg.channel_cfg)
                   for b in ann.gt_boxes)
        keep = _random_negatives(cfg.forest_negatives_per_frame, img, ann, cfg.geometry,
                                 cfg, rng)
        keep += jittered_negatives(ann.gt_boxes, 3, (img.height, img.width), rng,
                                   cfg.policy.neg_iou)
        neg.extend(compute_channels(extract_window(img, b, cfg.geometry), cfg.channel_cfg)
                   for b in keep)
    return pos, neg


class TestForestPoolStreaming:
    def test_streams_stacks_and_trains_the_eager_forest(self, tiny_world, monkeypatch):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(n_trees=4, sliding=TINY_SLIDING, geometry=TINY_GEOM,
                                 channel_cfg=TINY_CCFG, forest_negatives_per_frame=6, seed=3)
        live, peak, built = [0], [0], [0]

        def released():
            live[0] -= 1

        def tracked(*args, **kwargs):
            stack = compute_channels(*args, **kwargs)
            built[0] += 1
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            weakref.finalize(stack, released)
            return stack

        monkeypatch.setattr(cascade_module, "compute_channels", tracked)
        streamed = train_proposal_forest(images, frames, cfg)
        monkeypatch.undo()

        pos, neg = eager_forest_pool(images, frames, cfg, np.random.default_rng(cfg.seed))
        assert built[0] == len(pos) + len(neg)
        assert 1 <= peak[0] <= 2
        rects = default_candidate_rects(cfg.channel_cfg, cfg.geometry.window)
        eager = train_forest(pos, neg, cfg.n_trees, rects, cfg.channel_cfg, cfg.geometry.window)
        assert forest_to_json(streamed) == forest_to_json(eager)


    def test_pool_stacks_are_built_at_the_rectangles_pitch(self, tiny_world, monkeypatch):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(n_trees=2, sliding=TINY_SLIDING, geometry=TINY_GEOM,
                                 channel_cfg=TINY_CCFG, forest_negatives_per_frame=2, seed=3)
        pitches = Counter()

        def recording(img, ccfg, pitch=1):
            pitches[pitch] += 1
            return compute_channels(img, ccfg, pitch)

        monkeypatch.setattr(cascade_module, "compute_channels", recording)
        train_proposal_forest(images, frames, cfg)
        assert list(pitches) == [8] and pitches[8] > len(frames)


class TestRescorerFile:
    @staticmethod
    def model():
        spec = NetSpec((3, 8, 6), [ConvSpec(2, 3, pad=1), PoolSpec("max"), ReLUSpec(),
                                   FCSpec(5), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        return NetModel(spec, seed=4, init_sigma=0.5, first_layer_sigma=0.5)

    def test_svm_head_roundtrip(self, tmp_path):
        head = SvmRescorer(self.model(), np.arange(5.0) / 7, 0.3, "fc1", input_mean=0.45)
        path = tmp_path / "svm.bin"
        save_rescorer(head, path)
        back = load_rescorer(path)
        assert isinstance(back, SvmRescorer)
        assert np.array_equal(back.w, head.w)
        assert (back.b, back.feature_layer, back.input_mean) == (0.3, "fc1", 0.45)
        windows = np.random.default_rng(0).random((3, 8, 6, 3))
        assert np.array_equal(back(windows, None), head(windows, None))

    def test_file_without_mean_loads_as_mean_zero(self, tmp_path):
        """Net files written before the header kept a mean load as mean 0."""
        model = self.model()
        path = tmp_path / "net.bin"
        save_net(model, path)
        assert "input_mean" not in read_net(path)[1]
        back = load_rescorer(path)
        assert isinstance(back, NetRescorer) and back.input_mean == 0.0
        windows = np.random.default_rng(0).random((3, 8, 6, 3))
        assert np.array_equal(back(windows, None),
                              model.scores(windows.transpose(0, 3, 1, 2)))

    def test_rejects_head_that_does_not_fit(self, tmp_path):
        path = tmp_path / "svm.bin"
        save_rescorer(SvmRescorer(self.model(), np.ones(4), 0.0, "fc1"), path)
        with pytest.raises(ValueError, match=str(path)):
            load_rescorer(path)


def test_default_batch_fits_default_ratio():
    labels = [1] * 4 + [0] * 20
    windows = [np.zeros(2)] * len(labels)
    sampler = BatchSampler(windows, labels, TrainConfig().batch, CascadeTrainConfig().ratio)
    x, y = sampler.next_batch()
    assert len(y) == TrainConfig().batch and 6 * int(np.sum(y)) == len(y)


def test_synth_cascade_script_smoke(monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_synth_cascade.py"
    spec = importlib.util.spec_from_file_location("run_synth_cascade", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_synth_cascade.py", "--frames", "12",
                                      "--test-frames", "4", "--trees", "4", "--epochs", "1"])
    script.main()
    out = capsys.readouterr().out
    assert "] proposals: " in out and ", recall@0.5 " in out and ", LAMR " in out
    assert "] cascade: LAMR " in out
