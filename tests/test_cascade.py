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
    CascadeConfig,
    CascadeError,
    CascadeTrainConfig,
    NetRescorer,
    TimingReport,
    load_rescorer,
    propose,
    rescore,
    rescorer_training_pool,
    run_cascade,
    save_rescorer,
    train_cascade,
    train_proposal_forest,
    train_rescorer,
)
from pedcascade.channels import compute_channels
from pedcascade.convnet import (
    NetModel, NetSpec, ConvSpec, PoolSpec, ReLUSpec, FCSpec, SoftmaxSpec, TrainConfig,
    read_net, save_net,
)
from pedcascade.data import (BatchRatio, BatchSampler, LabelingPolicy, detections_to_json,
                             extract_window, jittered_negatives, random_boxes)
from pedcascade.forest import (detect, default_candidate_rects, filter_proposals,
                               forest_to_json, train_forest)
from pedcascade.geometry import NMS_IOU, Box, Detection, iou_matrix

from test_geometry import nms_detections


def identity(windows, scores):
    return scores


def base_config(forest, **kw):
    defaults = dict(
        proposal_model=forest,
        rescorer=identity,
        sliding=TINY_SLIDING,
        geometry=TINY_GEOM,
    )
    defaults.update(kw)
    return CascadeConfig(**defaults)


class TestConfigValidation:
    def test_bad_filter_avg(self, tiny_forest):
        with pytest.raises(ValueError):
            base_config(tiny_forest, proposal_filter_avg=0.0)

    @pytest.mark.parametrize("avg", [float("nan"), float("inf")])
    def test_non_finite_filter_avg_is_named(self, tiny_forest, avg):
        with pytest.raises(ValueError, match=f"proposal_filter_avg .* got {avg}"):
            base_config(tiny_forest, proposal_filter_avg=avg)
        with pytest.raises(ValueError, match=f"proposal_filter_avg .* got {avg}"):
            CascadeTrainConfig(proposal_filter_avg=avg)


class TestTimingReport:
    def test_consistent_accepts_valid(self):
        r = TimingReport(1.0, 10.0, 20.0, 5)
        assert r.consistent(n_images=2)

    def test_consistent_rejects_component_overflow(self):
        r = TimingReport(100.0, 10.0, 20.0, 50)
        assert not r.consistent(n_images=2)

    def test_empty_run_report(self):
        out, report = run_cascade([], CascadeConfig(None, None))
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
        got = NetRescorer(model, mean, w, b, "fc1")(windows, scores)
        phi = model.features(windows.transpose(0, 3, 1, 2) - mean, "fc1")
        assert np.array_equal(got, phi @ w + b)

        uncentred = NetRescorer(model, 0.0, w, b, "fc1")(windows, scores)
        assert not np.allclose(got, uncentred)


class TestRunCascade:
    def test_identity_matches_filtered_proposals(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        cfg = base_config(tiny_forest)
        out, report = run_cascade(images, cfg)

        proposals = [detect(img, tiny_forest, TINY_SLIDING) for _, img in images]
        _, filtered = filter_proposals(proposals, cfg.proposal_filter_avg)
        for (fid, _), dets in zip(images, filtered):
            assert out[fid] == nms_detections(dets, NMS_IOU)
        assert report.consistent(len(images))
        assert report.windows_scored == sum(map(len, filtered))

    def test_no_rescorer_skips_rescoring(self, tiny_world, tiny_forest, monkeypatch):
        images, _ = tiny_world

        def exploding(*args):  # pragma: no cover - must not run
            raise AssertionError("window extracted without a rescorer")

        monkeypatch.setattr(cascade_module, "extract_window", exploding)
        out, report = run_cascade(images, base_config(tiny_forest, rescorer=None))
        assert report.windows_scored == 0
        assert any(out.values())

    def test_nan_rescore_is_a_value_error(self, tiny_world, tiny_forest):
        images, _ = tiny_world

        def nan(wins, scores):
            return np.full(len(scores), np.nan)

        with pytest.raises(ValueError, match="non-finite"):
            run_cascade(images, base_config(tiny_forest, rescorer=nan))

    def test_rescoring_keeps_geometry(self, tiny_world, tiny_forest):
        """The output is the final NMS of the proposal boxes, untouched, under
        the scores the rescorer gave them."""
        images, _ = tiny_world
        rng = np.random.default_rng(0)
        given = []

        def jumble(wins, scores):
            given.append(rng.random(len(scores)))
            return given[-1]

        cfg = base_config(tiny_forest, rescorer=jumble)
        out, _ = run_cascade(images, cfg)

        proposals = [detect(img, tiny_forest, TINY_SLIDING) for _, img in images]
        _, filtered = filter_proposals(proposals, cfg.proposal_filter_avg)
        given.reverse()
        for (fid, _), dets in zip(images, filtered):
            scores = given.pop().tolist() if dets else []
            rescored = [Detection(d.box, s) for d, s in zip(dets, scores)]
            assert out[fid] == nms_detections(rescored, NMS_IOU)
        assert not given and any(out.values())

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


def detect_failing_on(bad):
    """forest.detect, except that it raises on the image `bad`."""
    def failing(img, model, sliding):
        if img is bad:
            raise RuntimeError("boom")
        return detect(img, model, sliding)
    return failing


class TestProposeRescore:
    """run_cascade is propose, then rescore."""

    @pytest.mark.parametrize("kind", ["none", "identity", "net"])
    def test_run_cascade_is_propose_then_rescore(self, tiny_world, tiny_forest, kind):
        images, _ = tiny_world
        rescorer = {"none": None, "identity": identity,
                    "net": NetRescorer(NetModel(tiny_net_spec(), seed=1), input_mean=0.3)}[kind]
        cfg = base_config(tiny_forest, rescorer=rescorer)
        out, _ = run_cascade(images, cfg)

        threshold, proposals = propose(images, tiny_forest, cfg.sliding,
                                       cfg.proposal_filter_avg)
        dets = [detect(img, tiny_forest, TINY_SLIDING) for _, img in images]
        want_threshold, kept = filter_proposals(dets, cfg.proposal_filter_avg)
        assert threshold == want_threshold
        assert list(proposals.items()) == [(fid, k) for (fid, _), k in zip(images, kept)]
        got = rescore(images, proposals, rescorer, cfg.geometry)
        assert detections_to_json(got) == detections_to_json(out)

    def test_rescore_rejects_misaligned_proposals(self, tiny_world, tiny_forest):
        """Proposals pair with images by frame id: an image without them is
        named, proposals of other frames are ignored, and their order does
        not matter."""
        images, _ = tiny_world
        _, proposals = propose(images, tiny_forest, TINY_SLIDING, 3.0)
        missing = {fid: p for fid, p in proposals.items() if fid != images[4][0]}
        with pytest.raises(CascadeError, match=f"frame {images[4][0]!r} has no proposals"):
            rescore(images, missing, identity, TINY_GEOM)
        out = rescore(images, proposals, identity, TINY_GEOM)
        assert rescore(images[:-1], proposals, identity, TINY_GEOM) == {
            fid: out[fid] for fid, _ in images[:-1]}
        assert rescore(images, dict(reversed(proposals.items())), identity, TINY_GEOM) == out

    def test_rescore_rejects_duplicate_frame_ids(self, tiny_world, tiny_forest):
        images, _ = tiny_world
        _, proposals = propose(images[:1], tiny_forest, TINY_SLIDING, 3.0)
        with pytest.raises(CascadeError, match=f"duplicate frame id {images[0][0]!r}"):
            rescore(images[:1] * 2, proposals, identity, TINY_GEOM)

    def test_rescore_without_rescorer_extracts_no_window(self, tiny_world, tiny_forest,
                                                         monkeypatch):
        images, _ = tiny_world
        _, proposals = propose(images, tiny_forest, TINY_SLIDING, 3.0)

        def exploding(*args):  # pragma: no cover - must not run
            raise AssertionError("window extracted without a rescorer")

        monkeypatch.setattr(cascade_module, "extract_window", exploding)
        out = rescore(images, proposals, None, TINY_GEOM)
        assert [out[fid] for fid, _ in images] == [
            nms_detections(p, NMS_IOU) for p in proposals.values()]
        assert any(out.values())

    def test_propose_failure_names_frame(self, tiny_world, tiny_forest, monkeypatch):
        images, _ = tiny_world
        monkeypatch.setattr(cascade_module, "detect", detect_failing_on(images[1][1]))
        with pytest.raises(CascadeError, match=f"frame {images[1][0]}: proposal stage"):
            propose(images, tiny_forest, TINY_SLIDING, 3.0)


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
        """A proposals-only cascade: the trained forest and no rescorer."""
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=8, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, forest_negatives_per_frame=6,
        )
        cascade = CascadeConfig(train_proposal_forest(images, frames, cfg), None,
                                sliding=cfg.sliding, geometry=cfg.geometry)
        out, report = run_cascade(images, cascade)
        assert report.consistent(len(images))
        # the proposal stage should find most of the easy figures
        hit = sum(1 for fid, dets in out.items() if dets)
        assert hit >= len(images) // 2

    def test_net_cascade_trains_and_rescoring_runs(self, tiny_world):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=8, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, net_spec=tiny_net_spec(),
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

    def test_detect_failure_in_training_names_frame(self, tiny_world, monkeypatch):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(n_trees=2, sliding=TINY_SLIDING, geometry=TINY_GEOM,
                                 channel_cfg=TINY_CCFG, forest_negatives_per_frame=2)
        monkeypatch.setattr(cascade_module, "detect", detect_failing_on(images[2][1]))
        with pytest.raises(CascadeError, match=f"frame {images[2][0]}: .*boom"):
            train_cascade(images, frames, cfg)

    def test_rescorer_is_trained_on_the_proposals_propose_gives(self, tiny_world,
                                                                 tmp_path):
        """train_cascade is train_proposal_forest, propose over the training
        frames, then train_rescorer on those proposals, so a caller that runs
        the three stages itself gets the same forest and rescorer."""
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=8, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, net_spec=tiny_net_spec(),
            net_train=TrainConfig(batch=12, epochs=2, extra_epochs=1, seed=0),
            forest_negatives_per_frame=6,
        )
        cascade = train_cascade(images, frames, cfg)
        forest = train_proposal_forest(images, frames, cfg)
        assert forest_to_json(forest) == forest_to_json(cascade.proposal_model)
        _, proposals = propose(images, forest, cfg.sliding, cfg.proposal_filter_avg)
        again = train_rescorer(images, frames, proposals, cfg)
        assert again.input_mean == cascade.rescorer.input_mean
        save_net(cascade.rescorer.model, tmp_path / "a.bin")
        save_net(again.model, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_deterministic_training(self, tiny_world):
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=3, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, forest_negatives_per_frame=5, seed=3,
        )
        a = train_proposal_forest(images, frames, cfg)
        b = train_proposal_forest(images, frames, cfg)
        assert forest_to_json(a) == forest_to_json(b)


def never_called(*args, **kwargs):  # pragma: no cover - must not run
    raise AssertionError("trained on frames that are not all annotated")


class TestPairing:
    """Training looks each image's annotation and proposals up by frame id:
    their order does not matter and entries of other frames are ignored.  An
    image whose id repeats, or that they lack, is a CascadeError naming the
    frame before anything is fitted."""

    CFG = CascadeTrainConfig(n_trees=2, sliding=TINY_SLIDING, geometry=TINY_GEOM,
                             channel_cfg=TINY_CCFG, forest_negatives_per_frame=2)

    def test_more_images_than_annotations(self, tiny_world, monkeypatch):
        images, frames = tiny_world
        monkeypatch.setattr(cascade_module, "train_forest", never_called)
        with pytest.raises(CascadeError, match="frame 'w003' has no annotation"):
            train_proposal_forest(images, frames[:3] + frames[4:], self.CFG)
        with pytest.raises(CascadeError, match="frame 'w009' has no annotation"):
            train_cascade(images, frames[:9], self.CFG)

    def test_more_annotations_than_images(self, tiny_world):
        images, frames = tiny_world
        want = forest_to_json(train_proposal_forest(images[:9], frames[:9], self.CFG))
        assert forest_to_json(train_proposal_forest(images[:9], frames, self.CFG)) == want
        proposals = {ann.frame_id: probe_proposals(ann) for ann in frames}
        rng = np.random.default_rng(0)
        windows, labels = rescorer_training_pool(images[:9], frames, proposals, self.CFG, rng)
        kept = {fid: proposals[fid] for fid, _ in images[:9]}
        want_windows, want_labels = rescorer_training_pool(images[:9], frames[:9], kept,
                                                           self.CFG, rng)
        assert np.array_equal(windows, want_windows)
        assert np.array_equal(labels, want_labels)

    def test_mispaired_frames(self, tiny_world, tmp_path):
        """Reversed annotations train the same forest and net bytes as
        annotations in image order."""
        images, frames = tiny_world
        cfg = CascadeTrainConfig(
            n_trees=8, sliding=TINY_SLIDING, geometry=TINY_GEOM,
            channel_cfg=TINY_CCFG, net_spec=tiny_net_spec(),
            net_train=TrainConfig(batch=12, epochs=1, extra_epochs=0, seed=0),
            forest_negatives_per_frame=6,
        )
        in_order = train_cascade(images, frames, cfg)
        backwards = train_cascade(images, frames[::-1], cfg)
        assert (forest_to_json(backwards.proposal_model)
                == forest_to_json(in_order.proposal_model))
        save_rescorer(in_order.rescorer, tmp_path / "a.bin")
        save_rescorer(backwards.rescorer, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_repeated_frame_id(self, tiny_world, monkeypatch):
        images, frames = tiny_world
        monkeypatch.setattr(cascade_module, "train_forest", never_called)
        with pytest.raises(CascadeError, match="duplicate frame id 'w002'"):
            train_cascade(images + images[2:3], frames, self.CFG)
        with pytest.raises(CascadeError, match="duplicate frame id 'w002'"):
            train_cascade(images, frames + frames[2:3], self.CFG)

    def test_rescorer_pool(self, tiny_world):
        images, frames = tiny_world
        proposals = {fid: [] for fid, _ in images}
        rng = np.random.default_rng(0)
        with pytest.raises(CascadeError, match="frame 'w000' has no annotation"):
            rescorer_training_pool(images, frames[1:], proposals, self.CFG, rng)
        without_w001 = {fid: p for fid, p in proposals.items() if fid != "w001"}
        with pytest.raises(CascadeError, match="frame 'w001' has no proposals"):
            rescorer_training_pool(images, frames, without_w001, self.CFG, rng)
        with pytest.raises(CascadeError, match="frame 'w001' has no proposals"):
            train_rescorer(images, frames, without_w001, self.CFG)
        with pytest.raises(CascadeError, match="duplicate frame id 'w000'"):
            rescorer_training_pool(images[:1] * 2, frames, proposals, self.CFG, rng)


def eager_forest_pool(images, frames, cfg, rng):
    """Lists of every forest training window's channel stack, all built up
    front: the oracle for train_proposal_forest's streamed pool."""
    pos, neg = [], []
    for (_, img), ann in zip(images, frames):
        pos.extend(compute_channels(extract_window(img, b, cfg.geometry), cfg.channel_cfg)
                   for b in ann.gt_boxes)
        cand = random_boxes(cfg.forest_negatives_per_frame, (img.height, img.width), rng,
                            cfg.geometry, min_height=int(cfg.sliding.min_height))
        best = iou_matrix(cand, ann.gt_boxes).max(axis=1, initial=0.0)
        keep = [b for b, o in zip(cand, best) if o < cfg.policy.neg_iou]
        keep += jittered_negatives(ann.gt_boxes, 3, (img.height, img.width), rng, cfg.policy)
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


def eager_rescorer_pool(images, frames, proposals, cfg, rng):
    """Every rescorer training box, its 0/1 label and its window, written out
    frame by frame with the IoU rules spelt out: the oracle for
    rescorer_training_pool."""
    geom = cfg.net_geometry or cfg.geometry
    policy = cfg.policy
    boxes, labels, windows = [], [], []
    for (fid, img), ann in zip(images, frames):
        cand = [d.box for d in proposals[fid]]
        best = iou_matrix(cand, ann.gt_boxes).max(axis=1, initial=0.0)
        pos = [b for b, o in zip(cand, best)
               if policy.positive_source == "gt+proposals" and o > policy.pos_iou]
        pos += ann.gt_boxes
        if policy.neg_source == "random":
            cand = random_boxes(len(cand) + 4, (img.height, img.width), rng, geom,
                                min_height=int(cfg.sliding.min_height))
            best = iou_matrix(cand, ann.gt_boxes).max(axis=1, initial=0.0)
        neg = [b for b, o in zip(cand, best) if o < policy.neg_iou]
        boxes += pos + neg
        labels += [1] * len(pos) + [0] * len(neg)
        windows += [extract_window(img, b, geom) for b in pos + neg]
    return boxes, labels, windows


def probe_proposals(ann):
    """Per GT box a near copy, a half-shifted copy and a corner box: under
    pos_iou 0.6 and neg_iou 0.3 they label positive, ignore and (mostly)
    negative."""
    out = []
    for g in ann.gt_boxes:
        out += [Detection(Box(g.x + 1.0, g.y, g.w, g.h), 0.9),
                Detection(Box(g.x + g.w / 2, g.y, g.w, g.h), 0.5),
                Detection(Box(0.0, 0.0, g.w, g.h), 0.1)]
    return out


class TestRescorerPool:
    @pytest.mark.parametrize("neg_source", ["proposals", "random"])
    def test_matches_the_eager_pool(self, tiny_world, monkeypatch, neg_source):
        """Boxes in order, labels, windows and the generator's state after
        the draw all equal the oracle's."""
        images, frames = tiny_world
        proposals = {ann.frame_id: probe_proposals(ann) for ann in frames}
        cfg = CascadeTrainConfig(
            sliding=TINY_SLIDING, geometry=TINY_GEOM,
            policy=LabelingPolicy("gt+proposals", pos_iou=0.6, neg_iou=0.3,
                                  neg_source=neg_source))
        extracted = []

        def recording(img, box, geom):
            extracted.append(box)
            return extract_window(img, box, geom)

        monkeypatch.setattr(cascade_module, "extract_window", recording)
        rng = np.random.default_rng(5)
        windows, labels = rescorer_training_pool(images, frames, proposals, cfg, rng)
        monkeypatch.undo()

        oracle_rng = np.random.default_rng(5)
        boxes, want_labels, want_windows = eager_rescorer_pool(images, frames, proposals,
                                                               cfg, oracle_rng)
        assert extracted == boxes
        assert np.asarray(labels).tolist() == want_labels
        assert np.array_equal(np.stack(windows), np.stack(want_windows))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert sum(want_labels) > len(frames)  # proposals were promoted
        assert want_labels.count(0) >= len(frames)


class TestRescorerFile:
    @staticmethod
    def model():
        spec = NetSpec((3, 8, 6), [ConvSpec(2, 3, pad=1), PoolSpec("max"), ReLUSpec(),
                                   FCSpec(5), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        return NetModel(spec, seed=4, init_sigma=0.5, first_layer_sigma=0.5)

    def test_svm_head_roundtrip(self, tmp_path):
        head = NetRescorer(self.model(), 0.45, np.arange(5.0) / 7, 0.3, "fc1")
        path = tmp_path / "svm.bin"
        save_rescorer(head, path)
        back = load_rescorer(path)
        assert back.w is not None
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
        assert back.w is None and back.input_mean == 0.0
        windows = np.random.default_rng(0).random((3, 8, 6, 3))
        assert np.array_equal(back(windows, None),
                              model.scores(windows.transpose(0, 3, 1, 2)))

    def test_rejects_head_that_does_not_fit(self, tmp_path):
        path = tmp_path / "svm.bin"
        save_rescorer(NetRescorer(self.model(), 0.0, np.ones(4), 0.0, "fc1"), path)
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
