import json
import math
import struct

import numpy as np
import pytest

from pedcascade.cascade import (
    CascadeConfig,
    CascadeTrainConfig,
    NetRescorer,
    load_rescorer,
    rescorer_training_pool,
    run_cascade,
    save_rescorer,
    train_proposal_forest,
    train_rescorer,
    train_svm_head,
)
from pedcascade.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, cli_dispatch
from pedcascade.convnet import NET_MAGIC, NetModel, TrainConfig, default_cifarnet
from pedcascade.data import (
    WindowGeometry,
    annotations_to_json,
    detections_to_json,
    load_annotations,
    random_boxes,
)
from pedcascade.forest import (
    SlidingWindowConfig,
    forest_to_json,
    load_forest,
    save_forest,
)
from pedcascade.geometry import Detection
from pedcascade.imageops import Image, read_pnm, write_pnm
from pedcascade.svm import SvmConfig
from pedcascade.synth import MIN_IMAGE_SIDE


def run(argv):
    return cli_dispatch([str(a) for a in argv])


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_argument(self, capsys):
        assert run(["train-forest", "--images", "x"]) == EXIT_USAGE


class TestSynth:
    def test_roundtrip(self, tmp_path, capsys):
        code = run(["--out-dir", tmp_path, "synth", "--frames", "2",
                    "--height", "80", "--width", "100", "--seed", "3"])
        assert code == EXIT_OK
        images = sorted((tmp_path / "images").glob("*.ppm"))
        assert len(images) == 2
        ann = json.loads((tmp_path / "annotations.json").read_text())
        assert len(ann["frames"]) == 2
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seeds"] == {"seed": 3}

    def test_manifest_records_wall_time(self, tmp_path, capsys):
        assert run(["--out-dir", tmp_path, "synth", "--frames", "1",
                    "--height", "60", "--width", "80"]) == EXIT_OK
        wall = json.loads((tmp_path / "manifest_synth.json").read_text())["wall_clock_s"]
        assert isinstance(wall, float) and math.isfinite(wall) and wall > 0

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["--out-dir", tmp_path / sub, "synth", "--frames", "1",
                        "--height", "60", "--width", "80", "--seed", "7"]) == EXIT_OK
        a = (tmp_path / "a" / "images" / "synth_00000.ppm").read_bytes()
        b = (tmp_path / "b" / "images" / "synth_00000.ppm").read_bytes()
        assert a == b


    @pytest.mark.parametrize("flag", ["--frames", "--height", "--width"])
    def test_zero_size_is_a_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert run(["--out-dir", out, "synth", flag, "0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: argument {flag}")
        assert not out.exists()

    @pytest.mark.parametrize("size, flag", [(["--height", "40", "--width", "60"], "--height"),
                                            (["--height", "44"], "--height"),
                                            (["--width", "49"], "--width")])
    def test_frame_below_the_minimum_side_is_a_usage_error(self, tmp_path, capsys, size, flag):
        out = tmp_path / "out"
        assert run(["--out-dir", out, "synth", "--frames", "2", *size]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: ")
        assert f"is not an integer >= {MIN_IMAGE_SIDE}" in err
        assert not out.exists()

    def test_frame_at_the_minimum_side_renders(self, tmp_path, capsys):
        side = str(MIN_IMAGE_SIDE)
        assert run(["--out-dir", tmp_path, "synth", "--frames", "4", "--clutter", "8",
                    "--height", side, "--width", side]) == EXIT_OK
        images = sorted((tmp_path / "images").glob("*.ppm"))
        assert [read_pnm(p).data.shape for p in images] == [(MIN_IMAGE_SIDE,) * 2 + (3,)] * 4


class TestTrainForest:
    def test_writes_the_library_forest(self, tmp_path, capsys):
        assert run(["--out-dir", tmp_path, "synth", "--frames", "3", "--height", "120",
                    "--width", "160", "--seed", "5"]) == EXIT_OK
        cli_model = tmp_path / "cli_forest.json"
        assert run(["--out-dir", tmp_path, "train-forest", "--images", tmp_path / "images",
                    "--annotations", tmp_path / "annotations.json", "--model-out", cli_model,
                    "--trees", "2", "--negatives-per-frame", "4", "--seed", "9"]) == EXIT_OK

        paths = sorted((tmp_path / "images").glob("*.ppm"))
        images = [(p.stem, read_pnm(p)) for p in paths]
        frames = load_annotations(tmp_path / "annotations.json", "json")
        cfg = CascadeTrainConfig(n_trees=2, forest_negatives_per_frame=4, seed=9)
        lib_model = tmp_path / "lib_forest.json"
        save_forest(train_proposal_forest(images, frames, cfg), lib_model)
        assert cli_model.read_bytes() == lib_model.read_bytes()

    def test_early_stop_warns(self, tmp_path, capsys):
        """A forest that stops before --trees is written, exit 0, with a
        warning naming the trees fitted."""
        assert run(["--out-dir", tmp_path, "synth", "--frames", "6"]) == EXIT_OK
        model_path = tmp_path / "forest.json"
        capsys.readouterr()
        assert run(["--out-dir", tmp_path, "train-forest", "--images", tmp_path / "images",
                    "--annotations", tmp_path / "annotations.json", "--model-out", model_path,
                    "--trees", "16"]) == EXIT_OK
        trees = len(load_forest(model_path).trees)
        assert trees < 16
        err = capsys.readouterr().err
        assert err.startswith(f"warning: the forest stopped early, at {trees} of 16 trees")
        assert "separable" in err

    def test_full_forest_does_not_warn(self, tmp_path, capsys):
        assert run(["--out-dir", tmp_path, "synth", "--frames", "10", "--noise", "0.3",
                    "--height", "120", "--width", "160"]) == EXIT_OK
        model_path = tmp_path / "forest.json"
        capsys.readouterr()
        assert run(["--out-dir", tmp_path, "train-forest", "--images", tmp_path / "images",
                    "--annotations", tmp_path / "annotations.json", "--model-out", model_path,
                    "--trees", "2"]) == EXIT_OK
        assert len(load_forest(model_path).trees) == 2
        assert capsys.readouterr().err == ""

    def test_frames_without_gt_exit_2(self, tmp_path, capsys):
        from pedcascade.data import FrameAnnotation

        assert run(["--out-dir", tmp_path, "synth", "--frames", "2", "--height", "120",
                    "--width", "160", "--seed", "5"]) == EXIT_OK
        ann = tmp_path / "annotations.json"
        frames = load_annotations(ann, "json")
        ann.write_text(json.dumps(annotations_to_json([FrameAnnotation(f.frame_id)
                                                       for f in frames])))
        model_out = tmp_path / "forest.json"
        code = run(["--out-dir", tmp_path, "train-forest", "--images", tmp_path / "images",
                    "--annotations", ann, "--model-out", model_out, "--trees", "2"])
        assert code == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(ann) in err and "empty class" in err
        assert not model_out.exists()


class TestEvaluate:
    @staticmethod
    def write_fixture(tmp_path):
        from pedcascade.data import FrameAnnotation
        from pedcascade.geometry import Box

        frames = [
            FrameAnnotation(f"f{i}", [Box(10, 10, 20, 40), Box(60, 10, 20, 40)])
            for i in range(3)
        ]
        dets = {
            f.frame_id: [Detection(b, 0.9 - 0.1 * i) for i, b in enumerate(f.gt_boxes)]
            for f in frames
        }
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(annotations_to_json(frames)))
        det_path = tmp_path / "dets.json"
        det_path.write_text(json.dumps(detections_to_json(dets)))
        return ann_path, det_path

    def test_perfect_detector_lamr(self, tmp_path, capsys):
        ann_path, det_path = self.write_fixture(tmp_path)
        code = run(["--out-dir", tmp_path, "evaluate", "lamr",
                    "--dets", det_path, "--ann", ann_path])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0.00001"
        assert (tmp_path / "lamr.csv").exists()

    def test_svg_output(self, tmp_path, capsys):
        ann_path, det_path = self.write_fixture(tmp_path)
        code = run(["--out-dir", tmp_path, "evaluate", "recall",
                    "--dets", det_path, "--ann", ann_path, "--svg"])
        assert code == EXIT_OK
        svg = (tmp_path / "recall.svg").read_text()
        assert svg.startswith("<svg")

    def test_touching_fp_prints_delta(self, tmp_path, capsys):
        ann_path, det_path = self.write_fixture(tmp_path)
        code = run(["--out-dir", tmp_path, "evaluate", "touching-fp",
                    "--dets", det_path, "--ann", ann_path])
        assert code == EXIT_OK
        assert "delta" in capsys.readouterr().out

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run(["--out-dir", tmp_path, "evaluate", "lamr",
                    "--dets", tmp_path / "nope.json",
                    "--ann", tmp_path / "nope2.json"]) == EXIT_DATA

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["--out-dir", tmp_path, "evaluate", "lamr",
                    "--dets", bad, "--ann", bad]) == EXIT_DATA

    @pytest.mark.parametrize("metric, code", [
        ("lamr", 2), ("ap", 2), ("recall", 2), ("touching-fp", 2), ("fp-hist", 0),
        ("heights", 0)])
    def test_frames_without_gt(self, tmp_path, capsys, metric, code):
        """Metrics over GT exit 2 naming both files; the histograms are empty."""
        from pedcascade.data import FrameAnnotation
        from pedcascade.geometry import Box

        ann_path, det_path = tmp_path / "ann.json", tmp_path / "dets.json"
        ann_path.write_text(json.dumps(annotations_to_json([FrameAnnotation("f0")])))
        det_path.write_text(json.dumps(detections_to_json(
            {"f0": [Detection(Box(10, 10, 20, 40), 0.9)]})))
        assert run(["--out-dir", tmp_path, "evaluate", metric,
                    "--dets", det_path, "--ann", ann_path]) == code
        out, err = capsys.readouterr()
        if code == EXIT_DATA:
            assert err.startswith("data error:") and "zero ground-truth boxes" in err
            assert str(det_path) in err and str(ann_path) in err
        else:
            assert out.splitlines()[0] == "0.00000"

    @pytest.mark.parametrize("metric", ["lamr", "ap", "recall", "touching-fp", "fp-hist"])
    def test_detections_of_unknown_frames_exit_2(self, tmp_path, capsys, metric):
        ann_path, det_path = self.write_fixture(tmp_path)
        det_path.write_text(json.dumps(detections_to_json({"nope": []})))
        assert run(["--out-dir", tmp_path, "evaluate", metric,
                    "--dets", det_path, "--ann", ann_path]) == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "unknown frames: ['nope']" in err
        assert str(det_path) in err and str(ann_path) in err


class TestDetect:
    def test_smoke_and_corrupt_model(self, tmp_path, tiny_world, tiny_forest, capsys):
        images_dir = tmp_path / "imgs"
        images_dir.mkdir()
        from pedcascade.imageops import write_pnm

        for fid, img in tiny_world[0][:3]:
            write_pnm(images_dir / f"{fid}.ppm", img)
        model_path = tmp_path / "forest.bin"
        save_forest(tiny_forest, model_path)

        dets_out = tmp_path / "dets.json"
        code = run(["--out-dir", tmp_path, "detect", "--images", images_dir,
                    "--model", model_path, "--dets-out", dets_out])
        assert code == EXIT_OK
        payload = json.loads(dets_out.read_text())
        assert len(payload["frames"]) == 3
        assert (tmp_path / "manifest_detect.json").exists()

        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"garbage")
        assert run(["--out-dir", tmp_path, "detect", "--images", images_dir,
                    "--model", corrupt, "--dets-out", dets_out]) == EXIT_DATA

    def test_grayscale_image_is_data_error(self, tmp_path, tiny_world, tiny_forest, capsys):
        images_dir = tmp_path / "imgs"
        images_dir.mkdir()
        from pedcascade.imageops import Image, write_pnm

        fid, img = tiny_world[0][0]
        write_pnm(images_dir / f"{fid}.pgm", Image(img.data.mean(axis=2)))
        model_path = tmp_path / "forest.bin"
        save_forest(tiny_forest, model_path)
        code = run(["--out-dir", tmp_path, "detect", "--images", images_dir,
                    "--model", model_path, "--dets-out", tmp_path / "dets.json"])
        assert code == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{fid}.pgm" in err


def _malform(d, case):
    """The forest JSON `d` broken in one of twelve ways."""
    if case == "missing_trees":
        del d["trees"]
    elif case == "unsupported_version":
        d["version"] = 99
    elif case == "empty_tree_list":
        d["trees"], d["tree_weights"] = [], []
    elif case == "tree_weight_missing":
        d["tree_weights"] = d["tree_weights"][:-1]
    elif case == "three_leaves":
        d["trees"][-1]["leaves"] = d["trees"][-1]["leaves"][:3]
    elif case == "rect_outside_window":
        h, w = d["model_window"]
        d["trees"][0]["left"]["rect"] = [w - 4, h - 4, 8, 8]
    elif case == "pre_blur":
        d["channel_cfg"]["pre_blur"] = True
    elif case == "orientation_bins":
        d["channel_cfg"]["orientation_bins"] = 8
    elif case == "removed_kind":
        d["channel_cfg"]["kind"] = "HOG_L"
    elif case == "nan_tree_weight":
        d["tree_weights"][0] = float("nan")
    elif case == "nan_leaf":
        d["trees"][-1]["leaves"][2] = float("nan")
    elif case == "infinite_score_offset":
        d["score_offset"] = float("inf")
    return d


class TestMalformedForest:
    """A forest file the library cannot load is a data error naming the file,
    exit 2, for every subcommand that reads one."""

    @pytest.fixture
    def images_dir(self, tmp_path, tiny_world):
        from pedcascade.imageops import write_pnm

        d = tmp_path / "imgs"
        d.mkdir()
        fid, img = tiny_world[0][0]
        write_pnm(d / f"{fid}.ppm", img)
        return d

    @pytest.mark.parametrize("case", ["missing_trees", "unsupported_version",
                                      "empty_tree_list", "tree_weight_missing",
                                      "three_leaves", "rect_outside_window", "pre_blur",
                                      "orientation_bins", "removed_kind",
                                      "nan_tree_weight", "nan_leaf", "infinite_score_offset"])
    def test_detect_exits_2(self, tmp_path, images_dir, tiny_forest, capsys, case):
        model_path = tmp_path / "forest.json"
        model_path.write_text(json.dumps(_malform(forest_to_json(tiny_forest), case)))
        code = run(["--out-dir", tmp_path, "detect", "--images", images_dir,
                    "--model", model_path, "--dets-out", tmp_path / "dets.json"])
        assert code == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(model_path) in err
        assert not (tmp_path / "dets.json").exists()

    @pytest.mark.parametrize("command", ["bench", "compile-forest"])
    def test_bench_and_compile_exit_2(self, tmp_path, images_dir, tiny_forest, capsys,
                                      command):
        model_path = tmp_path / "forest.json"
        args = ["--model", model_path]
        if command == "bench":
            args += ["--images", images_dir]
        for case in ("rect_outside_window", "pre_blur", "orientation_bins"):
            model_path.write_text(json.dumps(_malform(forest_to_json(tiny_forest), case)))
            assert run(["--out-dir", tmp_path, command] + args) == 2 == EXIT_DATA
            assert str(model_path) in capsys.readouterr().err


class TestSweep:
    def test_bad_config_version(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 2, "axes": {"fc_units": [4]}}))
        assert run(["--out-dir", tmp_path, "sweep", "--config", cfg]) == EXIT_DATA

    def test_net_synth_sweep_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "version": 1,
            "axes": {"fc_units": [4, 8]},
            "task_config": {"task": "net-synth", "frames": 4, "epochs": 1,
                            "window": [32, 16]},
        }))
        code = run(["--out-dir", tmp_path, "sweep", "--config", cfg])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "fc_units,mean,std,n,error"
        assert len(lines) == 3


SMALL_NET = {"conv_filters": [2, 2, 3], "conv_kernels": [3, 3, 3], "fc_units": 4}


def small_net(seed=3, input_hw=WindowGeometry().window):
    """A small net, on 128x64 windows by default, whose scores move with the mean."""
    spec = default_cifarnet(input_hw=input_hw, **SMALL_NET)
    return NetModel(spec, seed=seed, init_sigma=0.3, first_layer_sigma=0.3)


@pytest.fixture
def detect_inputs(tmp_path, tiny_world, tiny_forest):
    """Three tiny-world frames as PPM files, the forest file, and the frames
    as the CLI reads them back."""
    d = tmp_path / "imgs"
    d.mkdir()
    for fid, img in tiny_world[0][:3]:
        write_pnm(d / f"{fid}.ppm", img)
    model_path = tmp_path / "forest.json"
    save_forest(tiny_forest, model_path)
    images = [(p.stem, read_pnm(p)) for p in sorted(d.glob("*.ppm"))]
    return d, model_path, images


class TestDetectNet:
    """`detect --net` scores exactly what the library rescorer scores, on
    windows of the net's input size with the extent at 3/4 of it."""

    def cli_and_library(self, tmp_path, detect_inputs, rescorer, name, geometry):
        images_dir, model_path, images = detect_inputs
        net_path = tmp_path / f"{name}.bin"
        save_rescorer(rescorer, net_path)
        dets_out = tmp_path / f"{name}.json"
        assert run(["--out-dir", tmp_path, "detect", "--images", images_dir,
                    "--model", model_path, "--net", net_path, "--dets-out", dets_out,
                    "--threshold=-1e9"]) == EXIT_OK
        cfg = CascadeConfig(proposal_model=load_forest(model_path), rescorer=rescorer,
                            sliding=SlidingWindowConfig(score_threshold=-1e9),
                            geometry=geometry)
        lib, report = run_cascade(images, cfg)
        assert report.windows_scored > 0
        return dets_out.read_text(), json.dumps(detections_to_json(lib), indent=1,
                                                sort_keys=True)

    @pytest.mark.parametrize("kind", ["net", "svm"])
    def test_detections_equal_run_cascade(self, tmp_path, detect_inputs, capsys, kind):
        self.check_equal_and_centred(tmp_path, detect_inputs, kind, WindowGeometry())

    @pytest.mark.parametrize("kind", ["net", "svm"])
    def test_small_window_net_detections_equal_run_cascade(self, tmp_path, detect_inputs,
                                                           capsys, kind):
        self.check_equal_and_centred(tmp_path, detect_inputs, kind,
                                     WindowGeometry((32, 16), (24, 12)))

    def check_equal_and_centred(self, tmp_path, detect_inputs, kind, geometry):
        model = small_net(input_hw=geometry.window)
        w, b = np.random.default_rng(2).normal(size=4), 0.1

        def make(mean):
            if kind == "net":
                return NetRescorer(model, input_mean=mean)
            return NetRescorer(model, mean, w, b, "fc1")

        cli, lib = self.cli_and_library(tmp_path, detect_inputs, make(0.4), "centred",
                                        geometry)
        assert cli == lib
        # the mean reaches the scores: an uncentred rescorer detects otherwise
        uncentred, _ = self.cli_and_library(tmp_path, detect_inputs, make(0.0), "uncentred",
                                            geometry)
        assert uncentred != cli


@pytest.fixture
def rescorer_data(tmp_path):
    """Three synthetic frames on disk, random-box proposals for them, and the
    same inputs in memory: the annotations as loaded, the proposals by frame
    id."""
    assert run(["--out-dir", tmp_path, "synth", "--frames", "3", "--height", "120",
                "--width", "160", "--seed", "5"]) == EXIT_OK
    images = [(p.stem, read_pnm(p)) for p in sorted((tmp_path / "images").glob("*.ppm"))]
    frames = load_annotations(tmp_path / "annotations.json", "json")
    rng = np.random.default_rng(2)
    proposals = {fid: [Detection(b, float(rng.random()))
                       for b in random_boxes(12, (img.height, img.width), rng)]
                 for fid, img in images}
    props_path = tmp_path / "proposals.json"
    props_path.write_text(json.dumps(detections_to_json(proposals)))
    args = ["--images", tmp_path / "images", "--annotations", tmp_path / "annotations.json",
            "--proposals", props_path]
    return args, images, frames, proposals


class TestTrainRescorer:
    """`train-net` and `train-svm` write what the library trains."""

    def test_train_net_writes_the_library_net(self, tmp_path, rescorer_data, capsys):
        args, images, frames, proposals = rescorer_data
        cfg_path = tmp_path / "net.json"
        cfg_path.write_text(json.dumps({"version": 1, "net": SMALL_NET, "epochs": 1,
                                        "extra_epochs": 0, "batch": 12}))
        cli_net = tmp_path / "cli_net.bin"
        assert run(["--out-dir", tmp_path, "train-net", *args, "--net-out", cli_net,
                    "--config", cfg_path, "--seed", "9"]) == EXIT_OK

        cfg = CascadeTrainConfig(
            net_spec=default_cifarnet(input_hw=WindowGeometry().window, **SMALL_NET),
            net_train=TrainConfig(batch=12, epochs=1, extra_epochs=0, seed=9), seed=9,
        )
        rescorer = train_rescorer(images, frames, proposals, cfg)
        assert rescorer.input_mean != 0.0
        lib_net = tmp_path / "lib_net.bin"
        save_rescorer(rescorer, lib_net)
        assert cli_net.read_bytes() == lib_net.read_bytes()

    def check_svm_head(self, tmp_path, rescorer_data, net, cfg):
        """train-svm on `net` writes the head train_svm_head fits on the pool
        that `cfg` draws."""
        args, images, frames, proposals = rescorer_data
        net_path = tmp_path / "net.bin"
        save_rescorer(net, net_path)
        svm_path = tmp_path / "svm.bin"
        assert run(["--out-dir", tmp_path, "train-svm", *args, "--net", net_path,
                    "--svm-out", svm_path]) == EXIT_OK

        windows, labels = rescorer_training_pool(images, frames, proposals, cfg,
                                                 np.random.default_rng(0))
        head = train_svm_head(net, windows, labels, SvmConfig())
        loaded = load_rescorer(svm_path)
        assert loaded.w is not None and np.array_equal(loaded.w, head.w) and loaded.b == head.b
        assert (loaded.feature_layer, loaded.input_mean) == ("fc1", 0.3)
        x = np.stack(windows)
        assert np.array_equal(loaded(x, None), head(x, None))

    def test_train_net_sizes_net_and_windows_from_input_hw(self, tmp_path, rescorer_data,
                                                           tiny_forest, capsys):
        """`net.input_hw` sets the net's input and the pool's windows (the
        extent at 3/4 of them), and `detect --net` runs the net it writes."""
        args, images, frames, proposals = rescorer_data
        cfg_path = tmp_path / "net.json"
        cfg_path.write_text(json.dumps({"version": 1, "net": {**SMALL_NET, "input_hw": [32, 16]},
                                        "epochs": 1, "extra_epochs": 0, "batch": 12}))
        cli_net = tmp_path / "cli_net.bin"
        assert run(["--out-dir", tmp_path, "train-net", *args, "--net-out", cli_net,
                    "--config", cfg_path]) == EXIT_OK
        assert load_rescorer(cli_net).model.spec.input_shape == (3, 32, 16)

        cfg = CascadeTrainConfig(
            net_geometry=WindowGeometry((32, 16), (24, 12)),
            net_spec=default_cifarnet(input_hw=(32, 16), **SMALL_NET),
            net_train=TrainConfig(batch=12, epochs=1, extra_epochs=0))
        lib_net = tmp_path / "lib_net.bin"
        save_rescorer(train_rescorer(images, frames, proposals, cfg), lib_net)
        assert cli_net.read_bytes() == lib_net.read_bytes()

        model_path = tmp_path / "forest.json"
        save_forest(tiny_forest, model_path)
        capsys.readouterr()
        assert run(["--out-dir", tmp_path, "detect", "--images", tmp_path / "images",
                    "--model", model_path, "--net", cli_net, "--dets-out", tmp_path / "d.json",
                    "--threshold=-1e9"]) == EXIT_OK
        windows = int(capsys.readouterr().out.split("ms/window (")[1].split()[0])
        assert windows > 0

    def test_train_svm_writes_the_library_head(self, tmp_path, rescorer_data, capsys):
        self.check_svm_head(tmp_path, rescorer_data, NetRescorer(small_net(), input_mean=0.3),
                            CascadeTrainConfig())

    def test_train_svm_reads_windows_at_the_net_size(self, tmp_path, rescorer_data, capsys):
        """A 32x16 net's pool is read at 32x16, the extent at 3/4, as detect
        reads its windows."""
        net = NetRescorer(small_net(input_hw=(32, 16)), input_mean=0.3)
        geometry = WindowGeometry((32, 16), (24, 12))
        self.check_svm_head(tmp_path, rescorer_data, net,
                            CascadeTrainConfig(net_geometry=geometry))

    def test_train_svm_has_no_seed(self, tmp_path, rescorer_data, capsys):
        """The SVM pool draws nothing at random, so there is no --seed."""
        args, _, _, _ = rescorer_data
        net_path = tmp_path / "net.bin"
        save_rescorer(NetRescorer(small_net()), net_path)
        out = tmp_path / "out"
        assert run(["--out-dir", out, "train-svm", *args, "--net", net_path,
                    "--svm-out", out / "svm.bin", "--seed", "4"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed 4" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_net_key_exits_2(self, tmp_path, rescorer_data, capsys):
        args, _, _, _ = rescorer_data
        cfg_path = tmp_path / "net.json"
        cfg_path.write_text(json.dumps({"version": 1, "net": {"fc_unit": 4}}))
        net_out = tmp_path / "net.bin"
        assert run(["--out-dir", tmp_path, "train-net", *args, "--net-out", net_out,
                    "--config", cfg_path]) == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(cfg_path) in err and "fc_unit" in err
        assert not net_out.exists()

    @pytest.mark.parametrize("config", [
        {"lr": -1},
        {"net": {"conv_filters": [4, 4]}},
        {"epochs": -3},
        {"net": {"fc_units": 0}},
        {"net": {"conv_kernels": [0, 3, 3]}},
        {"batch": "12"},
        {"net": {"n_classes": 3}},
        {"net": {"input_hw": [32.0, 16.0]}},
    ], ids=["negative_lr", "two_conv_filters", "negative_epochs", "zero_fc_units",
            "zero_kernel", "string_batch", "three_classes", "float_input_hw"])
    def test_bad_config_exits_2(self, tmp_path, rescorer_data, capsys, config):
        args, _, _, _ = rescorer_data
        cfg_path = tmp_path / "net.json"
        cfg_path.write_text(json.dumps({"version": 1, **config}))
        net_out = tmp_path / "net.bin"
        assert run(["--out-dir", tmp_path, "train-net", *args, "--net-out", net_out,
                    "--config", cfg_path]) == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(cfg_path) in err
        assert not net_out.exists()

    def test_unknown_feature_layer_exits_2(self, tmp_path, rescorer_data, capsys,
                                           monkeypatch):
        def no_pool(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("window pool built for an unknown feature layer")

        monkeypatch.setattr("pedcascade.cli.rescorer_training_pool", no_pool)
        args, _, _, _ = rescorer_data
        net_path = tmp_path / "net.bin"
        save_rescorer(NetRescorer(small_net()), net_path)
        svm_path = tmp_path / "svm.bin"
        assert run(["--out-dir", tmp_path, "train-svm", *args, "--net", net_path,
                    "--svm-out", svm_path, "--feature-layer", "fc9"]) == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(net_path) in err and "'fc9'" in err
        assert not svm_path.exists()


@pytest.mark.parametrize("command, out_flag", [("train-forest", "--model-out"),
                                               ("train-net", "--net-out")])
def test_image_without_annotation_exits_2(tmp_path, rescorer_data, capsys, command, out_flag):
    """Each image's annotation is looked up by frame id: an image without one
    is a data error naming the frame (exit 2), and no model is written."""
    args, _, frames, _ = rescorer_data
    ann = tmp_path / "partial.json"
    ann.write_text(json.dumps(annotations_to_json(frames[1:])))
    args = args[:3] + [ann] + (args[4:] if command == "train-net" else [])
    model_out = tmp_path / "model.out"
    assert run(["--out-dir", tmp_path, command, *args, out_flag, model_out]) == 2 == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"frame {frames[0].frame_id!r} has no annotation" in err
    assert not model_out.exists()


@pytest.mark.parametrize("command, out_flag", [("train-net", "--net-out"),
                                               ("train-svm", "--svm-out")])
def test_grayscale_image_exits_2(tmp_path, rescorer_data, capsys, command, out_flag):
    """The rescorers read images as train-forest and detect do: a grayscale
    frame is a data error naming its file (exit 2), and nothing is written."""
    args, images, _, _ = rescorer_data
    gray = tmp_path / "gray"
    gray.mkdir()
    for fid, img in images:
        write_pnm(gray / f"{fid}.pgm", Image(img.data.mean(axis=2)))
    args = ["--images", gray] + args[2:]
    if command == "train-svm":
        net_path = tmp_path / "net.bin"
        save_rescorer(NetRescorer(small_net()), net_path)
        args += ["--net", net_path]
    out = tmp_path / "model.out"
    capsys.readouterr()
    assert run(["--out-dir", tmp_path, command, *args, out_flag, out]) == 2 == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {gray / images[0][0]}.pgm: grayscale "
                                       "image; the cascade reads color (PPM) images\n")
    assert not out.exists()


def _float_sizes(raw):
    """The net file `raw` with its input sizes written as floats."""
    off = len(NET_MAGIC) + struct.calcsize("<HI")
    version, hlen = struct.unpack_from("<HI", raw, len(NET_MAGIC))
    header = json.loads(raw[off:off + hlen])
    header["spec"]["input_shape"] = [float(n) for n in header["spec"]["input_shape"]]
    text = json.dumps(header, sort_keys=True).encode()
    return NET_MAGIC + struct.pack("<HI", version, len(text)) + text + raw[off + hlen:]


def _net_file(tmp_path, case, model_path):
    """A net file the rescorer reader must reject, broken in one of eight ways."""
    path = tmp_path / f"{case}.bin"
    if case in ("nan_weights", "nan_input_mean", "nan_svm_head"):
        model = small_net()
        if case == "nan_weights":
            model.param_layers()[1][1].W[0, 0] = np.nan
        head = (np.array([0.5, np.nan, 0.5, 0.5]), 0.1) if case == "nan_svm_head" else ()
        mean = np.nan if case == "nan_input_mean" else 0.2
        save_rescorer(NetRescorer(model, mean, *head), path)
        return path
    if case == "forest_export":  # a 1-output FC net, not a 2-class softmax
        assert run(["--out-dir", tmp_path, "compile-forest", "--model", model_path,
                    "--net-out", path]) == EXIT_OK
        return path
    save_rescorer(NetRescorer(small_net(), input_mean=0.2), path)
    raw = path.read_bytes()
    if case == "float_sizes":
        path.write_bytes(_float_sizes(raw))
        return path
    path.write_bytes({"truncated": raw[:-8], "trailing_bytes": raw + bytes(8),
                      "wrong_magic": b"NOTNET" + raw[6:]}[case])
    return path


class TestMalformedNet:
    """A net file the rescorer reader rejects is a data error naming the file,
    exit 2, for every subcommand that reads one."""

    OUTPUTS = ("dets.json", "bench.json", "svm.bin")

    def run_reader(self, tmp_path, detect_inputs, tiny_world, command, net_path):
        """`command` on the detect inputs with `--net net_path`; its exit code."""
        images_dir, model_path, _ = detect_inputs
        args = ["--images", images_dir, "--net", net_path]
        if command == "detect":
            args += ["--model", model_path, "--dets-out", tmp_path / "dets.json"]
        elif command == "bench":
            args += ["--model", model_path]
        else:
            ann = tmp_path / "ann.json"
            ann.write_text(json.dumps(annotations_to_json(tiny_world[1][:3])))
            props = tmp_path / "props.json"
            props.write_text(json.dumps(detections_to_json({})))
            args += ["--annotations", ann, "--proposals", props,
                     "--svm-out", tmp_path / "svm.bin"]
        return run(["--out-dir", tmp_path, command] + args)

    @pytest.mark.parametrize("command", ["detect", "bench", "train-svm"])
    @pytest.mark.parametrize("case", ["truncated", "trailing_bytes", "wrong_magic",
                                      "forest_export", "float_sizes", "nan_weights",
                                      "nan_input_mean", "nan_svm_head"])
    def test_exits_2(self, tmp_path, detect_inputs, tiny_world, capsys, command, case):
        net_path = _net_file(tmp_path, case, detect_inputs[1])
        capsys.readouterr()
        assert self.run_reader(tmp_path, detect_inputs, tiny_world, command,
                               net_path) == 2 == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(net_path) in err
        assert not any((tmp_path / name).exists() for name in self.OUTPUTS)

    @pytest.mark.parametrize("command", ["detect", "bench", "train-svm"])
    def test_net_on_one_plane_exits_2(self, tmp_path, detect_inputs, tiny_world, capsys,
                                      command):
        """The cascade's windows are color: a net on grayscale windows cannot
        rescore them."""
        spec = default_cifarnet(input_channels=1, input_hw=WindowGeometry().window, **SMALL_NET)
        net_path = tmp_path / "gray.bin"
        save_rescorer(NetRescorer(NetModel(spec, seed=0)), net_path)
        assert self.run_reader(tmp_path, detect_inputs, tiny_world, command,
                               net_path) == 2 == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {net_path}: the net reads 1-plane windows, but the cascade's "
            "color windows have 3 planes\n")
        assert not any((tmp_path / name).exists() for name in self.OUTPUTS)

    def test_empty_images_dir_exits_2(self, tmp_path, detect_inputs, capsys):
        _, model_path, _ = detect_inputs
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["--out-dir", tmp_path, "detect", "--images", empty, "--model", model_path,
                    "--dets-out", tmp_path / "dets.json"]) == 2 == EXIT_DATA
        assert str(empty) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "bench"])
def test_manifest_records_the_net(tmp_path, detect_inputs, capsys, command):
    images_dir, model_path, _ = detect_inputs
    net_path = tmp_path / "net.bin"
    save_rescorer(NetRescorer(small_net(), input_mean=0.2), net_path)
    args = ["--images", images_dir, "--model", model_path, "--net", net_path]
    if command == "detect":
        args += ["--dets-out", tmp_path / "dets.json"]
    assert run(["--out-dir", tmp_path, command] + args) == EXIT_OK
    manifest = json.loads((tmp_path / f"manifest_{command}.json").read_text())
    assert set(manifest["input_hashes"]) == {str(model_path), str(net_path)}


@pytest.mark.parametrize("command, values, config, code", [
    ("train-forest", ["--trees", "0"], None, EXIT_USAGE),
    ("train-forest", ["--negatives-per-frame", "-3"], None, EXIT_USAGE),
    ("train-forest", ["--channels", "FOO"], None, EXIT_USAGE),
    ("train-forest", [], {"channels": "FOO"}, EXIT_DATA),
    ("train-forest", [], {"trees": 0}, EXIT_DATA),
    ("detect", ["--proposals-avg", "0"], None, EXIT_USAGE),
    ("compile-forest", ["--verify", "--samples", "0"], None, EXIT_USAGE),
    ("compile-forest", ["--net-out", "n.bin", "--sharpness", "0"], None, EXIT_USAGE),
    ("train-net", ["--ratio", "1:0"], None, EXIT_USAGE),
    ("train-net", ["--ratio", "abc"], None, EXIT_USAGE),
    ("train-net", ["--epochs", "-3"], None, EXIT_USAGE),
    ("train-net", ["--batch", "0"], None, EXIT_USAGE),
    ("detect", ["--threshold", "nan"], None, EXIT_USAGE),
    ("detect", ["--threshold", "inf"], None, EXIT_USAGE),
    ("synth", ["--clutter", "-1"], None, EXIT_USAGE),
    ("synth", ["--noise", "-1"], None, EXIT_USAGE),
    ("train-svm", ["--C", "-1"], None, EXIT_USAGE),
    ("train-svm", ["--neg-overlap", "2"], None, EXIT_USAGE),
    ("sweep", ["--seeds-per-cell", "0"], None, EXIT_USAGE),
    # a batch the --ratio cannot split
    ("train-net", ["--batch", "5"], None, EXIT_USAGE),
    ("train-net", ["--ratio", "1:2", "--batch", "4"], None, EXIT_USAGE),
    ("train-net", [], {"batch": 5}, EXIT_DATA),
    ("train-forest", ["--channels", "LUV"], None, EXIT_USAGE),  # a removed kind
])
def test_out_of_range_value_writes_nothing(tmp_path, detect_inputs, tiny_world, capsys,
                                           command, values, config, code):
    """A flag value out of range is a usage error (exit 1); the same value in
    a config file is a data error naming the file (exit 2).  Either way no
    file is written."""
    images_dir, model_path, _ = detect_inputs
    out = tmp_path / "out"
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps(annotations_to_json(tiny_world[1][:3])))
    props = tmp_path / "props.json"
    props.write_text(json.dumps(detections_to_json({})))
    rescorer_inputs = ["--images", images_dir, "--annotations", ann, "--proposals", props]
    if command == "train-svm":
        save_rescorer(NetRescorer(small_net(), input_mean=0.2), tmp_path / "net.bin")
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({"version": 1, "axes": {"fc_units": [4]}, "task_config": {
        "task": "net-synth", "frames": 4, "epochs": 1, "window": [32, 16]}}))
    args = {
        "train-forest": ["--images", images_dir, "--annotations", ann,
                         "--model-out", out / "forest.json"],
        "detect": ["--images", images_dir, "--model", model_path, "--dets-out", out / "d.json"],
        "compile-forest": ["--model", model_path],
        "train-net": rescorer_inputs + ["--net-out", out / "net.bin"],
        "train-svm": rescorer_inputs + ["--net", tmp_path / "net.bin", "--svm-out", out / "s.bin"],
        "synth": ["--frames", "2", "--height", "80", "--width", "100"],
        "sweep": ["--config", sweep_cfg],
    }[command]
    values = [out / v if v.endswith(".bin") else v for v in values]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"version": 1, **config}))
        values = ["--config", cfg_path]
    capsys.readouterr()
    assert run(["--out-dir", out, command] + args + values) == code
    err = capsys.readouterr().err
    if config is None:
        assert err.startswith("error: argument " + values[-2])
    else:
        assert err.startswith("data error:") and str(cfg_path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-forest", "train-net", "sweep"])
@pytest.mark.parametrize("config", [[1], "x", None, 3])
def test_non_object_config_is_a_data_error(tmp_path, capsys, command, config):
    """A config file holding anything but a JSON object is a data error
    naming the file (exit 2), and nothing is written."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    missing = tmp_path / "missing"
    args = {
        "train-forest": ["--images", missing, "--annotations", missing,
                         "--model-out", out / "forest.json"],
        "train-net": ["--images", missing, "--annotations", missing, "--proposals", missing,
                      "--net-out", out / "net.bin"],
        "sweep": [],
    }[command]
    assert run(["--out-dir", out, command, "--config", cfg_path] + args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(cfg_path) in err and "JSON object" in err
    assert not out.exists()


def _malformed(case, ann, dets):
    """The annotation or detections JSON (`ann`, `dets`) broken in one way."""
    if case == "no_frames":
        return {"version": 1}
    if case == "string_score":
        dets["frames"][0]["detections"][0]["score"] = "0.9"
        return dets
    if case == "zero_width_box":
        dets["frames"][0]["detections"][0]["box"]["w"] = 0
        return dets
    if case == "negative_width_gt":
        ann["frames"][0]["gt"][0]["w"] = -1
        return ann
    if case == "repeated_frame_id":
        dets["frames"].append({"frame_id": dets["frames"][0]["frame_id"], "detections": []})
        return dets
    raise ValueError(case)


@pytest.mark.parametrize("command, flag, case", [
    ("evaluate", "--dets", "no_frames"),
    ("evaluate", "--dets", "string_score"),
    ("evaluate", "--dets", "zero_width_box"),
    ("evaluate", "--dets", "repeated_frame_id"),
    ("evaluate", "--ann", "negative_width_gt"),
    ("train-forest", "--annotations", "no_frames"),
    ("train-net", "--proposals", "string_score"),
    ("train-net", "--proposals", "repeated_frame_id"),
    ("train-svm", "--proposals", "repeated_frame_id"),
    ("train-svm", "--annotations", "negative_width_gt"),
    ("detect", "--images", "truncated_ppm"),
])
def test_malformed_input_file_is_a_data_error(tmp_path, detect_inputs, tiny_world, capsys,
                                              command, flag, case):
    """An image, annotation or detections file the readers reject is a data
    error naming the file (exit 2), and nothing is written."""
    images_dir, model_path, images = detect_inputs
    frames = tiny_world[1][:3]
    ann = annotations_to_json(frames)
    dets = detections_to_json({f.frame_id: [Detection(b, 0.9) for b in f.gt_boxes]
                               for f in frames})
    paths = {"--ann": tmp_path / "ann.json", "--dets": tmp_path / "dets.json"}
    paths["--annotations"], paths["--proposals"] = paths["--ann"], paths["--dets"]
    paths["--ann"].write_text(json.dumps(ann))
    paths["--dets"].write_text(json.dumps(dets))
    if case == "truncated_ppm":
        bad = tmp_path / "bad.ppm"
        write_pnm(bad, images[0][1])
        bad.write_bytes(bad.read_bytes()[:-10])
    else:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_malformed(case, ann, dets)))
    net_path = tmp_path / "net.bin"
    save_rescorer(NetRescorer(small_net(), input_mean=0.2), net_path)
    out = tmp_path / "out"
    rescorer_inputs = ["--images", images_dir, "--annotations", paths["--ann"],
                       "--proposals", paths["--dets"]]
    args = {
        "evaluate": ["lamr", "--dets", paths["--dets"], "--ann", paths["--ann"]],
        "train-forest": ["--images", images_dir, "--annotations", paths["--ann"],
                         "--model-out", out / "forest.json"],
        "train-net": rescorer_inputs + ["--net-out", out / "net.bin"],
        "train-svm": rescorer_inputs + ["--net", net_path, "--svm-out", out / "svm.bin"],
        "detect": ["--images", images_dir, "--model", model_path, "--dets-out", out / "d.json"],
    }[command]
    args[args.index(flag) + 1] = bad
    capsys.readouterr()
    assert run(["--out-dir", out, command] + args) == 2 == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err
    assert not out.exists()
