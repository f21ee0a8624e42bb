import json

import numpy as np
import pytest

from pedcascade.cascade import CascadeTrainConfig, forest_training_pool
from pedcascade.channels import ChannelConfig
from pedcascade.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, cli_dispatch
from pedcascade.data import annotations_to_json, detections_to_json, load_annotations
from pedcascade.forest import default_candidate_rects, forest_to_json, save_forest, train_forest
from pedcascade.geometry import Detection
from pedcascade.imageops import read_pnm


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

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run(["--out-dir", tmp_path / sub, "synth", "--frames", "1",
                        "--height", "60", "--width", "80", "--seed", "7"]) == EXIT_OK
        a = (tmp_path / "a" / "images" / "synth_00000.ppm").read_bytes()
        b = (tmp_path / "b" / "images" / "synth_00000.ppm").read_bytes()
        assert a == b


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
        by_id = {f.frame_id: f for f in load_annotations(tmp_path / "annotations.json", "json")}
        cfg = CascadeTrainConfig(channel_cfg=ChannelConfig("G_LUV"), forest_negatives_per_frame=4)
        pos, neg = forest_training_pool(images, [by_id[fid] for fid, _ in images], cfg,
                                        np.random.default_rng(9))
        rects = default_candidate_rects(cfg.channel_cfg, cfg.geometry.window)
        lib_model = tmp_path / "lib_forest.json"
        save_forest(train_forest(pos, neg, 2, rects, cfg.channel_cfg, cfg.geometry.window),
                    lib_model)
        assert cli_model.read_bytes() == lib_model.read_bytes()


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
    """The forest JSON `d` broken in one of six ways."""
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
                                      "three_leaves", "rect_outside_window"])
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
        model_path.write_text(json.dumps(_malform(forest_to_json(tiny_forest),
                                                  "rect_outside_window")))
        args = ["--model", model_path]
        if command == "bench":
            args += ["--images", images_dir]
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
