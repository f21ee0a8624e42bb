"""Command-line orchestration: dataset synthesis, training, compilation,
detection, evaluation, sweeps, and timing reports.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every run writes a RunManifest before its output artifacts.  The output
directory defaults to $PEDCASCADE_OUT (else the current directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cascade import (
    CascadeConfig,
    CascadeError,
    CascadeTrainConfig,
    load_rescorer,
    rescorer_training_pool,
    run_cascade,
    save_rescorer,
    train_proposal_forest,
    train_rescorer,
    train_svm_head,
)
from .channels import CHANNEL_COUNTS, ChannelConfig
from .convnet import TrainConfig, TrainingDiverged, default_cifarnet, save_net
from .data import (
    BatchRatio,
    DataError,
    LabelingPolicy,
    WindowGeometry,
    annotations_to_json,
    detections_from_json,
    detections_to_json,
    load_annotations,
)
from .evaluate import (
    LamrConfig,
    average_precision,
    fp_overlap_histogram,
    height_histogram,
    lamr,
    recall_vs_iou,
    touching_fp_analysis,
)
from .forest import SlidingWindowConfig, load_forest, save_forest
from .forest2nn import compile_forest, soften, to_netmodel, verify_equivalence
from .imageops import Image, read_pnm, write_pnm
from .manifest import RunManifest
from .svm import SvmConfig
from .sweep import grid_sweep, sweep_to_csv, task_runner
from .synth import MIN_IMAGE_SIDE, SynthSpec, synth_dataset

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

CONFIG_FILE_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(convert, ok, what: str):
    """An argparse type: convert(text), which must pass ok(value); any other
    value is a usage error."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in its own errors
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "a positive integer")
_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_NON_NEGATIVE = _checked(float, lambda v: 0 <= v < math.inf, "a non-negative finite number")
_FINITE = _checked(float, math.isfinite, "a finite number")
_UNIT = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_FRAME_SIDE = _checked(int, lambda v: v >= MIN_IMAGE_SIDE,
                       f"an integer >= {MIN_IMAGE_SIDE}, the smallest side synthetic shapes fit")


def _ratio(text: str) -> Optional[BatchRatio]:
    """--ratio: "none", or "pos:neg" with both parts >= 1."""
    if text == "none":
        return None
    try:
        return BatchRatio(*map(int, text.split(":")))
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f'{text!r} is not "none" or "pos:neg" with parts >= 1')


def _unsplit(batch: int, ratio: Optional[BatchRatio]) -> Optional[str]:
    """Why `ratio` cannot split a batch of `batch` windows, as the batch
    sampler needs, or None if it can."""
    if ratio is None or batch * ratio.pos % (ratio.pos + ratio.neg) == 0:
        return None
    return f"a batch of {batch} does not split {ratio.pos}:{ratio.neg} by --ratio"


def _out_dir(args) -> Path:
    d = Path(args.out_dir or os.environ.get("PEDCASCADE_OUT", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise DataError(f"{path}: config must be a JSON object, got {type(cfg).__name__}")
    if cfg.get("version") != CONFIG_FILE_VERSION:
        raise DataError(f"{path}: unsupported config version {cfg.get('version')!r}")
    return cfg


def _load_images(path, color: bool = False) -> List[Tuple[str, Image]]:
    """(stem, image) pairs of one PNM file or of every .ppm/.pgm in a directory.

    With `color`, a one-plane image is a DataError naming its file: every
    forest channel kind needs three planes.
    """
    p = Path(path)
    if p.is_dir():
        files = sorted(list(p.glob("*.ppm")) + list(p.glob("*.pgm")))
        if not files:
            raise DataError(f"{path}: no .ppm/.pgm images found")
    else:
        files = [p]
    images = []
    for f in files:
        img = _load(read_pnm, f, "image")
        if color and img.planes != 3:
            raise DataError(f"{f}: grayscale image; forest channels need a color (PPM) image")
        images.append((f.stem, img))
    return images


def _load(loader, path, kind: str, *args):
    """loader(path, *args); a malformed file is a DataError naming it."""
    try:
        return loader(path, *args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} file ({type(exc).__name__}: {exc})") from exc


def _read_detections(path):
    return detections_from_json(json.loads(Path(path).read_text()))


def _cascade_config(args, threshold: float = 0.0, proposals_avg: float = 3.0) -> CascadeConfig:
    """The cascade `detect` and `bench` run: the --model forest, rescored by
    the --net rescorer when one is given, on windows of the net's input size."""
    forest = _load(load_forest, args.model, "forest")
    rescorer = _load(load_rescorer, args.net, "net") if args.net else None
    return CascadeConfig(
        proposal_model=forest,
        rescorer=rescorer,
        proposal_filter_avg=proposals_avg,
        sliding=SlidingWindowConfig(score_threshold=threshold),
        geometry=(WindowGeometry.for_window(rescorer.model.spec.input_shape[-2:])
                  if rescorer else WindowGeometry()),
    )


def _rescorer_inputs(args):
    """Images, the annotations and each image's proposals by frame id; an
    image that the proposals file does not list has no proposals."""
    images = _load_images(args.images)
    frames = _load(load_annotations, args.annotations, "annotation", args.format)
    by_id = _load(_read_detections, args.proposals, "detections")
    return images, frames, {fid: by_id.get(fid, []) for fid, _ in images}


def _write_manifest(args, command: str, config: dict, seeds: dict, inputs: Sequence) -> RunManifest:
    man = RunManifest(command=command, config=config, seeds=seeds)
    man.record_inputs([p for p in inputs if p and Path(p).exists()])
    man.write(_out_dir(args) / f"manifest_{command.replace(' ', '_')}.json")
    return man


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_frames=args.frames,
        image_hw=(args.height, args.width),
        clutter=args.clutter,
        noise=args.noise,
    )
    out = _out_dir(args)
    _write_manifest(
        args, "synth",
        {"frames": args.frames, "height": args.height, "width": args.width,
         "clutter": args.clutter, "noise": args.noise},
        {"seed": args.seed}, [],
    )
    images, frames = synth_dataset(spec, seed=args.seed)
    img_dir = out / "images"
    img_dir.mkdir(exist_ok=True)
    for f, img in zip(frames, images):
        write_pnm(img_dir / f"{f.frame_id}.ppm", img)
    (out / "annotations.json").write_text(
        json.dumps(annotations_to_json(frames), indent=1, sort_keys=True)
    )
    print(f"wrote {len(images)} frames to {img_dir} and annotations.json")
    return EXIT_OK


def _cmd_train_forest(args) -> int:
    cfgfile = _load_config_file(args.config)
    channel_kind = args.channels or cfgfile.get("channels", ChannelConfig().kind)
    n_trees = args.trees if args.trees is not None else cfgfile.get("trees", 64)
    try:  # the flags are checked by the parser, so a bad value is the file's
        channel_cfg = ChannelConfig(channel_kind)
        if type(n_trees) is not int or n_trees < 1:
            raise ValueError(f"trees must be a positive integer, got {n_trees!r}")
    except (TypeError, ValueError) as exc:
        raise DataError(f"{args.config}: bad config ({exc})") from exc
    images = _load_images(args.images, color=True)
    frames = _load(load_annotations, args.annotations, "annotation", args.format)
    _write_manifest(
        args, "train-forest",
        {"channels": channel_kind, "trees": n_trees},
        {"seed": args.seed}, [args.annotations],
    )
    cfg = CascadeTrainConfig(n_trees=n_trees, channel_cfg=channel_cfg,
                             forest_negatives_per_frame=args.negatives_per_frame, seed=args.seed)
    try:
        model = train_proposal_forest(images, frames, cfg)
    except CascadeError as exc:  # an image without annotation, or an empty class
        raise DataError(f"{args.annotations}: {exc}") from exc
    save_forest(model, args.model_out)
    if len(model.trees) < n_trees:
        print(f"warning: the forest stopped early, at {len(model.trees)} of {n_trees} trees; "
              "the training set may be separable", file=sys.stderr)
    print(f"trained {len(model.trees)} trees (early_stop={model.early_stop}) -> {args.model_out}")
    return EXIT_OK


def _cmd_compile_forest(args) -> int:
    model = _load(load_forest, args.model, "forest")
    _write_manifest(args, "compile-forest", {"sharpness": args.sharpness},
                    {"seed": args.seed}, [args.model])
    net = compile_forest(model)
    if args.verify:
        report = verify_equivalence(model, net, samples=args.samples, seed=args.seed)
        print(f"{report.decision_mismatches} mismatches over {report.samples} windows, "
              f"max score diff {report.max_score_diff:.3e}")
    if args.net_out:
        save_net(to_netmodel(soften(net, args.sharpness)), args.net_out)
        print(f"softened net (sharpness {args.sharpness}) -> {args.net_out}")
    return EXIT_OK


def _cmd_train_net(args) -> int:
    cfgfile = _load_config_file(args.config)
    images, frames, proposals = _rescorer_inputs(args)
    train_kwargs = {k: cfgfile[k] for k in
                    ("lr", "momentum", "batch", "weight_decay", "epochs", "extra_epochs")
                    if k in cfgfile}
    if args.epochs is not None:
        train_kwargs["epochs"] = args.epochs
    if args.batch is not None:
        train_kwargs["batch"] = args.batch
    try:  # a misspelt, misshapen, mistyped or out-of-range key
        tc = TrainConfig(seed=args.seed, **train_kwargs)
        net = {"input_hw": WindowGeometry().window, **cfgfile.get("net", {})}
        spec = default_cifarnet(input_channels=images[0][1].planes, **net)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{args.config}: bad config ({exc})") from exc
    if why := _unsplit(tc.batch, args.ratio):  # --batch was checked by the parser
        raise DataError(f"{args.config}: bad config ({why})")
    cfg = CascadeTrainConfig(policy=LabelingPolicy(neg_source=args.neg_source), ratio=args.ratio,
                             net_geometry=WindowGeometry.for_window(spec.input_shape[-2:]),
                             net_train=tc, net_spec=spec, seed=args.seed)
    _write_manifest(args, "train-net", {"train": vars(tc), "ratio": args.ratio and vars(args.ratio)},
                    {"seed": args.seed}, [args.annotations, args.proposals])
    try:
        rescorer = train_rescorer(images, frames, proposals, cfg)
    except CascadeError as exc:  # an image without annotation, or a single-class pool
        raise DataError(str(exc)) from exc
    save_rescorer(rescorer, args.net_out)
    print(f"trained net ({rescorer.model.n_parameters} parameters) -> {args.net_out}")
    return EXIT_OK


def _cmd_train_svm(args) -> int:
    images, frames, proposals = _rescorer_inputs(args)
    net = _load(load_rescorer, args.net, "net")
    if args.feature_layer not in net.model.layer_names:
        raise DataError(f"{args.net}: no layer named {args.feature_layer!r} "
                        f"(layers: {', '.join(net.model.layer_names)})")
    svm = SvmConfig(C=args.C, feature_layer=args.feature_layer)
    # proposal negatives only, so the pool draws nothing from the generator
    cfg = CascadeTrainConfig(policy=LabelingPolicy(neg_iou=args.neg_overlap),
                             net_geometry=WindowGeometry.for_window(
                                 net.model.spec.input_shape[-2:]))
    _write_manifest(args, "train-svm", {"C": svm.C, "neg_overlap": args.neg_overlap},
                    {}, [args.annotations, args.proposals, args.net])
    try:
        windows, labels = rescorer_training_pool(images, frames, proposals, cfg,
                                                 np.random.default_rng(cfg.seed))
    except CascadeError as exc:  # an image without annotation, or a single-class pool
        raise DataError(str(exc)) from exc
    head = train_svm_head(net, windows, labels, svm)
    save_rescorer(head, args.svm_out)
    print(f"trained SVM head ({head.w.size} features) -> {args.svm_out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    images = _load_images(args.images, color=True)
    cfg = _cascade_config(args, args.threshold, args.proposals_avg)
    _write_manifest(args, "detect", {"threshold": args.threshold, "avg": args.proposals_avg},
                    {}, [args.model, args.net])
    dets, report = run_cascade(images, cfg)
    Path(args.dets_out).write_text(
        json.dumps(detections_to_json(dets), indent=1, sort_keys=True)
    )
    total = sum(len(v) for v in dets.values())
    print(f"{total} detections over {len(images)} images -> {args.dets_out}")
    print(f"timing: {report.ms_per_image_total:.1f} ms/image, "
          f"{report.ms_per_window:.2f} ms/window ({report.windows_scored} windows)")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dets = _load(_read_detections, args.dets, "detections")
    frames = _load(load_annotations, args.ann, "annotation", args.format)
    _write_manifest(args, f"evaluate {args.metric}", {"metric": args.metric}, {},
                    [args.dets, args.ann])
    out = _out_dir(args)
    cfg = LamrConfig()
    try:
        if args.metric == "lamr":
            curve, summary = lamr(dets, frames, cfg)
        elif args.metric == "ap":
            curve, summary = average_precision(dets, frames)
        elif args.metric == "recall":
            curve = recall_vs_iou(dets, frames)
            summary = curve.summary
        elif args.metric == "fp-hist":
            curve = fp_overlap_histogram(dets, frames)
            summary = curve.summary
        elif args.metric == "touching-fp":
            mr_std, mr_filt, delta = touching_fp_analysis(dets, frames, cfg)
            print(f"standard {mr_std:.5f} filtered {mr_filt:.5f} delta {delta:.5f}")
            return EXIT_OK
        elif args.metric == "heights":
            curve = height_histogram(frames)
            summary = curve.summary
        else:  # pragma: no cover - argparse restricts choices
            raise _UsageError(f"unknown metric {args.metric}")
    except DataError as exc:  # frames without GT, or detections of unknown frames
        raise DataError(f"--dets {args.dets} against --ann {args.ann}: {exc}") from exc
    csv_path = out / f"{args.metric}.csv"
    csv_path.write_text(curve.to_csv())
    if args.svg:
        (out / f"{args.metric}.svg").write_text(curve.to_svg())
    print(f"{summary:.5f}")
    print(f"curve -> {csv_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config_file(args.config)
    axes = [(name, values) for name, values in cfg.get("axes", {}).items()]
    if not axes:
        raise DataError(f"{args.config}: config needs a non-empty 'axes' mapping")
    _write_manifest(args, "sweep", cfg, {"base_seed": args.seed}, [args.config])
    run = task_runner(cfg.get("task_config", {}))
    cells = grid_sweep(axes, run, n_seeds=args.seeds_per_cell, base_seed=args.seed)
    csv_path = _out_dir(args) / "sweep.csv"
    csv_path.write_text(sweep_to_csv(cells))
    failed = sum(1 for c in cells if c.error)
    print(f"{len(cells)} cells ({failed} failed) -> {csv_path}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    images = _load_images(args.images, color=True)
    cfg = _cascade_config(args)
    _write_manifest(args, "bench", {}, {}, [args.model, args.net])
    _, report = run_cascade(images, cfg)
    ok = report.consistent(len(images))
    print(f"ms_per_window {report.ms_per_window:.3f}")
    print(f"ms_per_image_proposals {report.ms_per_image_proposals:.3f}")
    print(f"ms_per_image_total {report.ms_per_image_total:.3f}")
    print(f"windows_scored {report.windows_scored}")
    print(f"internally_consistent {ok}")
    (_out_dir(args) / "bench.json").write_text(json.dumps(vars(report), sort_keys=True))
    return EXIT_OK if ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    p = _Parser(prog="pedcascade", description=__doc__)
    p.add_argument("--out-dir", default=None, help="output directory (default $PEDCASCADE_OUT or .)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset")
    s.add_argument("--frames", type=_POSITIVE_INT, default=50)
    s.add_argument("--height", type=_FRAME_SIDE, default=240)
    s.add_argument("--width", type=_FRAME_SIDE, default=320)
    s.add_argument("--clutter", type=_NON_NEGATIVE, default=2.0)
    s.add_argument("--noise", type=_NON_NEGATIVE, default=0.01)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("train-forest", help="train the proposal forest")
    s.add_argument("--images", required=True)
    s.add_argument("--annotations", required=True)
    s.add_argument("--format", default="json", choices=["json", "kitti_txt"])
    s.add_argument("--model-out", required=True)
    s.add_argument("--channels", default=None, choices=sorted(CHANNEL_COUNTS))
    s.add_argument("--trees", type=_POSITIVE_INT, default=None)
    s.add_argument("--negatives-per-frame", type=_NON_NEGATIVE_INT, default=20)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_train_forest)

    s = sub.add_parser("compile-forest", help="compile a forest into a network")
    s.add_argument("--model", required=True)
    s.add_argument("--verify", action="store_true")
    s.add_argument("--samples", type=_POSITIVE_INT, default=10000)
    s.add_argument("--net-out", default=None)
    s.add_argument("--sharpness", type=_POSITIVE, default=100.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_compile_forest)

    s = sub.add_parser("train-net", help="train the rescoring convnet")
    s.add_argument("--images", required=True)
    s.add_argument("--annotations", required=True)
    s.add_argument("--format", default="json", choices=["json", "kitti_txt"])
    s.add_argument("--proposals", required=True)
    s.add_argument("--net-out", required=True)
    s.add_argument("--ratio", type=_ratio, default="1:5", help='"pos:neg" or "none"')
    s.add_argument("--neg-source", default="proposals", choices=["proposals", "random"])
    s.add_argument("--epochs", type=_NON_NEGATIVE_INT, default=None)
    s.add_argument("--batch", type=_POSITIVE_INT, default=None)
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_train_net)

    s = sub.add_parser("train-svm", help="train a linear SVM head on net features")
    s.add_argument("--images", required=True)
    s.add_argument("--annotations", required=True)
    s.add_argument("--format", default="json", choices=["json", "kitti_txt"])
    s.add_argument("--proposals", required=True)
    s.add_argument("--net", required=True)
    s.add_argument("--svm-out", required=True)
    s.add_argument("--C", type=_POSITIVE, default=1e-3)
    s.add_argument("--neg-overlap", type=_UNIT, default=0.5)
    s.add_argument("--feature-layer", default="fc1")
    s.set_defaults(func=_cmd_train_svm)

    s = sub.add_parser("detect", help="run the detector (optionally with a rescoring net)")
    s.add_argument("--images", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--net", default=None)
    s.add_argument("--dets-out", required=True)
    s.add_argument("--threshold", type=_FINITE, default=0.0)
    s.add_argument("--proposals-avg", type=_POSITIVE, default=3.0)
    s.set_defaults(func=_cmd_detect)

    s = sub.add_parser("evaluate", help="evaluate detections against annotations")
    s.add_argument("metric", choices=["lamr", "ap", "recall", "fp-hist", "touching-fp", "heights"])
    s.add_argument("--dets", required=True)
    s.add_argument("--ann", required=True)
    s.add_argument("--format", default="json", choices=["json", "kitti_txt"])
    s.add_argument("--svg", action="store_true")
    s.set_defaults(func=_cmd_evaluate)

    s = sub.add_parser("sweep", help="grid sweep from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--seeds-per-cell", type=_POSITIVE_INT, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("bench", help="timing report for the cascade")
    s.add_argument("--images", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--net", default=None)
    s.set_defaults(func=_cmd_bench)

    return p


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "batch", None) and (why := _unsplit(args.batch, args.ratio)):
            parser.error(f"argument --batch: {why}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (DataError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError, CascadeError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:  # console entry point
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
