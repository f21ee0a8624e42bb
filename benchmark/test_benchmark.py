"""Smoke test of the benchmark on a tiny scale.

    PYTHONPATH=src python -m pytest -q benchmark/test_benchmark.py

Each workload runs once traced and once untraced; the test checks that the
run is correct, that every metric in BENCHMARK.json is reported, and that
the spans of each layer fire on the workloads that call it.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pedcascade.data import WindowGeometry  # noqa: E402
from pedcascade.forest import SlidingWindowConfig  # noqa: E402

import workloads  # noqa: E402

_GEOM = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))
TINY = workloads.Scale(
    image_hw=(72, 96), height_range=(24.0, 40.0), train_frames=40, test_frames=8,
    n_trees=8, net_epochs=1, net_extra_epochs=1, net_filters=(2, 2, 2),
    net_fc_units=4, geometry=_GEOM, net_geometry=_GEOM,
    detect_sliding=SlidingWindowConfig(stride=4, scale_step=2 ** 0.5, min_height=20),
    dense_sliding=SlidingWindowConfig(stride=4, scale_step=2 ** 0.5, min_height=20,
                                      score_threshold=-1e9),
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_PYRAMID = ["imageops.bilinear_resize", "channels.compute_channels", "channels.rgb_to_luv",
            "channels.gradient_channels", "channels.integral_image",
            "forest.score_window_grid", "forest.detect", "geometry.nms.detect",
            "forest.filter_proposals"]
_NET_FWD = [f"convnet.{n}.fwd" for n in workloads.NET_LAYERS]
_NET_BWD = [f"convnet.{n}.bwd" for n in workloads.NET_LAYERS]
# spans each workload's operations must record
EXPECTED_SPANS = {
    "detect-default": _PYRAMID,
    "train": _PYRAMID + _NET_FWD + _NET_BWD + [
        "forest.train_forest", "forest.compute_feature_matrix", "data.extract_window",
        "data.BatchSampler.next_batch", "convnet.loss_and_grads", "convnet.sgd_train",
        "geometry.nms.final", "cascade.run_cascade", "cascade.rescore"],
}
_PYRAMID_COUNTS = ["imageops.pyramid_levels", "forest.windows_scanned",
                   "forest.windows_above_threshold", "forest.windows_after_nms",
                   "forest.proposals_kept", "forest.filter_keep_ratio", "forest.trees"]
EXPECTED_COUNTS = {
    "detect-default": _PYRAMID_COUNTS,
    "train": _PYRAMID_COUNTS + ["convnet.batches", "cascade.windows_rescored",
                                "cascade.detections_final"],
}
# import sites that must fire, beyond the ones named by the spans
EXPECTED_SITES = {
    "detect-default": ["pedcascade.forest.compute_channels", "pedcascade.forest.nms"],
    "train": ["pedcascade.forest.compute_channels", "pedcascade.cascade.compute_channels",
              "pedcascade.cascade.detect", "pedcascade.forest.nms", "pedcascade.cascade.nms"],
}


def _metric_name(span: str) -> str:
    if span.startswith("convnet.") and span.rsplit(".", 1)[1] in ("fwd", "bwd"):
        return span + "_s"
    return span + ".self_s"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_covers_layers(name):
    result, record = workloads.run(name, seed=3, seconds=0.0, trace=True, scale=TINY)
    assert result["correct"], record["gates"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for span in EXPECTED_SPANS[name]:
        assert metrics[_metric_name(span)]["value"] > 0, span
    for count in EXPECTED_COUNTS[name]:
        assert metrics[count]["value"] > 0, count
    for site in EXPECTED_SITES[name]:
        assert record["site_calls"].get(site, 0) > 0, site
    assert metrics["forest2nn.verify_equivalence.self_s"]["value"] > 0
    assert 0.0 <= metrics["trace.unattributed_frac"]["value"] <= 0.05
    assert "trace.overhead_frac" in metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_end_to_end(name):
    result, record = workloads.run(name, seed=3, seconds=0.0, trace=False, scale=TINY)
    assert result["correct"], record["gates"]
    assert record["gates"]["traced_equals_untraced"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_tail_percentile_leaves_ten_samples_above():
    pct, value = workloads.tail_percentile([float(i) for i in range(1, 41)])
    assert (pct, value) == (75.0, 30.0)
    assert workloads.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_early_stopped_forest_fails_the_run(monkeypatch):
    train_forest = workloads.cascade.train_forest

    def early_stopped(*args, **kwargs):
        return dataclasses.replace(train_forest(*args, **kwargs), early_stop=True)

    monkeypatch.setattr(workloads.cascade, "train_forest", early_stopped)
    result, record = workloads.run("detect-default", seed=3, seconds=0.0, trace=False,
                                   scale=TINY)
    assert not record["gates"]["forest_not_early_stopped"]
    assert not result["correct"]
