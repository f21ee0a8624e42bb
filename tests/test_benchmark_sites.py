"""`benchmark/spans.py` wraps library functions at the names their callers
look them up by, and every benchmark run enters `Tracer().installed()`,
untraced runs included (they compare their bytes with a traced run).  A
refactor that drops one of those names, such as the `nms` or
`compute_channels` that `cascade` imports, would fail every benchmark run;
this test fails first."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from conftest import TINY_GEOM
from pedcascade.cascade import NetRescorer, rescore
from pedcascade.convnet import ConvSpec, FCSpec, NetModel, NetSpec, PoolSpec, ReLUSpec, SoftmaxSpec
from pedcascade.geometry import Detection

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def load_spans(monkeypatch):
    """`benchmark/spans.py` as a fresh module, unedited, writing no cache
    file under benchmark/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", BENCHMARK / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_site_resolves_and_is_restored(monkeypatch):
    files = sorted(BENCHMARK.rglob("*"))
    spans = load_spans(monkeypatch)
    sites = [(owner, attr) for owner, attr, _, _ in spans.SITES]
    sites += [(cls, attr) for cls in spans.CONVNET_LAYER_CLASSES
              for attr in ("forward", "backward")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in owner.__dict__]
    assert not missing
    originals = [owner.__dict__[attr] for owner, attr in sites]

    with spans.Tracer().installed():
        for (owner, attr), orig in zip(sites, originals):
            assert owner.__dict__[attr].__wrapped__ is orig

    assert [owner.__dict__[attr] for owner, attr in sites] == originals
    assert sorted(BENCHMARK.rglob("*")) == files


def test_svm_head_rescoring_is_timed(monkeypatch, tiny_world):
    """An SVM head is a NetRescorer with a linear head, so the
    `cascade.rescore` span times it and counts its windows."""
    spans = load_spans(monkeypatch)
    images, frames = tiny_world
    spec = NetSpec((3, 32, 16), [ConvSpec(2, 3), PoolSpec("max"), ReLUSpec(),
                                 FCSpec(4), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
    head = NetRescorer(NetModel(spec, seed=0), 0.2, np.ones(4), 0.5, "fc1")
    proposals = {ann.frame_id: [Detection(b, 1.0) for b in ann.gt_boxes] for ann in frames}

    with spans.Tracer().installed() as tracer:
        rescore(images, proposals, head, TINY_GEOM)

    assert [name for name, *_ in tracer.spans].count("cascade.rescore") == len(images)
    assert tracer.counts["cascade.windows_rescored"] == sum(map(len, proposals.values()))
