"""`benchmark/spans.py` wraps library functions at the names their callers
look them up by, and every benchmark run enters `Tracer().installed()`,
untraced runs included (they compare their bytes with a traced run).  A
refactor that drops one of those names, such as the `nms` or
`compute_channels` that `cascade` imports, would fail every benchmark run;
this test fails first."""

import importlib.util
import sys
from pathlib import Path

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
