"""In-memory span tracer that wraps pedcascade functions from the outside.

Each wrapped call records a span (name, start, end, parent) and may add to
named counters.  Functions are wrapped at the name their caller looks up:
the package uses ``from .x import y``, so a function imported into two
modules is patched in both (for example ``compute_channels`` in
``pedcascade.forest`` and ``pedcascade.cascade``).  Nothing under ``src/``
is edited; ``Tracer.installed()`` patches on entry and restores on exit.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from pedcascade import cascade, channels, convnet, data, evaluate, forest, forest2nn

CONVNET_LAYER_CLASSES = (
    convnet.ConvLayer, convnet.PoolLayer, convnet.ReLULayer, convnet.FCLayer,
    convnet.SoftmaxLayer,
)


def _count_levels(tr, args, ratios):
    tr.counts["imageops.pyramid_levels"] += len(ratios)


def _count_scanned(tr, args, result):
    tr.counts["forest.windows_scanned"] += result[0].size


def _count_detect_nms(tr, args, kept):
    tr.counts["forest.windows_above_threshold"] += len(args[0])
    tr.counts["forest.windows_after_nms"] += len(kept)


def _count_filter(tr, args, result):
    tr.counts["forest.proposals_in"] += sum(len(per) for per in args[0])
    tr.counts["forest.proposals_kept"] += sum(len(per) for per in result[1])


def _count_batch(tr, args, result):
    tr.counts["convnet.batches"] += 1


def _count_rescored(tr, args, result):
    tr.counts["cascade.windows_rescored"] += len(args[0])


def _count_final(tr, args, result):
    tr.counts["cascade.detections_final"] += sum(len(d) for d in result[0].values())


# (owner, attribute, span name or None for count-only, counter hook or None).
# Hooks get (tracer, positional args, result); method wrappers see `self`
# stripped from the positional args.
SITES = [
    (forest, "pyramid_ratios", None, _count_levels),
    (forest, "bilinear_resize", "imageops.bilinear_resize", None),
    (forest, "compute_channels", "channels.compute_channels", None),
    (cascade, "compute_channels", "channels.compute_channels", None),
    (channels, "rgb_to_luv", "channels.rgb_to_luv", None),
    (channels, "gradient_channels", "channels.gradient_channels", None),
    (channels, "integral_image", "channels.integral_image", None),
    (forest, "score_window_grid", "forest.score_window_grid", _count_scanned),
    (forest, "detect", "forest.detect", None),
    (cascade, "detect", "forest.detect", None),
    (forest, "nms", "geometry.nms.detect", _count_detect_nms),
    (cascade, "nms", "geometry.nms.final", None),
    (forest, "filter_proposals", "forest.filter_proposals", _count_filter),
    (cascade, "filter_proposals", "forest.filter_proposals", _count_filter),
    (cascade, "train_forest", "forest.train_forest", None),
    (forest, "compute_feature_matrix", "forest.compute_feature_matrix", None),
    (cascade, "extract_window", "data.extract_window", None),
    (data.BatchSampler, "next_batch", "data.BatchSampler.next_batch", None),
    (convnet, "loss_and_grads", "convnet.loss_and_grads", _count_batch),
    (cascade, "sgd_train", "convnet.sgd_train", None),
    (cascade, "run_cascade", "cascade.run_cascade", _count_final),
    (cascade.NetRescorer, "__call__", "cascade.rescore", _count_rescored),
    (forest2nn, "verify_equivalence", "forest2nn.verify_equivalence", None),
    (evaluate, "lamr", "evaluate.lamr", None),
]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # one [name, start, end, parent index or -1] per call, in start order
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        # calls per patched site, keyed "module.attribute" or "Class.method"
        self.site_calls: Dict[str, int] = defaultdict(int)
        self._open: List[int] = []
        self._layer_names: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def call(self, name: str, fn: Callable, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def name_layers(self, model) -> None:
        """Register `conv1`, `pool1`, ... names for a model's layer objects."""
        for name, layer in zip(model.layer_names, model.layers):
            self._layer_names[layer] = name

    def self_times(self, since: int = 0, until: Optional[int] = None) -> Dict[str, float]:
        """Seconds per span name over spans[since:until], each span minus its
        child spans."""
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans[since:until]:
            out[name] += end - start
            if parent >= since:
                pname, pstart, pend, _ = self.spans[parent]
                out[pname] -= end - start
        return out

    def covered(self, since: int = 0) -> float:
        """Seconds covered by top-level spans started at or after `since`."""
        return sum(end - start for _, start, end, parent in self.spans[since:]
                   if parent < since)

    def _wrap(self, fn: Callable, site: str, name: Optional[str], hook, method: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.site_calls[site] += 1
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args[1:] if method else args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_layer(self, fn: Callable, suffix: str):
        tracer = self

        def wrapper(layer, *args):
            name = tracer._layer_names.get(layer, type(layer).__name__)
            return tracer.call(f"convnet.{name}.{suffix}", fn, (layer,) + args, {})

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_init(self, fn: Callable):
        tracer = self

        def wrapper(model, *args, **kwargs):
            fn(model, *args, **kwargs)
            tracer.name_layers(model)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hook in SITES:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                site = f"{owner.__name__}.{attr}"
                setattr(owner, attr, self._wrap(orig, site, name, hook, isinstance(owner, type)))
            for cls in CONVNET_LAYER_CLASSES:
                for attr, suffix in (("forward", "fwd"), ("backward", "bwd")):
                    orig = cls.__dict__[attr]
                    saved.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap_layer(orig, suffix))
            orig = convnet.NetModel.__dict__["__init__"]
            saved.append((convnet.NetModel, "__init__", orig))
            convnet.NetModel.__init__ = self._wrap_init(orig)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
