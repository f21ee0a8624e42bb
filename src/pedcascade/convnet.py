"""Small convolutional network with exact forward/backward passes and SGD
training (momentum, strict batch composition, two-phase learning rate)."""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# layer specs

def _require_counts(spec, *names: str) -> None:
    for name in names:
        if getattr(spec, name) < 1:
            raise ValueError(f"{type(spec).__name__}.{name} must be at least 1, "
                             f"got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class ConvSpec:
    filters: int
    kernel: int
    stride: int = 1
    pad: Optional[int] = None  # default: kernel // 2 (shape-preserving for stride 1)

    def __post_init__(self):
        _require_counts(self, "filters", "kernel", "stride")
        if self.pad is not None and self.pad < 0:
            raise ValueError(f"ConvSpec.pad must not be negative, got {self.pad!r}")

    @property
    def padding(self) -> int:
        return self.kernel // 2 if self.pad is None else self.pad


@dataclass(frozen=True)
class PoolSpec:
    mode: str = "max"  # "max" or "mean"
    size: int = 3
    stride: int = 2

    def __post_init__(self):
        if self.mode not in ("max", "mean"):
            raise ValueError(f"pool mode must be max or mean, got {self.mode!r}")
        _require_counts(self, "size", "stride")


@dataclass(frozen=True)
class ReLUSpec:
    pass


@dataclass(frozen=True)
class SigmoidSpec:
    pass


@dataclass(frozen=True)
class FCSpec:
    units: int

    def __post_init__(self):
        _require_counts(self, "units")


@dataclass(frozen=True)
class SoftmaxSpec:
    pass


LayerSpec = Union[ConvSpec, PoolSpec, ReLUSpec, SigmoidSpec, FCSpec, SoftmaxSpec]


@dataclass
class NetSpec:
    input_shape: Tuple[int, ...]  # (channels, height, width) or (features,)
    layers: List[LayerSpec]

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in self.input_shape):
            raise ValueError(f"NetSpec.input_shape must hold integers, got {self.input_shape!r}")
        self.shapes()  # validates consistency

    def shapes(self) -> List[Tuple[int, ...]]:
        """Output shape after every layer; raises on inconsistency."""
        shape = tuple(self.input_shape)
        out = []
        for i, spec in enumerate(self.layers):
            if isinstance(spec, ConvSpec):
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: conv needs (C,H,W) input, got {shape}")
                c, h, w = shape
                p, k, s = spec.padding, spec.kernel, spec.stride
                oh = (h + 2 * p - k) // s + 1
                ow = (w + 2 * p - k) // s + 1
                if oh < 1 or ow < 1:
                    raise ValueError(f"layer {i}: conv output collapses ({oh}x{ow})")
                shape = (spec.filters, oh, ow)
            elif isinstance(spec, PoolSpec):
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: pool needs (C,H,W) input, got {shape}")
                c, h, w = shape
                oh = (h - spec.size) // spec.stride + 1
                ow = (w - spec.size) // spec.stride + 1
                if oh < 1 or ow < 1:
                    raise ValueError(f"layer {i}: pool output collapses ({oh}x{ow})")
                shape = (c, oh, ow)
            elif isinstance(spec, FCSpec):
                shape = (spec.units,)
            elif isinstance(spec, (ReLUSpec, SigmoidSpec, SoftmaxSpec)):
                pass
            else:
                raise ValueError(f"unknown layer spec {spec!r}")
            out.append(shape)
        return out


def default_cifarnet(
    input_channels: int = 3,
    input_hw: Tuple[int, int] = (128, 64),
    conv_filters: Sequence[int] = (32, 32, 64),
    conv_kernels: Sequence[int] = (5, 5, 5),
    fc_units: int = 32,
) -> NetSpec:
    """The default conv-pool stack: three conv layers with max, mean, mean
    pooling, a hidden FC layer, and the 2-way softmax a rescorer needs."""
    f1, f2, f3 = conv_filters
    k1, k2, k3 = conv_kernels
    return NetSpec(
        input_shape=(input_channels, *input_hw),
        layers=[
            ConvSpec(f1, k1),
            PoolSpec("max"),
            ReLUSpec(),
            ConvSpec(f2, k2),
            ReLUSpec(),
            PoolSpec("mean"),
            ConvSpec(f3, k3),
            ReLUSpec(),
            PoolSpec("mean"),
            FCSpec(fc_units),
            FCSpec(2),
            SoftmaxSpec(),
        ],
    )


# ---------------------------------------------------------------------------
# runtime layers hold only their spec and parameters: forward(x) returns
# (out, cache), and backward(cache, dout, need_dx) reads that cache alone and
# returns (dx, parameter gradients), with dx None when need_dx is false

# A conv layer builds its im2col columns (Chellapilla et al., 2006) for a
# chunk of samples at a time: at most this many float64 elements, or one
# sample's columns if those are more, so no layer holds a whole batch of them
COLUMN_BLOCK = 2 ** 16


def _windows(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """The (n, c, oh, ow, k, k) view of the k x k windows of x, zero-padded
    by `pad`, at `stride`."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def _chunk_size(per_sample: int) -> int:
    return max(1, COLUMN_BLOCK // per_sample)


def _column_chunks(win: np.ndarray):
    """(a, b, columns of samples a:b) over the batch of a window view, the
    columns laid out (b - a, c * k * k, oh * ow) as im2col lays them out and
    built into one reused buffer."""
    n, c, oh, ow, k, _ = win.shape
    step = _chunk_size(c * k * k * oh * ow)
    buf = np.empty((min(step, n), c, k, k, oh, ow), dtype=win.dtype)
    for a in range(0, n, step):
        b = min(a + step, n)
        cols = buf[: b - a]
        cols[...] = win[a:b].transpose(0, 1, 4, 5, 2, 3)
        yield a, b, cols.reshape(b - a, c * k * k, oh * ow)


def _col2im(cols: np.ndarray, out: np.ndarray, k: int, stride: int, oh: int, ow: int):
    """Add columns (m, c * k * k, oh * ow) into the padded images out
    (m, c, h, w) at the pixels they were read from, in (i, j) order."""
    m, c = out.shape[:2]
    cols = cols.reshape(m, c, k, k, oh, ow)
    for i in range(k):
        for j in range(k):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]


def _weight_grad(win: np.ndarray, dflat: np.ndarray) -> np.ndarray:
    """The sum over the batch of dflat[i] @ columns[i].T.  Each sample's
    product is kept and all are summed in one call, in the order a
    whole-batch matmul and .sum(axis=0) add them."""
    n, f = dflat.shape[:2]
    per_sample = np.empty((n, f, win.shape[1] * win.shape[4] * win.shape[5]))
    for a, b, cols in _column_chunks(win):
        np.matmul(dflat[a:b], cols.transpose(0, 2, 1), out=per_sample[a:b])
    return per_sample.sum(axis=0)


class ConvLayer:
    def __init__(self, spec: ConvSpec, in_channels: int):
        self.spec = spec
        self.W = np.zeros((spec.filters, in_channels, spec.kernel, spec.kernel))
        self.b = np.zeros(spec.filters)

    @property
    def params(self):
        return [self.W, self.b]

    def forward(self, x):
        win = _windows(x, self.spec.kernel, self.spec.stride, self.spec.padding)
        n, oh, ow = x.shape[0], win.shape[2], win.shape[3]
        wm = self.W.reshape(self.spec.filters, -1)
        out = np.empty((n, self.spec.filters, oh * ow))
        for a, b, cols in _column_chunks(win):
            np.matmul(wm[None], cols, out=out[a:b])
        out += self.b[None, :, None]
        return out.reshape(n, self.spec.filters, oh, ow), (x.shape, win)

    def backward(self, cache, dout, need_dx):
        (n, c, h, w), win = cache
        f, oh, ow = self.spec.filters, win.shape[2], win.shape[3]
        dflat = dout.reshape(n, f, -1)
        dW = _weight_grad(win, dflat).reshape(self.W.shape)
        db = dflat.sum(axis=(0, 2))
        if not need_dx:
            return None, [dW, db]
        k, s, p = self.spec.kernel, self.spec.stride, self.spec.padding
        wm = self.W.reshape(f, -1)
        dx = np.zeros((n, c, h + 2 * p, w + 2 * p))
        step = _chunk_size(wm.shape[1] * oh * ow)
        for a in range(0, n, step):
            _col2im(np.matmul(wm.T[None], dflat[a : a + step]), dx[a : a + step], k, s, oh, ow)
        return dx[:, :, p : p + h, p : p + w], [dW, db]


class PoolLayer:
    """k x k pooling at a stride, run as k * k strided maxima or sums over
    the input, one per window offset (i, j) in row-major order."""

    def __init__(self, spec: PoolSpec):
        self.spec = spec
        self.params = []

    def _offsets(self, a: np.ndarray) -> List[np.ndarray]:
        """The k * k strided views of the input-shaped `a`, one per window
        offset, each shaped like the output."""
        k, s = self.spec.size, self.spec.stride
        oh, ow = (a.shape[2] - k) // s + 1, (a.shape[3] - k) // s + 1
        return [a[:, :, i : i + s * oh : s, j : j + s * ow : s] for i in range(k) for j in range(k)]

    def forward(self, x):
        views = self._offsets(x)
        first, *rest = views
        if self.spec.mode == "max":
            # np.argmax's rule: the first maximum wins, and the first NaN.
            # np.maximum(v, out) keeps out, the earlier value, on a tie of
            # -0.0 and +0.0; idx is the first offset equal to the maximum,
            # found from the last offset back
            out = first.copy()
            for v in rest:
                np.maximum(v, out, out=out)
            nan = np.isnan(out)
            has_nan = nan.any()
            idx = np.zeros(out.shape, dtype=np.min_scalar_type(len(rest)))
            for t, v in reversed(list(enumerate(views))):
                won = v == out
                if has_nan:  # the first NaN wins, with its own bits
                    first_nan = nan & np.isnan(v)
                    np.copyto(out, v, where=first_nan)
                    won |= first_nan
                idx = np.where(won, idx.dtype.type(t), idx)
            return out, (x.shape, idx)
        k = self.spec.size
        if first.shape[2:] == (1, 1):  # numpy sums a lone window pairwise, not in order
            n, c = x.shape[:2]
            out = x[:, :, :k, :k].reshape(n, c, k * k).mean(axis=2).reshape(n, c, 1, 1)
            return out, (x.shape, None)
        out = first + 0.0  # the sum starts at +0.0, as numpy's mean does
        for v in rest:
            out += v
        out /= k * k
        return out, (x.shape, None)

    def backward(self, cache, dout, need_dx):
        x_shape, idx = cache
        if not need_dx:
            return None, []
        dx = np.zeros(x_shape)
        if self.spec.mode == "max":
            for t, v in enumerate(self._offsets(dx)):
                v += np.where(idx == t, dout, 0.0)
        else:
            g = dout / self.spec.size ** 2
            for v in self._offsets(dx):
                v += g
        return dx, []


class ReLULayer:
    def __init__(self):
        self.params = []

    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, mask, dout, need_dx):
        return (dout * mask if need_dx else None), []


class SigmoidLayer:
    def __init__(self):
        self.params = []

    def forward(self, x):
        out = sigmoid(x)
        return out, out

    def backward(self, out, dout, need_dx):
        return (dout * out * (1.0 - out) if need_dx else None), []


class FCLayer:
    def __init__(self, spec: FCSpec, in_features: int):
        self.spec = spec
        self.W = np.zeros((spec.units, in_features))
        self.b = np.zeros(spec.units)

    @property
    def params(self):
        return [self.W, self.b]

    def forward(self, x):
        flat = x.reshape(x.shape[0], -1)
        return flat @ self.W.T + self.b, (x.shape, flat)

    def backward(self, cache, dout, need_dx):
        in_shape, flat = cache
        dW = dout.T @ flat
        db = dout.sum(axis=0)
        dx = (dout @ self.W).reshape(in_shape) if need_dx else None
        return dx, [dW, db]


class SoftmaxLayer:
    def __init__(self):
        self.params = []

    def forward(self, x):
        return softmax(x), None

    def backward(self, cache, dout, need_dx):  # pragma: no cover - loss bypasses it
        raise NotImplementedError("train through loss_and_grads, not the softmax layer")


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _build_layer(spec: LayerSpec, in_shape: Tuple[int, ...]):
    if isinstance(spec, ConvSpec):
        return ConvLayer(spec, in_shape[0])
    if isinstance(spec, PoolSpec):
        return PoolLayer(spec)
    if isinstance(spec, ReLUSpec):
        return ReLULayer()
    if isinstance(spec, SigmoidSpec):
        return SigmoidLayer()
    if isinstance(spec, FCSpec):
        return FCLayer(spec, int(np.prod(in_shape)))
    if isinstance(spec, SoftmaxSpec):
        return SoftmaxLayer()
    raise ValueError(f"unknown layer spec {spec!r}")


LR_DROP = 0.1  # learning-rate factor of the extra epochs after the main phase


@dataclass
class TrainConfig:
    lr: float = 0.005
    momentum: float = 0.9
    batch: int = 120  # a multiple of 6, so it splits 1:5
    weight_decay: float = 0.005
    final_layer_decay: float = 1.0  # decay multiplier for the softmax-input FC layer
    epochs: int = 60
    extra_epochs: int = 10  # trained at lr * LR_DROP after the main phase
    init_sigma: float = 0.01
    first_layer_sigma: float = 0.0001
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "momentum", "batch", "weight_decay", "init_sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("epochs", "extra_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.epochs + self.extra_epochs == 0:
            raise ValueError("epochs and extra_epochs are both zero")


class NetModel:
    """A NetSpec plus its weight tensors and the training log."""

    def __init__(self, spec: NetSpec, seed: int = 0, init_sigma: float = 0.01,
                 first_layer_sigma: float = 0.0001):
        self.spec = spec
        self.training_log: List[Dict[str, float]] = []
        shapes = [tuple(spec.input_shape)] + spec.shapes()
        self.layers = [_build_layer(s, shapes[i]) for i, s in enumerate(spec.layers)]
        rng = np.random.default_rng(seed)
        first = True
        for layer in self.layers:
            if isinstance(layer, (ConvLayer, FCLayer)):
                sigma = first_layer_sigma if first else init_sigma
                layer.W[...] = rng.normal(0.0, sigma, size=layer.W.shape)
                first = False

    @property
    def layer_names(self) -> List[str]:
        names = []
        counts: Dict[str, int] = {}
        for spec in self.spec.layers:
            kind = _SPEC_KINDS[type(spec)]
            counts[kind] = counts.get(kind, 0) + 1
            names.append(f"{kind}{counts[kind]}")
        return names

    @property
    def n_parameters(self) -> int:
        return sum(p.size for layer in self.layers for p in layer.params)

    def param_layers(self) -> List[Tuple[int, object]]:
        return [(i, l) for i, l in enumerate(self.layers) if l.params]

    def forward(self, x: np.ndarray, upto: Optional[str] = None):
        """Run the network; returns (output, one backward cache per layer run).

        `x` is (N, C, H, W) (or (N, F) for FC-only nets).  `upto` stops after
        the named layer and returns its activation as the output.
        """
        caches = []
        out = x
        for name, layer in zip(self.layer_names, self.layers):
            out, cache = layer.forward(out)
            caches.append(cache)
            if name == upto:
                return out, caches
        if upto is not None:
            raise KeyError(f"no layer named {upto!r}")
        return out, caches

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Positive-class softmax probability per sample."""
        out, _ = self.forward(x)
        if out.ndim != 2 or out.shape[1] != 2:
            raise ValueError("scores() needs a 2-class softmax net")
        return out[:, 1]

    def features(self, x: np.ndarray, layer_name: str) -> np.ndarray:
        out, _ = self.forward(x, upto=layer_name)
        return out.reshape(out.shape[0], -1)


def _l2_coefficients(model: NetModel, cfg: TrainConfig) -> Dict[int, float]:
    """Per-layer L2 coefficient: the final FC (softmax input) layer scales the
    base decay by its own multiplier, every other layer uses the base value."""
    param_idx = [i for i, l in enumerate(model.layers) if l.params]
    coeffs = {i: cfg.weight_decay for i in param_idx}
    if param_idx:
        coeffs[param_idx[-1]] = cfg.weight_decay * cfg.final_layer_decay
    return coeffs


def loss_and_grads(model: NetModel, x: np.ndarray, labels: np.ndarray,
                   cfg: Optional[TrainConfig] = None):
    """Mean softmax cross-entropy plus L2 penalty, and exact gradients.

    Returns (loss, grads) where grads aligns with model.param_layers():
    one [dW, db] pair per parameterized layer.
    """
    if len(x) == 0:
        raise ValueError("empty batch")
    if cfg is None:
        cfg = TrainConfig()
    if len(model.layers) < 2 or not isinstance(model.layers[-1], SoftmaxLayer):
        raise ValueError("training requires a softmax output layer after another layer")

    logits, caches = model.forward(x, upto=model.layer_names[-2])
    n = x.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    ce = -log_probs[np.arange(n), labels].mean()

    probs = np.exp(log_probs)
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grads: Dict[int, list] = {}
    dout = dlogits
    for i in range(len(caches) - 1, -1, -1):
        # the first layer's input gradient is never read, so it is not built
        dout, g = model.layers[i].backward(caches.pop(), dout, i > 0)
        if g:
            grads[i] = g

    l2 = _l2_coefficients(model, cfg)
    reg = 0.0
    for i, layer in model.param_layers():
        reg += 0.5 * l2[i] * float(np.sum(layer.W * layer.W))
        grads[i][0] = grads[i][0] + l2[i] * layer.W
    loss = float(ce + reg)
    return loss, [grads[i] for i, _ in model.param_layers()]


def sgd_train(model: NetModel, sampler, cfg: TrainConfig) -> NetModel:
    """SGD with classical heavy-ball momentum; two-phase learning rate.

    `sampler` must provide batches_per_epoch and next_batch() -> (x, labels).
    Deterministic given the sampler's seed and cfg.  Aborts on NaN loss.
    """
    velocity = {
        i: [np.zeros_like(p) for p in layer.params] for i, layer in model.param_layers()
    }
    total = cfg.epochs + cfg.extra_epochs
    for epoch in range(total):
        lr = cfg.lr if epoch < cfg.epochs else cfg.lr * LR_DROP
        losses = []
        for _ in range(sampler.batches_per_epoch):
            x, labels = sampler.next_batch()
            loss, grads = loss_and_grads(model, x, labels, cfg)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            losses.append(loss)
            for (i, layer), g in zip(model.param_layers(), grads):
                for p, v, gp in zip(layer.params, velocity[i], g):
                    v *= cfg.momentum
                    v -= lr * gp
                    p += v
        model.training_log.append(
            {"epoch": epoch, "lr": lr, "mean_loss": float(np.mean(losses))}
        )
    return model


# ---------------------------------------------------------------------------
# serialization: versioned binary (little-endian float64) + JSON spec

NET_MAGIC = b"PCNET\x00"
NET_FORMAT_VERSION = 1

_SPEC_TAGS = {
    "conv": ConvSpec, "pool": PoolSpec, "relu": ReLUSpec,
    "sigmoid": SigmoidSpec, "fc": FCSpec, "softmax": SoftmaxSpec,
}
_SPEC_KINDS = {cls: kind for kind, cls in _SPEC_TAGS.items()}


def spec_to_json(spec: NetSpec) -> dict:
    layers = [{"type": _SPEC_KINDS[type(s)], **asdict(s)} for s in spec.layers]
    return {"version": NET_FORMAT_VERSION, "input_shape": list(spec.input_shape),
            "layers": layers}


def spec_from_json(d: dict) -> NetSpec:
    if d.get("version") != NET_FORMAT_VERSION:
        raise ValueError(f"unsupported net spec version {d.get('version')!r}")
    layers = []
    for ld in d["layers"]:
        cls = _SPEC_TAGS[ld["type"]]
        kwargs = {k: v for k, v in ld.items() if k != "type"}
        layers.append(cls(**kwargs))
    return NetSpec(input_shape=tuple(d["input_shape"]), layers=layers)


def save_net(model: NetModel, path, extra: Optional[dict] = None) -> None:
    """Write `model` as a net file; the `extra` keys join its JSON header."""
    tensors = [p for _, layer in model.param_layers() for p in layer.params]
    manifest = {
        "spec": spec_to_json(model.spec),
        "tensor_shapes": [list(t.shape) for t in tensors],
        "training_log": model.training_log,
        **(extra or {}),
    }
    header = json.dumps(manifest, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(NET_MAGIC)
    buf.write(struct.pack("<HI", NET_FORMAT_VERSION, len(header)))
    buf.write(header)
    for t in tensors:
        buf.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
    Path(path).write_bytes(buf.getvalue())


def read_net(path) -> Tuple[NetModel, dict]:
    """The model in a net file and the file's JSON header.  A file of another
    size than its header declares is a ValueError naming it."""
    raw = Path(path).read_bytes()
    off = len(NET_MAGIC) + struct.calcsize("<HI")
    if raw[: len(NET_MAGIC)] != NET_MAGIC or len(raw) < off:
        raise ValueError(f"{path}: not a net model file")
    version, hlen = struct.unpack_from("<HI", raw, len(NET_MAGIC))
    if version != NET_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported net format version {version}")
    if len(raw) < off + hlen:
        raise ValueError(f"{path}: truncated net file ({len(raw)} bytes)")
    manifest = json.loads(raw[off : off + hlen].decode("utf-8"))
    off += hlen
    model = NetModel(spec_from_json(manifest["spec"]), seed=0)
    model.training_log = manifest.get("training_log", [])
    expected = off + 8 * model.n_parameters
    if len(raw) != expected:
        raise ValueError(f"{path}: {len(raw)} bytes, but its header declares {expected}")
    for _, layer in model.param_layers():
        for p in layer.params:
            p[...] = np.frombuffer(raw, dtype="<f8", count=p.size, offset=off).reshape(p.shape)
            off += p.size * 8
    return model, manifest
