import hashlib
import tracemalloc

import numpy as np
import pytest

from pedcascade import convnet
from pedcascade.cascade import NetRescorer, train_svm_head
from pedcascade.convnet import (
    ConvLayer,
    ConvSpec,
    FCLayer,
    FCSpec,
    LR_DROP,
    NetModel,
    NetSpec,
    PoolLayer,
    PoolSpec,
    ReLULayer,
    ReLUSpec,
    SigmoidSpec,
    SoftmaxSpec,
    TrainConfig,
    TrainingDiverged,
    default_cifarnet,
    loss_and_grads,
    read_net,
    save_net,
    sgd_train,
    sigmoid,
    softmax,
    spec_from_json,
    spec_to_json,
)
from pedcascade.svm import SvmConfig


def naive_conv(x, W, b, stride, pad):
    """Quadruple-loop convolution reference."""
    n, c, h, w = x.shape
    f, _, k, _ = W.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride: i * stride + k, j * stride: j * stride + k]
                    out[ni, fi, i, j] = np.sum(patch * W[fi]) + b[fi]
    return out


def naive_pool(x, size, stride, mode):
    n, c, h, w = x.shape
    oh = (h - size) // stride + 1
    ow = (w - size) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for ni in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, ci, i * stride: i * stride + size,
                              j * stride: j * stride + size]
                    out[ni, ci, i, j] = patch.max() if mode == "max" else patch.mean()
    return out


def im2col(x, k, stride, pad):
    """Whole-batch im2col columns (n, c * k * k, oh * ow): the layout the
    chunked conv kernels build a chunk of samples at a time."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * k * k, oh * ow), oh, ow


def col2im(cols, x_shape, k, stride, pad, oh, ow):
    n, c, h, w = x_shape
    cols = cols.reshape(n, c, k, k, oh, ow)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def oracle_conv(layer, x, dout):
    """(out, dx, dW, db) of a conv layer from the whole batch's columns: one
    matmul per direction over the batch, dW summed over it by .sum(axis=0)."""
    k, s, p = layer.spec.kernel, layer.spec.stride, layer.spec.padding
    n, f = x.shape[0], layer.spec.filters
    cols, oh, ow = im2col(x, k, s, p)
    wm = layer.W.reshape(f, -1)
    out = (np.matmul(wm[None], cols) + layer.b[None, :, None]).reshape(n, f, oh, ow)
    dflat = dout.reshape(n, f, -1)
    dW = np.matmul(dflat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(layer.W.shape)
    db = dflat.sum(axis=(0, 2))
    dx = col2im(np.matmul(wm.T[None], dflat), x.shape, k, s, p, oh, ow)
    return out, dx, dW, db


def oracle_pool(spec, x, dout):
    """(out, dx) of a pool layer from its im2col columns: np.argmax picks
    each window's maximum and routes its gradient, or .mean(axis=2)
    averages the window and spreads the gradient evenly."""
    k, s = spec.size, spec.stride
    n, c = x.shape[:2]
    cols, oh, ow = im2col(x, k, s, 0)
    cols = cols.reshape(n, c, k * k, oh * ow)
    dflat = dout.reshape(n, c, oh * ow)
    dcols = np.zeros((n, c, k * k, oh * ow))
    if spec.mode == "max":
        idx = np.argmax(cols, axis=2)
        out = np.take_along_axis(cols, idx[:, :, None, :], axis=2)[:, :, 0, :]
        np.put_along_axis(dcols, idx[:, :, None, :], dflat[:, :, None, :], axis=2)
    else:
        out = cols.mean(axis=2)
        dcols += dflat[:, :, None, :] / (k * k)
    dx = col2im(dcols.reshape(n, c * k * k, oh * ow), x.shape, k, s, 0, oh, ow)
    return out.reshape(n, c, oh, ow), dx


def same_bits(got, want):
    return (got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def numeric_grad(f, param, eps=1e-5, samples=None, rng=None):
    """Central finite differences on a sample of entries."""
    flat = param.reshape(-1)
    idx = range(flat.size)
    if samples is not None and samples < flat.size:
        idx = rng.choice(flat.size, size=samples, replace=False)
    grads = {}
    for i in idx:
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        grads[int(i)] = (hi - lo) / (2 * eps)
    return grads


def check_param_grads(model, x, labels, cfg, rng, samples_per_tensor=20, tol=1e-4):
    _, grads = loss_and_grads(model, x, labels, cfg)
    checked = 0
    for (li, layer), g in zip(model.param_layers(), grads):
        for p, gp in zip(layer.params, g):
            num = numeric_grad(
                lambda: loss_and_grads(model, x, labels, cfg)[0],
                p, samples=samples_per_tensor, rng=rng,
            )
            for i, nv in num.items():
                av = gp.reshape(-1)[i]
                denom = max(abs(nv), abs(av), 1e-6)
                assert abs(nv - av) / denom <= tol, (li, i, nv, av)
                checked += 1
    return checked


class TestSpecValidation:
    def test_shapes_track_conv_and_pool(self):
        spec = NetSpec((3, 32, 16), [ConvSpec(8, 5), PoolSpec("max"), FCSpec(4)])
        shapes = spec.shapes()
        assert shapes[0] == (8, 32, 16)
        assert shapes[1] == (8, 15, 7)
        assert shapes[2] == (4,)

    def test_rejects_collapsing_pool(self):
        with pytest.raises(ValueError):
            NetSpec((3, 4, 4), [PoolSpec("max", size=5)])

    @pytest.mark.parametrize("shape", [(3, 32.0, 16), (3, 32, 16.5), (True, 32, 16),
                                       (3, "32", 16)])
    def test_rejects_sizes_that_are_not_integers(self, shape):
        with pytest.raises(ValueError, match="input_shape must hold integers"):
            NetSpec(shape, [ConvSpec(4, 3)])

    def test_accepts_numpy_integer_sizes(self):
        assert NetSpec((3, np.int64(8), 6), [ConvSpec(4, 3)]).shapes() == [(4, 8, 6)]

    def test_rejects_conv_on_flat_input(self):
        with pytest.raises(ValueError):
            NetSpec((10,), [ConvSpec(4, 3)])

    @pytest.mark.parametrize("make", [
        lambda: ConvSpec(0, 3), lambda: ConvSpec(4, 0), lambda: ConvSpec(4, 3, stride=0),
        lambda: ConvSpec(4, 3, pad=-1), lambda: PoolSpec(size=0), lambda: PoolSpec(stride=0),
        lambda: FCSpec(0), lambda: TrainConfig(epochs=-1), lambda: TrainConfig(extra_epochs=-1),
        lambda: TrainConfig(epochs=0, extra_epochs=0),
    ])
    def test_rejects_counts_below_one(self, make):
        with pytest.raises(ValueError):
            make()

    def test_accepts_the_edges(self):
        assert ConvSpec(4, 3, pad=0).padding == 0
        assert TrainConfig(epochs=0, extra_epochs=1).extra_epochs == 1

    def test_default_cifarnet_parameter_budget(self):
        spec = default_cifarnet()
        model = NetModel(spec, seed=0)
        assert 0.5e5 <= model.n_parameters <= 5e5

    def test_spec_json_roundtrip(self):
        spec = default_cifarnet(input_hw=(32, 16), conv_filters=(4, 4, 8),
                                conv_kernels=(3, 3, 3), fc_units=8)
        back = spec_from_json(spec_to_json(spec))
        assert back == spec


class TestForwardOracles:
    def test_conv_matches_naive(self):
        rng = np.random.default_rng(0)
        for stride, pad in [(1, 2), (1, 0), (2, 1)]:
            layer = ConvLayer(ConvSpec(4, 5, stride=stride, pad=pad), in_channels=3)
            layer.W[...] = rng.normal(size=layer.W.shape)
            layer.b[...] = rng.normal(size=layer.b.shape)
            x = rng.normal(size=(2, 3, 12, 10))
            got = layer.forward(x)[0]
            want = naive_conv(x, layer.W, layer.b, stride, pad)
            assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("mode", ["max", "mean"])
    def test_pool_matches_naive(self, mode):
        rng = np.random.default_rng(1)
        layer = PoolLayer(PoolSpec(mode))
        x = rng.normal(size=(2, 3, 11, 9))
        assert np.allclose(layer.forward(x)[0], naive_pool(x, 3, 2, mode), atol=1e-12)

    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.5]])
        assert np.array_equal(ReLULayer().forward(x)[0], [[0.0, 0.0, 2.5]])

    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-800.0, 0.0, 800.0])
        out = sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == 0.5
        assert out[2] == pytest.approx(1.0, abs=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        p = softmax(rng.normal(size=(5, 3)) * 50)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_fc_is_affine(self):
        rng = np.random.default_rng(3)
        layer = FCLayer(FCSpec(4), in_features=6)
        layer.W[...] = rng.normal(size=layer.W.shape)
        layer.b[...] = rng.normal(size=4)
        x = rng.normal(size=(3, 6))
        assert np.allclose(layer.forward(x)[0], x @ layer.W.T + layer.b)


class TestGradients:
    def test_conv_layer_gradcheck(self):
        rng = np.random.default_rng(4)
        spec = NetSpec((2, 8, 8), [ConvSpec(3, 3), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=0, init_sigma=0.1, first_layer_sigma=0.1)
        x = rng.normal(size=(4, 2, 8, 8))
        labels = rng.integers(0, 2, size=4)
        cfg = TrainConfig(weight_decay=0.01)
        assert check_param_grads(model, x, labels, cfg, rng) > 0

    def test_pool_paths_gradcheck(self):
        rng = np.random.default_rng(5)
        spec = NetSpec(
            (2, 10, 10),
            [ConvSpec(3, 3), PoolSpec("max"), ReLUSpec(), PoolSpec("mean"),
             FCSpec(2), SoftmaxSpec()],
        )
        model = NetModel(spec, seed=1, init_sigma=0.2, first_layer_sigma=0.2)
        x = rng.normal(size=(3, 2, 10, 10))
        labels = rng.integers(0, 2, size=3)
        check_param_grads(model, x, labels, TrainConfig(), rng)

    def test_sigmoid_fc_gradcheck(self):
        rng = np.random.default_rng(6)
        spec = NetSpec((6,), [FCSpec(5), SigmoidSpec(), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=2, init_sigma=0.5, first_layer_sigma=0.5)
        x = rng.normal(size=(8, 6))
        labels = rng.integers(0, 2, size=8)
        check_param_grads(model, x, labels, TrainConfig(), rng)

    def test_composed_default_stack_gradcheck(self):
        rng = np.random.default_rng(7)
        spec = default_cifarnet(input_hw=(32, 16), conv_filters=(3, 3, 4),
                                conv_kernels=(3, 3, 3), fc_units=6)
        model = NetModel(spec, seed=3, init_sigma=0.1, first_layer_sigma=0.05)
        x = rng.normal(size=(2, 3, 32, 16))
        labels = np.array([0, 1])
        check_param_grads(model, x, labels, TrainConfig(), rng, samples_per_tensor=10)

    def test_dinput_gradcheck(self):
        rng = np.random.default_rng(8)
        spec = NetSpec((2, 6, 6), [ConvSpec(2, 3), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=4, init_sigma=0.3, first_layer_sigma=0.3)
        x = rng.normal(size=(2, 2, 6, 6))
        labels = np.array([1, 0])
        num = numeric_grad(
            lambda: loss_and_grads(model, x, labels, TrainConfig())[0],
            x, samples=25, rng=rng,
        )
        # analytic input gradient via manual backprop chain
        out, caches = model.forward(x, upto="fc1")
        z = out - out.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        dlogits = probs.copy()
        dlogits[np.arange(2), labels] -= 1.0
        dlogits /= 2
        dout = dlogits
        for layer, cache in reversed(list(zip(model.layers, caches))):
            dout, _ = layer.backward(cache, dout, True)
        for i, nv in num.items():
            av = dout.reshape(-1)[i]
            assert abs(nv - av) / max(abs(nv), abs(av), 1e-6) <= 1e-4

    def test_first_layer_skips_its_input_gradient_bit_for_bit(self):
        rng = np.random.default_rng(9)
        spec = default_cifarnet(input_hw=(32, 16), conv_filters=(4, 4, 4), fc_units=8)
        model = NetModel(spec, seed=2, init_sigma=0.1, first_layer_sigma=0.1)
        x = rng.normal(size=(6, 3, 32, 16))
        labels = np.array([0, 1, 0, 1, 1, 0])
        loss, grads = loss_and_grads(model, x, labels)

        first, calls = model.layers[0], []

        def full_chain(cache, dout, need_dx):
            calls.append(need_dx)
            return type(first).backward(first, cache, dout, True)

        first.backward = full_chain  # the whole chain, dx of the first layer too
        want_loss, want = loss_and_grads(model, x, labels)
        assert calls == [False]
        assert loss == want_loss
        for got, exp in zip(grads, want):
            assert all(np.array_equal(a, b) for a, b in zip(got, exp))

    def test_backward_without_dx_keeps_the_parameter_gradients(self):
        rng = np.random.default_rng(10)
        spec = NetSpec((2, 9, 7), [ConvSpec(3, 3), PoolSpec("max"), SigmoidSpec(),
                                   ConvSpec(2, 3), PoolSpec("mean"), ReLUSpec(), FCSpec(4),
                                   FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=5, init_sigma=0.3, first_layer_sigma=0.3)
        out, caches = model.forward(rng.normal(size=(3, 2, 9, 7)), upto="fc2")
        dout = rng.normal(size=out.shape)
        for layer, cache in reversed(list(zip(model.layers, caches))):
            dx, grads = layer.backward(cache, dout, True)
            none, same = layer.backward(cache, dout, False)
            assert none is None
            assert len(same) == len(grads)
            assert all(np.array_equal(a, b) for a, b in zip(same, grads))
            dout = dx

    def test_trained_model_keeps_no_batch_activations(self):
        rng = np.random.default_rng(11)
        spec = NetSpec((2, 9, 7), [ConvSpec(3, 3), PoolSpec("max"), SigmoidSpec(), FCSpec(4),
                                   ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=6, init_sigma=0.3, first_layer_sigma=0.3)
        batch = rng.normal(size=(4, 2, 9, 7)), np.array([0, 1, 1, 0])

        class OneBatch:
            batches_per_epoch = 1

            def next_batch(self):
                return batch

        def held():
            return [(name, k) for name, layer in zip(model.layer_names, model.layers)
                    for k, v in vars(layer).items() if k not in ("W", "b", "spec", "params")
                    and v is not None]

        sgd_train(model, OneBatch(), TrainConfig(batch=4, epochs=2, extra_epochs=0))
        assert held() == []
        model.scores(batch[0])
        assert held() == []
        model.features(batch[0], "fc1")
        assert held() == []
        windows = batch[0].transpose(0, 2, 3, 1)  # image layout (H, W, C)
        head = train_svm_head(NetRescorer(model, 0.1), windows, batch[1], SvmConfig())
        assert head.model is model and held() == []


class TestKernelsBitForBit:
    """The chunked conv and the strided pooling against the whole-batch
    im2col oracles: every output and gradient bit is the same."""

    @pytest.mark.parametrize("samples", [0.5, 1, 3, 8])  # budget in samples' columns
    @pytest.mark.parametrize("stride, pad", [(1, 2), (1, 0), (2, 1)])
    def test_chunked_conv_matches_the_whole_batch_oracle(self, monkeypatch, samples, stride,
                                                         pad):
        """Budgets below one sample's columns, of exactly one, of three
        (chunks of 3, 3 and 1) and above the batch of 7."""
        rng = np.random.default_rng(20)
        layer = ConvLayer(ConvSpec(4, 5, stride=stride, pad=pad), in_channels=3)
        layer.W[...] = rng.normal(size=layer.W.shape)
        layer.b[...] = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(7, 3, 12, 10))
        oh, ow = NetSpec((3, 12, 10), [layer.spec]).shapes()[0][1:]
        monkeypatch.setattr(convnet, "COLUMN_BLOCK", int(samples * 3 * 25 * oh * ow))
        out, cache = layer.forward(x)
        dout = rng.normal(size=out.shape)
        dx, (dW, db) = layer.backward(cache, dout, True)
        for got, want in zip((out, dx, dW, db), oracle_conv(layer, x, dout)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("mode", ["max", "mean"])
    @pytest.mark.parametrize("size, stride, hw", [
        (3, 2, (11, 9)), (2, 2, (8, 8)), (3, 1, (7, 6)), (1, 1, (3, 2)),
        (3, 2, (3, 3)), (3, 2, (4, 4)),  # one window per map, which numpy sums pairwise
    ])
    def test_pool_matches_the_im2col_oracle(self, mode, size, stride, hw):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(8, 4) + hw) * 10.0 ** rng.integers(-3, 4, size=(8, 4) + hw)
        ties = rng.random(x.shape) < 0.5
        x[ties] = np.round(x[ties] * 2) / 2
        x[rng.random(x.shape) < 0.2] = -0.0  # ties between -0.0 and +0.0
        layer = PoolLayer(PoolSpec(mode, size, stride))
        out, cache = layer.forward(x)
        dout = rng.normal(size=out.shape)
        dout[rng.random(dout.shape) < 0.2] = -0.0
        dx, _ = layer.backward(cache, dout, True)
        want_out, want_dx = oracle_pool(layer.spec, x, dout)
        assert same_bits(out, want_out)
        assert same_bits(dx, want_dx)

    def test_max_pool_gradient_goes_to_the_first_maximum(self):
        x = np.zeros((1, 2, 3, 3))
        x[0, 0] = [[1.0, 5.0, 5.0], [5.0, 0.0, 2.0], [5.0, 1.0, 5.0]]
        x[0, 1, 0, 0] = -0.0  # ties with the +0.0 after it
        layer = PoolLayer(PoolSpec("max", 3, 2))
        out, cache = layer.forward(x)
        dx, _ = layer.backward(cache, np.array([[[[2.0]], [[3.0]]]]), True)
        assert out[0, 0, 0, 0] == 5.0
        assert out[0, 1, 0, 0] == 0.0 and np.signbit(out[0, 1, 0, 0])
        want = np.zeros_like(x)
        want[0, 0, 0, 1] = 2.0
        want[0, 1, 0, 0] = 3.0
        assert np.array_equal(dx, want)

    def test_max_pool_takes_the_first_nan(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        # two NaNs with their own bits; (2, 2) is in all four windows
        x[0, 0, 1, 0], x[0, 0, 2, 2] = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                                                dtype=np.uint64).view(np.float64)
        layer = PoolLayer(PoolSpec("max", 3, 2))
        out, cache = layer.forward(x)
        assert np.isnan(out).all()
        dout = np.array([[[[1.0, 2.0], [4.0, 8.0]]]])
        dx, _ = layer.backward(cache, dout, True)
        want = np.zeros_like(x)
        want[0, 0, 1, 0] = 1.0  # the first NaN of the first window
        want[0, 0, 2, 2] = 2.0 + 4.0 + 8.0
        assert np.array_equal(dx, want)
        want_out, want_dx = oracle_pool(layer.spec, x, dout)
        assert same_bits(out, want_out) and same_bits(dx, want_dx)

    @pytest.mark.parametrize("n", [8, 64])
    def test_conv_working_set_is_bounded_by_the_column_budget(self, monkeypatch, n):
        """Whatever the batch size, forward caches the padded input and no
        columns, and each pass grows the heap by its own outputs plus at
        most 1.5 column budgets.  At n = 8 backward's bound is 0.85 MB, below
        half the 1.84 MB of the whole batch's columns."""
        rng = np.random.default_rng(12)
        layer = ConvLayer(ConvSpec(4, 5), in_channels=3)
        per_sample = 3 * 25 * 24 * 16  # one sample's columns
        monkeypatch.setattr(convnet, "COLUMN_BLOCK", 2 * per_sample)
        budget = 1.5 * 8 * convnet.COLUMN_BLOCK
        x, dout = rng.normal(size=(n, 3, 24, 16)), rng.normal(size=(n, 4, 24, 16))
        padded = 8 * n * 3 * 28 * 20
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            caches = [layer.forward(x)[1]]
            cached, fwd_peak = (m - start for m in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            layer.backward(caches.pop(), dout, True)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cached < padded + 0.05 * budget
        assert fwd_peak < padded + dout.nbytes + budget
        # the padded input gradient and the per-sample dW products
        assert grown < padded + 8 * n * 4 * 75 + budget


class TestLossAndTraining:
    def test_loss_includes_l2_terms(self):
        rng = np.random.default_rng(9)
        spec = NetSpec((4,), [FCSpec(3), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=5, init_sigma=0.5, first_layer_sigma=0.5)
        x = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, size=6)
        cfg = TrainConfig(weight_decay=0.1, final_layer_decay=4.0)
        loss, _ = loss_and_grads(model, x, labels, cfg)
        fc1, fc2 = (layer for _, layer in model.param_layers())
        reg = 0.05 * np.sum(fc1.W ** 2) + 0.2 * np.sum(fc2.W ** 2)
        out, _ = model.forward(x)
        ce = -np.log(out[np.arange(6), labels]).mean()
        assert loss == pytest.approx(ce + reg, rel=1e-9)

    def test_requires_softmax_tail(self):
        for layers in ([FCSpec(2)], [SoftmaxSpec()]):
            model = NetModel(NetSpec((4,), layers), seed=0)
            with pytest.raises(ValueError):
                loss_and_grads(model, np.zeros((2, 4)), np.zeros(2, dtype=int))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(10)

        class Toy:
            batches_per_epoch = 4

            def __init__(self):
                self.x = rng.normal(size=(64, 4)) + np.array([2.0, 0, 0, 0]) * (
                    rng.integers(0, 2, size=(64, 1))
                )
                self.y = (self.x[:, 0] > 1.0).astype(int)

            def next_batch(self):
                idx = rng.integers(0, 64, size=16)
                return self.x[idx], self.y[idx]

        spec = NetSpec((4,), [FCSpec(8), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=6, init_sigma=0.1, first_layer_sigma=0.1)
        cfg = TrainConfig(lr=0.05, epochs=10, extra_epochs=2, weight_decay=1e-4,
                          final_layer_decay=1e-4, batch=16)
        sgd_train(model, sampler=Toy(), cfg=cfg)
        log = model.training_log
        assert len(log) == 12
        assert log[-1]["mean_loss"] < log[0]["mean_loss"]
        # learning-rate drop kicks in for the extra epochs
        assert log[-1]["lr"] == pytest.approx(cfg.lr * LR_DROP)
        assert log[0]["lr"] == cfg.lr

    def test_divergence_detected(self):
        rng = np.random.default_rng(11)

        class Bad:
            batches_per_epoch = 1

            def next_batch(self):
                return rng.normal(size=(4, 4)) * 1e150, np.zeros(4, dtype=int)

        spec = NetSpec((4,), [FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=7, init_sigma=1.0, first_layer_sigma=1.0)
        with pytest.raises(TrainingDiverged):
            sgd_train(model, Bad(), TrainConfig(lr=1e200, epochs=2, extra_epochs=0))


class TestModelUtilities:
    def test_layer_names_are_numbered(self):
        spec = default_cifarnet(input_hw=(32, 16), conv_filters=(2, 2, 2),
                                conv_kernels=(3, 3, 3), fc_units=4)
        model = NetModel(spec, seed=0)
        names = model.layer_names
        assert names[0] == "conv1"
        assert "fc1" in names and "fc2" in names
        assert names[-1] == "softmax1"

    def test_forward_upto_named_layer(self):
        rng = np.random.default_rng(12)
        spec = NetSpec((4,), [FCSpec(3), ReLUSpec(), FCSpec(2), SoftmaxSpec()])
        model = NetModel(spec, seed=8, init_sigma=0.2, first_layer_sigma=0.2)
        x = rng.normal(size=(5, 4))
        feats = model.features(x, "fc1")
        assert feats.shape == (5, 3)
        with pytest.raises(KeyError):
            model.forward(x, upto="fc9")

    def test_scores_requires_two_classes(self):
        spec = NetSpec((4,), [FCSpec(3), SoftmaxSpec()])
        model = NetModel(spec, seed=0)
        with pytest.raises(ValueError):
            model.scores(np.zeros((2, 4)))

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        spec = default_cifarnet(input_hw=(32, 16), conv_filters=(2, 2, 3),
                                conv_kernels=(3, 3, 3), fc_units=4)
        model = NetModel(spec, seed=9)
        model.training_log.append({"epoch": 0, "lr": 0.1, "mean_loss": 1.0})
        p = tmp_path / "net.bin"
        save_net(model, p)
        back = read_net(p)[0]
        x = rng.normal(size=(2, 3, 32, 16))
        assert np.array_equal(back.scores(x), model.scores(x))
        assert back.training_log == model.training_log

    def test_load_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTNET")
        with pytest.raises(ValueError):
            read_net(p)[0]


@pytest.mark.parametrize("cut", ["truncated", "trailing_bytes"])
def test_load_rejects_wrong_size_naming_the_file(tmp_path, cut):
    model = NetModel(NetSpec((4,), [FCSpec(2), SoftmaxSpec()]), seed=0)
    p = tmp_path / "net.bin"
    save_net(model, p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8] if cut == "truncated" else raw + bytes(8))
    with pytest.raises(ValueError, match=str(p)):
        read_net(p)[0]


def test_net_file_bytes_are_pinned(tmp_path):
    """The file layout (header spec, tensor order, byte order) is a format:
    these bytes were written before the layer specs were serialised from
    their dataclasses, and must not move."""
    spec = default_cifarnet(input_hw=(32, 16), conv_filters=(8, 8, 16), fc_units=16)
    p = tmp_path / "net.bin"
    save_net(NetModel(spec, seed=0), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "0a5b643f51170f895dcee34f2edde70d0daca18afdcf31019ef7bcf495601da1")

    padded = NetSpec((1, 4, 4), [ConvSpec(2, 3, pad=1), SigmoidSpec(), PoolSpec("mean", 2, 2),
                                 FCSpec(2), SoftmaxSpec()])
    assert spec_to_json(padded)["layers"] == [
        {"type": "conv", "filters": 2, "kernel": 3, "stride": 1, "pad": 1},
        {"type": "sigmoid"},
        {"type": "pool", "mode": "mean", "size": 2, "stride": 2},
        {"type": "fc", "units": 2},
        {"type": "softmax"},
    ]
