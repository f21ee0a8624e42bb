import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pedcascade.imageops import (
    Image,
    bilinear_resize,
    centered_gradients,
    read_pnm,
    sample_box_bilinear,
    write_pnm,
)


def padded_centered_gradients(plane):
    """Centered differences over edge-padded copies of the plane: the oracle
    for the pad-free centered_gradients."""
    padded_x = np.pad(plane, ((0, 0), (1, 1)), mode="edge")
    padded_y = np.pad(plane, ((1, 1), (0, 0)), mode="edge")
    gx = (padded_x[:, 2:] - padded_x[:, :-2]) / 2.0
    gy = (padded_y[2:, :] - padded_y[:-2, :]) / 2.0
    return gx, gy


def naive_sample(arr, x0, y0, w, h, out_h, out_w):
    """Scalar-loop reference for the clamped bilinear sampler."""
    H, W = arr.shape[:2]
    out = np.zeros((out_h, out_w) + arr.shape[2:])
    for i in range(out_h):
        for j in range(out_w):
            sx = min(max(x0 + (j + 0.5) * (w / out_w) - 0.5, 0.0), W - 1.0)
            sy = min(max(y0 + (i + 0.5) * (h / out_h) - 0.5, 0.0), H - 1.0)
            xf, yf = int(np.floor(sx)), int(np.floor(sy))
            tx, ty = sx - xf, sy - yf
            x1, y1 = min(xf + 1, W - 1), min(yf + 1, H - 1)
            top = arr[yf, xf] * (1 - tx) + arr[yf, x1] * tx
            bot = arr[y1, xf] * (1 - tx) + arr[y1, x1] * tx
            out[i, j] = top * (1 - ty) + bot * ty
    return out


def gather_sample(arr, x0, y0, w, h, out_h, out_w):
    """Four-corner reference for the clamped bilinear sampler: one 2-D gather
    per corner, blended horizontally and then vertically.  The library's
    separable kernel must equal it bit for bit."""
    src_x = x0 + (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    src_y = y0 + (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    H, W = arr.shape[:2]
    src_x = np.clip(src_x, 0.0, W - 1.0)
    src_y = np.clip(src_y, 0.0, H - 1.0)
    fx = np.floor(src_x)
    fy = np.floor(src_y)
    tx = src_x - fx
    ty = src_y - fy
    x0i = fx.astype(np.intp)
    y0i = fy.astype(np.intp)
    x1i = np.minimum(x0i + 1, W - 1)
    y1i = np.minimum(y0i + 1, H - 1)

    tx = tx[None, :, None] if arr.ndim == 3 else tx[None, :]
    ty = ty[:, None, None] if arr.ndim == 3 else ty[:, None]
    a = arr[np.ix_(y0i, x0i)]
    b = arr[np.ix_(y0i, x1i)]
    c = arr[np.ix_(y1i, x0i)]
    d = arr[np.ix_(y1i, x1i)]
    top = a * (1.0 - tx) + b * tx
    bot = c * (1.0 - tx) + d * tx
    return top * (1.0 - ty) + bot * ty


def assert_matches_gather(arr, x0, y0, w, h, out_h, out_w):
    got = sample_box_bilinear(arr, x0, y0, w, h, out_h, out_w)
    want = gather_sample(arr, x0, y0, w, h, out_h, out_w)
    assert got.shape == want.shape == (out_h, out_w) + arr.shape[2:]
    assert np.array_equal(got, want)


class TestImage:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Image(np.zeros((4, 4, 2)))

    def test_rejects_nan(self):
        a = np.zeros((4, 4))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            Image(a)

    def test_properties(self):
        img = Image(np.zeros((6, 8, 3)))
        assert (img.height, img.width, img.planes) == (6, 8, 3)
        assert Image(np.zeros((6, 8))).planes == 1


class TestPnmIo:
    def test_roundtrip_color(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(rng.integers(0, 256, size=(10, 7, 3)) / 255.0)
        p = tmp_path / "a.ppm"
        write_pnm(p, img)
        back = read_pnm(p)
        assert np.allclose(back.data, img.data)

    def test_roundtrip_gray(self, tmp_path):
        img = Image(np.linspace(0, 1, 30).reshape(5, 6))
        p = tmp_path / "a.pgm"
        write_pnm(p, img)
        assert np.allclose(read_pnm(p).data, np.rint(img.data * 255) / 255)

    def test_reads_ascii_with_comments(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P2\n# comment line\n3 2\n255\n0 128 255\n10 20 30\n")
        img = read_pnm(p)
        assert img.data.shape == (2, 3)
        assert img.data[0, 1] == pytest.approx(128 / 255)

    def test_reads_ascii_color(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P3\n1 1\n255\n255 0 128\n")
        img = read_pnm(p)
        assert np.allclose(img.data[0, 0], [1.0, 0.0, 128 / 255])

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"JUNK")
        with pytest.raises(ValueError):
            read_pnm(p)


class TestBilinear:
    def test_identity_resize_is_exact(self):
        rng = np.random.default_rng(1)
        arr = rng.random((9, 13, 3))
        out = bilinear_resize(arr, 9, 13)
        assert np.array_equal(out, arr)

    def test_integer_aligned_crop_is_exact(self):
        rng = np.random.default_rng(2)
        arr = rng.random((20, 20))
        out = sample_box_bilinear(arr, 3.0, 5.0, 8.0, 6.0, 6, 8)
        assert np.array_equal(out, arr[5:11, 3:11])

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            arr = rng.random((12, 15, 3))
            x0, y0 = rng.uniform(-4, 8, 2)
            w, h = rng.uniform(3, 12, 2)
            oh, ow = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            got = sample_box_bilinear(arr, x0, y0, w, h, oh, ow)
            assert np.allclose(got, naive_sample(arr, x0, y0, w, h, oh, ow), atol=1e-12)

    @given(
        planes=st.sampled_from([(), (3,)]),
        size=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        origin=st.tuples(st.floats(-40, 40), st.floats(-40, 40)),
        extent=st.tuples(st.floats(0.25, 80), st.floats(0.25, 80)),
        out=st.tuples(st.integers(1, 48), st.integers(1, 48)),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_gather_oracle(self, planes, size, origin, extent, out, seed):
        arr = np.random.default_rng(seed).random(size + planes)
        assert_matches_gather(arr, *origin, *extent, *out)

    @pytest.mark.parametrize("planes", [(), (3,)])
    def test_bit_equal_to_gather_oracle_on_edge_cases(self, planes):
        arr = np.random.default_rng(6).random((15, 21) + planes)
        cases = [
            (0.0, 0.0, 21.0, 15.0, 29, 40),     # pyramid upscale
            (0.0, 0.0, 21.0, 15.0, 7, 10),      # pyramid downscale
            (0.0, 0.0, 21.0, 15.0, 15, 21),     # identity
            (3.3, 2.7, 6.1, 9.4, 1, 1),         # one output pixel
            (-2.0, -3.0, 30.0, 25.0, 1, 17),    # one row, box covers the image
            (-50.0, -60.0, 10.0, 12.0, 8, 4),   # wholly above-left of the image
            (40.0, 30.0, 5.0, 9.0, 6, 3),       # wholly below-right of the image
            (-4.5, 10.5, 12.0, 16.0, 32, 16),   # straddles two borders
            (5.0, 4.0, 0.0, 0.0, 3, 3),         # zero-extent box
        ]
        for case in cases:
            assert_matches_gather(arr, *case)

    @pytest.mark.parametrize("planes", [(), (3,)])
    def test_float32_blends_in_float32_near_the_float64_result(self, planes):
        arr = np.random.default_rng(7).random((15, 21) + planes)
        cases = [
            (0.0, 0.0, 21.0, 15.0, 29, 40),     # pyramid upscale
            (0.0, 0.0, 21.0, 15.0, 7, 10),      # pyramid downscale
            (-4.5, 10.5, 12.0, 16.0, 32, 16),   # straddles two borders
        ]
        for case in cases:
            got = sample_box_bilinear(arr.astype(np.float32), *case)
            assert got.dtype == np.float32
            assert np.max(np.abs(got - sample_box_bilinear(arr, *case))) <= 1e-6

    def test_constant_image_stays_constant(self):
        arr = np.full((10, 10), 0.37)
        out = sample_box_bilinear(arr, -5.0, -5.0, 20.0, 20.0, 7, 7)
        assert np.allclose(out, 0.37)

    def test_out_of_bounds_replicates_border(self):
        arr = np.zeros((4, 4))
        arr[:, 0] = 1.0
        out = sample_box_bilinear(arr, -10.0, 0.0, 4.0, 4.0, 4, 4)
        assert np.allclose(out[:, 0], 1.0)

    def test_upscale_preserves_range(self):
        rng = np.random.default_rng(4)
        arr = rng.random((6, 6))
        out = bilinear_resize(arr, 17, 23)
        assert out.min() >= arr.min() - 1e-12
        assert out.max() <= arr.max() + 1e-12


class TestBlurAndGradients:
    def test_gradients_of_linear_ramp(self):
        yy, xx = np.mgrid[0:8, 0:9].astype(float)
        gx, gy = centered_gradients(3.0 * xx + 2.0 * yy)
        assert np.allclose(gx[:, 1:-1], 3.0)
        assert np.allclose(gy[1:-1, :], 2.0)

    @settings(max_examples=80, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(h=1, w=1, seed=0)
    @example(h=1, w=40, seed=1)
    @example(h=40, w=1, seed=2)
    @example(h=2, w=2, seed=3)
    def test_gradients_equal_the_padded_oracle(self, h, w, seed):
        plane = np.random.default_rng(seed).standard_normal((h, w))
        for got, want in zip(centered_gradients(plane), padded_centered_gradients(plane)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_gradient_borders_use_replication(self):
        plane = np.arange(5.0)[None, :].repeat(3, axis=0)
        gx, _ = centered_gradients(plane)
        # at the border, one side is replicated so the step is halved
        assert np.allclose(gx[:, 0], 0.5)
        assert np.allclose(gx[:, -1], 0.5)
