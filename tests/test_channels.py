import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from pedcascade.channels import (
    CHANNEL_COUNTS,
    ChannelConfig,
    ChannelStack,
    compute_channels,
    gradient_channels,
    integral_image,
    pooling_regions,
    rect_sums,
    rgb_to_luv,
)
from pedcascade.geometry import Box


def rect_sum(stack: ChannelStack, channel: int, r: Box) -> float:
    """Sum of channel values inside an integer-aligned in-bounds rectangle."""
    x, y, w, h = r.x, r.y, r.w, r.h
    xi, yi, wi, hi = int(round(x)), int(round(y)), int(round(w)), int(round(h))
    if max(abs(x - xi), abs(y - yi), abs(w - wi), abs(h - hi)) > 1e-9:
        raise ValueError(f"rectangle must be integer-aligned: {r}")
    if xi < 0 or yi < 0 or xi + wi > stack.width or yi + hi > stack.height:
        raise ValueError(f"rectangle out of bounds: {r}")
    return float(rect_sums(stack.integrals, *pooling_regions([(channel, r)], stack.pitch)[1:6])[0])


def rand_rgb(rng, h=24, w=18):
    return rng.random((h, w, 3))


class TestChannelConfig:
    def test_counts_per_kind(self):
        for kind, n in CHANNEL_COUNTS.items():
            assert ChannelConfig(kind).n_channels == n

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ChannelConfig("YUV")


class TestIntegralImage:
    def test_zero_border(self):
        ii = integral_image(np.ones((3, 4)))
        assert np.all(ii[0, :] == 0)
        assert np.all(ii[:, 0] == 0)
        assert ii[-1, -1] == 12

    def test_plane_list_matches_stacked_cumsum(self):
        rng = np.random.default_rng(4)
        planes = rng.random((2, 3, 7, 5))
        want = np.zeros((2, 3, 8, 6))
        want[..., 1:, 1:] = np.cumsum(np.cumsum(planes, axis=-2), axis=-1)
        assert np.array_equal(integral_image(planes), want)
        assert np.array_equal(integral_image(list(planes[0])), want[0])
        assert np.array_equal(integral_image(planes[1, 2]), want[1, 2])

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(-10, 10),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_corner_is_total(self, plane):
        ii = integral_image(plane)
        assert ii[-1, -1] == pytest.approx(plane.sum(), abs=1e-9)


class TestPitchedIntegral:
    @given(
        planes=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=27),
            elements=st.floats(-1e6, 1e6),
        ),
        pitch=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_every_pitch_th_corner_of_the_full_integral(self, planes, pitch):
        full = integral_image(planes)
        got = integral_image(planes, pitch)
        assert got.shape == planes.shape[:1] + (planes.shape[1] // pitch + 1,
                                                planes.shape[2] // pitch + 1)
        assert np.array_equal(got, full[..., ::pitch, ::pitch])
        assert np.array_equal(integral_image(list(planes), pitch), got)

    @pytest.mark.parametrize("shape", [(1, 17), (17, 1), (1, 1), (5, 3), (16, 24), (23, 9)])
    @pytest.mark.parametrize("pitch", [2, 4, 8])
    def test_single_rows_columns_and_remainders(self, shape, pitch):
        plane = np.random.default_rng(sum(shape) + pitch).random(shape) * 1e3
        assert np.array_equal(integral_image(plane, pitch), integral_image(plane)[::pitch, ::pitch])

    def test_rejects_pitch_below_one(self):
        with pytest.raises(ValueError, match="pitch"):
            integral_image(np.ones((4, 4)), 0)

    def test_stack_carries_its_pitch(self):
        rng = np.random.default_rng(11)
        img = rand_rgb(rng, 37, 26)
        one = compute_channels(img, ChannelConfig("G_LUV"))
        four = compute_channels(img, ChannelConfig("G_LUV"), 4)
        assert (one.pitch, four.pitch) == (1, 4)
        assert all(np.array_equal(a, b) for a, b in zip(one.channels, four.channels))
        assert np.array_equal(four.integrals, one.integrals[:, ::4, ::4])
        assert rect_sum(four, 2, Box(4, 8, 20, 28)) == rect_sum(one, 2, Box(4, 8, 20, 28))
        with pytest.raises(ValueError, match="pitch"):
            rect_sum(four, 2, Box(4, 6, 20, 28))


class TestRectSum:
    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        stack = ChannelStack([rng.random((20, 16)) for _ in range(3)])
        for _ in range(100):
            c = int(rng.integers(0, 3))
            w = int(rng.integers(1, 10))
            h = int(rng.integers(1, 12))
            x = int(rng.integers(0, 16 - w + 1))
            y = int(rng.integers(0, 20 - h + 1))
            got = rect_sum(stack, c, Box(x, y, w, h))
            want = 0.0
            for i in range(y, y + h):
                for j in range(x, x + w):
                    want += stack.channels[c][i, j]
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, w * h))

    def test_rejects_misaligned(self):
        stack = ChannelStack([np.ones((5, 5))])
        with pytest.raises(ValueError):
            rect_sum(stack, 0, Box(0.5, 0, 2, 2))

    def test_rejects_out_of_bounds(self):
        stack = ChannelStack([np.ones((5, 5))])
        with pytest.raises(ValueError):
            rect_sum(stack, 0, Box(3, 3, 4, 4))

    def test_kernel_broadcasts_origins_against_regions(self):
        rng = np.random.default_rng(2)
        stack = ChannelStack([rng.random((20, 16)) for _ in range(3)])
        ch, x, y, w, h = (np.array(v) for v in ([0, 2], [1, 0], [2, 3], [4, 5], [3, 6]))
        ox, oy = np.array([0, 4, 7]), np.array([[0], [5]])
        got = rect_sums(stack.integrals, ch, x, y, w, h, ox[:, None], oy[..., None])
        assert got.shape == (2, 3, 2)
        for i, j, k in np.ndindex(got.shape):
            x1, y1 = ox[j] + x[k], oy[i, 0] + y[k]
            want = stack.channels[ch[k]][y1:y1 + h[k], x1:x1 + w[k]].sum()
            assert got[i, j, k] == pytest.approx(want, abs=1e-9)
        no_origins = np.zeros((0, 1), dtype=np.intp)
        assert rect_sums(stack.integrals, ch, x, y, w, h, no_origins, no_origins).shape == (0, 2)

    def test_kernel_rejects_origin_out_of_bounds(self):
        stack = ChannelStack([np.ones((5, 5))])
        with pytest.raises(ValueError):
            rect_sums(stack.integrals, 0, 0, 0, 2, 2, ox=-1)
        with pytest.raises(ValueError):
            rect_sums(stack.integrals, 0, 0, 0, 2, 2, ox=np.array([0, 4]))

    def test_corner_order_is_bit_exact(self):
        # forest scores depend on this exact order of the four corner reads
        rng = np.random.default_rng(4)
        ii = rng.random((2, 9, 8)) * 10.0 ** rng.uniform(-3, 6, (2, 9, 8))
        ch, x, y = rng.integers(0, 2, 500), rng.integers(0, 4, 500), rng.integers(0, 4, 500)
        w, h = rng.integers(1, 4, 500), rng.integers(1, 5, 500)
        want = [ii[c, b + e, a + d] - ii[c, b, a + d] - ii[c, b + e, a] + ii[c, b, a]
                for c, a, b, d, e in zip(ch, x, y, w, h)]
        assert np.array_equal(rect_sums(ii, ch, x, y, w, h), want)

    @pytest.mark.parametrize("stride", [1, 3, 4])
    def test_grid_view_is_bit_equal_to_broadcast_origins(self, stride):
        rng = np.random.default_rng(3)
        stack = ChannelStack([rng.random((23, 19)) for _ in range(3)])
        ch, x, y, w, h = (np.array(v) for v in ([0, 2, 1, 2], [1, 0, 3, 0], [2, 3, 0, 0],
                                                [4, 5, 1, 7], [3, 6, 2, 9]))
        xs, ys = np.arange(0, 19 - 7 + 1, stride), np.arange(0, 23 - 9 + 1, stride)
        span = ((ys.size - 1) * stride + 1, (xs.size - 1) * stride + 1)
        grid = sliding_window_view(stack.integrals, span, axis=(1, 2))[..., ::stride, ::stride]
        assert grid.shape[3:] == (ys.size, xs.size)
        got = rect_sums(grid, ch, x, y, w, h)
        want = rect_sums(stack.integrals, ch[:, None, None], x[:, None, None],
                         y[:, None, None], w[:, None, None], h[:, None, None],
                         xs, ys[:, None])
        assert got.shape == want.shape == (4, ys.size, xs.size)
        assert np.array_equal(got, want)
        # scalar regions read one rectangle over the whole grid
        assert np.array_equal(rect_sums(grid, 2, 0, 3, 5, 6), want[1])
        # the view's leading axes bound the rectangle: one pixel more is out
        with pytest.raises(ValueError):
            rect_sums(grid, 1, 0, 0, 19 - (xs.size - 1) * stride + 1, 1)
        with pytest.raises(ValueError):
            rect_sums(grid, 0, 0, 23 - (ys.size - 1) * stride, 1, 1)
        with pytest.raises(ValueError):
            rect_sums(grid, 3, 0, 0, 1, 1)

    def test_full_plane_equals_total(self):
        rng = np.random.default_rng(1)
        plane = rng.random((7, 9))
        stack = ChannelStack([plane])
        assert rect_sum(stack, 0, Box(0, 0, 9, 7)) == pytest.approx(plane.sum())


class TestLuv:
    def test_output_in_unit_range(self):
        rng = np.random.default_rng(2)
        luv = rgb_to_luv(rand_rgb(rng))
        assert luv.min() >= -1e-9
        assert luv.max() <= 1.0 + 1e-9

    def test_white_has_max_lightness(self):
        luv = rgb_to_luv(np.ones((1, 1, 3)))
        assert luv[0, 0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_black_is_zero_lightness(self):
        luv = rgb_to_luv(np.zeros((1, 1, 3)))
        assert luv[0, 0, 0] == pytest.approx(0.0)

    def test_gray_axis_has_neutral_chroma(self):
        # u*, v* vanish on the achromatic axis; rescaled that is a constant
        g = np.full((1, 1, 3), 0.4)
        luv = rgb_to_luv(g)
        assert luv[0, 0, 1] == pytest.approx(134.0 / 354.0, abs=1e-3)
        assert luv[0, 0, 2] == pytest.approx(140.0 / 262.0, abs=1e-3)

    def test_lightness_monotone_in_gray_level(self):
        levels = np.linspace(0, 1, 16).reshape(-1, 1, 1) * np.ones((16, 1, 3))
        l = rgb_to_luv(levels)[..., 0].ravel()
        assert np.all(np.diff(l) > 0)


class TestGradientChannels:
    def test_hard_binning_conservation(self):
        rng = np.random.default_rng(3)
        lum = rng.random((30, 25))
        mag, oriented = gradient_channels(lum, 6)
        total = np.sum(oriented, axis=0)
        assert np.max(np.abs(total - mag)) <= 1e-9

    def test_each_pixel_in_exactly_one_bin(self):
        rng = np.random.default_rng(4)
        lum = rng.random((12, 12))
        mag, oriented = gradient_channels(lum, 6)
        nonzero_count = sum((o > 0).astype(int) for o in oriented)
        assert np.all(nonzero_count[mag > 0] == 1)

    def test_vertical_edge_lands_in_horizontal_gradient_bin(self):
        lum = np.zeros((10, 10))
        lum[:, 5:] = 1.0
        _, oriented = gradient_channels(lum, 6)
        # gradient points along +x, orientation 0 -> first bin
        assert oriented[0].sum() > 0
        for o in oriented[1:]:
            assert o.sum() == 0

    def test_horizontal_edge_lands_in_middle_bin(self):
        lum = np.zeros((10, 10))
        lum[5:, :] = 1.0
        _, oriented = gradient_channels(lum, 6)
        # gradient along +y, orientation pi/2 -> bin 3 of 6
        hot = int(np.argmax([o.sum() for o in oriented]))
        assert hot == 3

    def test_constant_image_has_zero_magnitude(self):
        mag, oriented = gradient_channels(np.full((8, 8), 0.7), 6)
        assert np.all(mag == 0)


class TestComputeChannels:
    @pytest.mark.parametrize("kind", sorted(CHANNEL_COUNTS))
    def test_channel_counts(self, kind):
        rng = np.random.default_rng(5)
        stack = compute_channels(rand_rgb(rng), ChannelConfig(kind))
        assert stack.n_channels == CHANNEL_COUNTS[kind]

    def test_rgb_passthrough(self):
        rng = np.random.default_rng(6)
        img = rand_rgb(rng)
        stack = compute_channels(img, ChannelConfig("RGB"))
        for c in range(3):
            assert np.array_equal(stack.channels[c], img[..., c].astype(np.float32))

    def test_hog_luv_layout_conservation(self):
        rng = np.random.default_rng(7)
        stack = compute_channels(rand_rgb(rng), ChannelConfig("HOG_LUV"))
        mag = stack.channels[0]
        total = sum(stack.channels[1:7])
        assert np.max(np.abs(total - mag)) <= 1e-9

    def test_g_luv_planes_are_bit_equal_to_their_parts(self):
        rng = np.random.default_rng(9)
        img = rand_rgb(rng)
        luv = rgb_to_luv(img.astype(np.float32))
        l, u, v = (np.ascontiguousarray(luv[..., k]) for k in range(3))
        mag = gradient_channels(l, 6)[0]
        stack = compute_channels(img, ChannelConfig("G_LUV"))
        assert len(stack.channels) == 4
        for got, want in zip(stack.channels, [mag, l, u, v]):
            assert np.array_equal(got, want)
        assert np.array_equal(stack.integrals, integral_image(np.stack([mag, l, u, v])))
        mag_only, none = gradient_channels(l, 0)
        assert np.array_equal(mag_only, mag) and none == []

    def test_rejects_gray_input_for_color_kinds(self):
        with pytest.raises(ValueError):
            compute_channels(np.zeros((10, 10)), ChannelConfig("G_LUV"))


class TestChannelStack:
    def test_rejects_mismatched_planes(self):
        with pytest.raises(ValueError):
            ChannelStack([np.zeros((4, 4)), np.zeros((5, 4))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelStack([])
