"""Feature-channel stacks (LUV, gradient magnitude, oriented gradients) and
integral images for O(1) rectangular sums."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .geometry import Box
from .imageops import Image, centered_gradients

CHANNEL_COUNTS = {"RGB": 3, "G_LUV": 4, "HOG_LUV": 10}

# Hard-binned orientation channels of HOG_LUV.
ORIENTATION_BINS = 6

# Fixed affine ranges used to rescale CIE L*u*v* into [0,1].
_L_MAX = 100.0
_U_MIN, _U_MAX = -134.0, 220.0
_V_MIN, _V_MAX = -140.0, 122.0


@dataclass(frozen=True)
class ChannelConfig:
    """Which channel stack to compute.

    kind -> channel layout:
      RGB:     [R, G, B]
      G_LUV:   [G, L, U, V]                  (G = luminance gradient magnitude)
      HOG_LUV: [G, O_0..O_5, L, U, V]        (6 hard-binned orientation channels)
    """

    kind: str = "G_LUV"

    def __post_init__(self):
        if self.kind not in CHANNEL_COUNTS:
            raise ValueError(f"unknown channel kind {self.kind!r}")

    @property
    def n_channels(self) -> int:
        return CHANNEL_COUNTS[self.kind]


@dataclass
class ChannelStack:
    """Per-image list of channel planes plus their integral images.

    integrals has shape (n_channels, h//pitch+1, w//pitch+1) with a zero
    first row and column per channel, so that a rectangle sum needs exactly
    four reads.  Corner (i, j) sums the pitch x pitch cells of the first
    i*pitch rows and j*pitch columns, so it reads only rectangles on the
    pitch grid, in their coordinates divided by the pitch.
    """

    channels: List[np.ndarray]
    pitch: int = 1
    integrals: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.channels:
            raise ValueError("empty channel stack")
        h, w = self.channels[0].shape
        for c in self.channels:
            if c.shape != (h, w):
                raise ValueError("channel dimension mismatch")
        self.integrals = integral_image(self.channels, self.pitch)

    @property
    def height(self) -> int:
        return self.channels[0].shape[0]

    @property
    def width(self) -> int:
        return self.channels[0].shape[1]

    @property
    def n_channels(self) -> int:
        return len(self.channels)


def integral_image(planes, pitch: int = 1) -> np.ndarray:
    """Integral images, (..., h//pitch+1, w//pitch+1) with a zero first row
    and column, of a (..., h, w) array or of a list of equal-shape (h, w)
    planes: corner (i, j) sums the first i*pitch rows and j*pitch columns.
    Planes of any dtype are summed in float64.

    Each plane is summed in C order, whatever its strides, over the pitch
    rows of each band and then the pitch columns of each cell; only the cells
    are prefix-summed, so a corner is the full integral image's to rounding,
    bit for bit at pitch 1.  The planes are never stacked into a copy.
    """
    if pitch < 1:
        raise ValueError(f"integral pitch must be >= 1, got {pitch}")
    if isinstance(planes, np.ndarray):
        lead, planes = planes.shape[:-2], planes.reshape((-1,) + planes.shape[-2:])
    else:
        lead = (len(planes),)
    h, w = planes[0].shape
    hg, wg = h // pitch, w // pitch
    out = np.zeros((*lead, hg + 1, wg + 1), dtype=np.float64)
    for plane, ii in zip(planes, out.reshape(-1, hg + 1, wg + 1)):
        cells = ii[1:, 1:]
        plane = np.ascontiguousarray(plane)[:hg * pitch, :wg * pitch]
        cols = plane.reshape(hg, pitch, wg * pitch).sum(axis=1, dtype=np.float64)
        # cell columns outermost: numpy sums a short innermost axis slowly
        np.ascontiguousarray(cols.reshape(hg, wg, pitch).transpose(2, 0, 1)).sum(axis=0, out=cells)
        np.cumsum(cells, axis=0, out=cells)
        np.cumsum(cells, axis=1, out=cells)
    return out


def rgb_to_luv(rgb: np.ndarray) -> np.ndarray:
    """CIE L*u*v* from linear RGB (sRGB primaries, D65), rescaled to [0,1].

    The (..., 3) result is a view of channel-first storage, so each of its
    planes is contiguous; it has the floating dtype of `rgb`.
    """
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    x = 0.412453 * r
    x += 0.357580 * g
    x += 0.180423 * b
    y = 0.212671 * r  # white point Y = 1 for [0,1] linear RGB
    y += 0.715160 * g
    y += 0.072169 * b
    z = 0.019334 * r
    z += 0.119193 * g
    z += 0.950227 * b

    out = np.zeros((3,) + y.shape, dtype=y.dtype)
    l, u, v = out[0, ...], out[1, ...], out[2, ...]  # views, also of one pixel
    eps = 216.0 / 24389.0
    kappa = 24389.0 / 27.0
    np.cbrt(y, out=l)
    l *= 116.0
    l -= 16.0
    np.multiply(kappa, y, out=l, where=y <= eps)

    denom = 15.0 * y
    denom += x
    z *= 3.0
    denom += z
    pos = denom > 0
    x *= 4.0
    np.divide(x, denom, out=u, where=pos)  # u' = v' = 0 where denom <= 0
    y *= 9.0
    np.divide(y, denom, out=v, where=pos)
    # D65 reference white in u'v'
    un, vn = 0.19783982, 0.46833631
    l13 = 13.0 * l
    u -= un
    u *= l13
    v -= vn
    v *= l13

    l /= _L_MAX
    u -= _U_MIN
    u /= _U_MAX - _U_MIN
    v -= _V_MIN
    v /= _V_MAX - _V_MIN
    return np.moveaxis(out, 0, -1)


def gradient_channels(luminance: np.ndarray, n_bins: int):
    """Gradient magnitude and hard-binned orientation channels.

    Each pixel's magnitude is assigned entirely to the bin containing its
    (unsigned) orientation in [0, pi), so the orientation channels sum to
    the magnitude channel exactly.  n_bins=0 returns the magnitude alone,
    with an empty orientation list.  All planes have the floating dtype of
    `luminance`.
    """
    gx, gy = centered_gradients(luminance)
    mag = gx * gx
    mag += gy * gy
    np.sqrt(mag, out=mag)
    if n_bins == 0:
        return mag, []
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    bins = np.minimum((theta / np.pi * n_bins).astype(np.intp), n_bins - 1)
    oriented = np.zeros(luminance.shape + (n_bins,), dtype=mag.dtype)
    np.put_along_axis(oriented, bins[..., None], mag[..., None], axis=2)
    return mag, [oriented[..., k] for k in range(n_bins)]


def compute_channels(img: Union[Image, np.ndarray], cfg: ChannelConfig,
                     pitch: int = 1) -> ChannelStack:
    """Compute the channel stack for one image, its integrals at `pitch`.

    The image is cast to float32 once, so every plane is float32; the
    integrals are float64 (integral_image).  Color kinds require a 3-plane
    image.
    """
    arr = np.asarray(img.data if isinstance(img, Image) else img, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"channel kind {cfg.kind} requires a 3-plane image")

    planes: List[np.ndarray]
    if cfg.kind == "RGB":
        planes = [arr[..., 0], arr[..., 1], arr[..., 2]]
    else:
        luv = rgb_to_luv(arr)
        l, u, v = luv[..., 0], luv[..., 1], luv[..., 2]
        if cfg.kind == "G_LUV":
            mag, _ = gradient_channels(l, 0)
            planes = [mag, l, u, v]
        elif cfg.kind == "HOG_LUV":
            mag, oriented = gradient_channels(l, ORIENTATION_BINS)
            planes = [mag] + oriented + [l, u, v]
        else:  # pragma: no cover - guarded by ChannelConfig
            raise ValueError(cfg.kind)

    planes = [np.ascontiguousarray(p) for p in planes]
    return ChannelStack(planes, pitch)


class PoolingRegions(NamedTuple):
    """(channel, Box) pooling regions as arrays, read from integrals at
    `pitch`: channel, then x, y, w and h in that pitch's corner units
    (pixels divided by it), then the float64 pixel area."""

    pitch: int
    channel: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    area: np.ndarray


def pooling_regions(regions: Sequence[Tuple[int, Box]], pitch: int = 1) -> PoolingRegions:
    """The (channel, Box) pooling regions read at integral pitch `pitch`,
    coordinates rounded to whole pixels and extents at least one pixel;
    ValueError unless each coordinate is a multiple of the pitch."""
    a = np.rint(np.array([(c, r.x, r.y, r.w, r.h) for c, r in regions],
                         dtype=np.float64).reshape(-1, 5)).astype(np.intp)
    a[:, 3:] = np.maximum(a[:, 3:], 1)
    if np.any(a[:, 1:] % pitch):
        raise ValueError(f"coordinates are not multiples of the integral pitch {pitch}")
    ch, x, y, w, h = a.T.copy()  # contiguous rows: rect_sums indexes faster with them
    return PoolingRegions(pitch, ch, x // pitch, y // pitch, w // pitch, h // pitch,
                          (w * h).astype(np.float64))


def region_pitch(regions: Sequence[Tuple[int, Box]], *extra: int) -> int:
    """The largest integral pitch that reads every (channel, Box) pooling
    region: the gcd of their x, y, w and h, as pooling_regions rounds them,
    and of any extra integers, such as a window stride."""
    x_y_w_h = pooling_regions(regions)[2:6]
    return int(np.gcd.reduce(np.concatenate([np.asarray(extra, dtype=np.intp), *x_y_w_h])))


def pooled(regions: PoolingRegions, integrals: np.ndarray, ox=0, oy=0) -> np.ndarray:
    """Area-normalised sums of pooling regions over integrals at their pitch,
    in a new array, for windows at origins (ox, oy) in its corner units.

    ox and oy broadcast together, and trailing axes of `integrals` (a
    window-grid view) follow theirs: the result has shape (n_regions,) +
    their broadcast shape + those trailing axes.
    """
    origin_axes = (1,) * np.broadcast(ox, oy).ndim
    rects = (a.reshape((-1,) + origin_axes) for a in regions[1:6])
    s = rect_sums(integrals, *rects, ox, oy)
    s /= regions.area.reshape((-1,) + (1,) * (s.ndim - 1))
    return s


def rect_sums(integrals: np.ndarray, channel, x, y, w, h, ox=0, oy=0):
    """Rectangle sums over an integral array whose leading axes are
    (C, H+1, W+1), in that array's corner units (pixels divided by its
    pitch, see pooling_regions).

    Rectangle (x, y, w, h) of plane `channel` is read at window origin
    (ox, oy).  All arguments after `integrals` are integers or integer arrays
    that broadcast together: a region axis against a grid of origins scores a
    whole window grid, and scalars give a single sum.  Trailing axes of
    `integrals` are carried through to the end of the result, so a strided
    window-grid view (C, H', W', ny, nx) turns each corner read into one
    block copy per rectangle.  Raises ValueError for a rectangle outside the
    leading axes.  The sum is evaluated in place, in the order of
    ii[y2, x2] - ii[y1, x2] - ii[y2, x1] + ii[y1, x1], which every forest
    score depends on bit for bit.
    """
    n_ch, h1, w1 = integrals.shape[:3]
    if np.broadcast(channel, x, y, w, h, ox, oy).size and (
            np.min(channel) < 0 or np.max(channel) >= n_ch
            or np.min(ox) + np.min(x) < 0 or np.min(oy) + np.min(y) < 0
            or np.max(ox) + np.max(x + w) >= w1 or np.max(oy) + np.max(y + h) >= h1):
        raise ValueError("rectangle out of bounds")
    y1, x1 = oy + y, ox + x
    y2, x2 = y1 + h, x1 + w
    s = integrals[channel, y2, x2] - integrals[channel, y1, x2]  # never a view
    s -= integrals[channel, y2, x1]
    s += integrals[channel, y1, x1]
    return s
