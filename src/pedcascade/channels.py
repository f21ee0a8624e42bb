"""Feature-channel stacks (LUV, gradient magnitude, oriented gradients) and
integral images for O(1) rectangular sums."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from .geometry import Box
from .imageops import Image, centered_gradients, triangle_blur

CHANNEL_COUNTS = {"RGB": 3, "LUV": 3, "G_LUV": 4, "HOG_L": 7, "HOG_LUV": 10}

# Fixed affine ranges used to rescale CIE L*u*v* into [0,1].
_L_MAX = 100.0
_U_MIN, _U_MAX = -134.0, 220.0
_V_MIN, _V_MAX = -140.0, 122.0


@dataclass(frozen=True)
class ChannelConfig:
    """Which channel stack to compute.

    kind -> channel layout:
      RGB:     [R, G, B]
      LUV:     [L, U, V]
      G_LUV:   [G, L, U, V]                  (G = luminance gradient magnitude)
      HOG_L:   [O_0..O_5, L]                 (6 hard-binned orientation channels)
      HOG_LUV: [G, O_0..O_5, L, U, V]
    """

    kind: str = "HOG_LUV"
    orientation_bins: int = 6
    pre_blur: bool = False

    def __post_init__(self):
        if self.kind not in CHANNEL_COUNTS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.orientation_bins < 1:
            raise ValueError("orientation_bins must be >= 1")

    @property
    def n_channels(self) -> int:
        base = CHANNEL_COUNTS[self.kind]
        if self.orientation_bins != 6 and self.kind in ("HOG_L", "HOG_LUV"):
            return base - 6 + self.orientation_bins
        return base


@dataclass
class ChannelStack:
    """Per-image list of channel planes plus their integral images.

    integrals has shape (n_channels, h//pitch+1, w//pitch+1) with a zero
    first row and column per channel, so that a rectangle sum needs exactly
    four reads.  Its corner (i, j) is the sum over the first i*pitch rows and
    j*pitch columns, so it reads only rectangles whose coordinates are
    multiples of the pitch, in those coordinates divided by the pitch.
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
    planes: every pitch-th corner of the full integral image, bit for bit.

    Each plane is summed down its columns over all rows, and then along only
    the rows that end a pitch-high band, in the order of the full integral
    image; every pitch-th column of those is kept.  At pitch 1 both sums run
    in place in the output, so the planes are never stacked into a copy.
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
    scratch = None if pitch == 1 else np.empty((h, w), dtype=np.float64)
    for plane, ii in zip(planes, out.reshape(-1, hg + 1, wg + 1)):
        cols = ii[1:, 1:] if scratch is None else scratch
        np.cumsum(plane, axis=0, out=cols)
        rows = cols[pitch - 1::pitch]
        np.cumsum(rows, axis=1, out=rows)
        if scratch is not None:
            ii[1:, 1:] = rows[:, pitch - 1::pitch]
    return out


def rgb_to_luv(rgb: np.ndarray) -> np.ndarray:
    """CIE L*u*v* from linear RGB (sRGB primaries, D65), rescaled to [0,1].

    The (..., 3) result is a view of channel-first storage, so each of its
    planes is contiguous.
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
    with an empty orientation list.
    """
    gx, gy = centered_gradients(luminance)
    mag = gx * gx
    mag += gy * gy
    np.sqrt(mag, out=mag)
    if n_bins == 0:
        return mag, []
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    bins = np.minimum((theta / np.pi * n_bins).astype(np.intp), n_bins - 1)
    oriented = np.zeros(luminance.shape + (n_bins,), dtype=np.float64)
    np.put_along_axis(oriented, bins[..., None], mag[..., None], axis=2)
    return mag, [oriented[..., k] for k in range(n_bins)]


def compute_channels(img: Union[Image, np.ndarray], cfg: ChannelConfig,
                     pitch: int = 1) -> ChannelStack:
    """Compute the channel stack for one image, its integrals at `pitch`.

    Color kinds require a 3-plane image.  With cfg.pre_blur the finished
    channels are smoothed with a radius-1 triangle filter (linear, so the
    orientation-sum-equals-G conservation is preserved).
    """
    arr = img.data if isinstance(img, Image) else np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"channel kind {cfg.kind} requires a 3-plane image")

    planes: List[np.ndarray]
    if cfg.kind == "RGB":
        planes = [arr[..., 0], arr[..., 1], arr[..., 2]]
    else:
        luv = rgb_to_luv(arr)
        l, u, v = luv[..., 0], luv[..., 1], luv[..., 2]
        if cfg.kind == "LUV":
            planes = [l, u, v]
        elif cfg.kind == "G_LUV":
            mag, _ = gradient_channels(l, 0)
            planes = [mag, l, u, v]
        elif cfg.kind == "HOG_L":
            _, oriented = gradient_channels(l, cfg.orientation_bins)
            planes = oriented + [l]
        elif cfg.kind == "HOG_LUV":
            mag, oriented = gradient_channels(l, cfg.orientation_bins)
            planes = [mag] + oriented + [l, u, v]
        else:  # pragma: no cover - guarded by ChannelConfig
            raise ValueError(cfg.kind)

    planes = [np.ascontiguousarray(p, dtype=np.float64) for p in planes]
    if cfg.pre_blur:
        planes = [triangle_blur(p) for p in planes]
    return ChannelStack(planes, pitch)


def pooling_regions(regions: Sequence[Tuple[int, Box]]) -> Tuple[np.ndarray, ...]:
    """(channel, x, y, w, h) integer arrays of (channel, Box) pooling regions,
    coordinates rounded to whole pixels and extents at least one pixel."""
    a = np.rint(np.array([(c, r.x, r.y, r.w, r.h) for c, r in regions],
                         dtype=np.float64).reshape(-1, 5)).astype(np.intp)
    a[:, 3:] = np.maximum(a[:, 3:], 1)
    return tuple(a.T)


def region_pitch(regions: Sequence[Tuple[int, Box]], *extra: int) -> int:
    """The largest integral pitch that reads every (channel, Box) pooling
    region: the gcd of their x, y, w and h, as pooling_regions rounds them,
    and of any extra integers, such as a window stride."""
    _, *coords = pooling_regions(regions)
    return int(np.gcd.reduce(np.concatenate([np.asarray(extra, dtype=np.intp), *coords])))


def on_pitch(pitch: int, *coords):
    """Integer coordinates, or arrays of them, divided by an integral pitch;
    ValueError unless each is a multiple of it."""
    if any(np.any(np.asarray(c) % pitch) for c in coords):
        raise ValueError(f"coordinates are not multiples of the integral pitch {pitch}")
    return tuple(c // pitch for c in coords)


def rect_sums(integrals: np.ndarray, channel, x, y, w, h, ox=0, oy=0):
    """Rectangle sums over an integral array whose leading axes are
    (C, H+1, W+1), in that array's corner units (pixels divided by its
    pitch, see on_pitch).

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


def rect_sum(stack: ChannelStack, channel: int, r: Box) -> float:
    """Sum of channel values inside an integer-aligned in-bounds rectangle."""
    x, y, w, h = r.x, r.y, r.w, r.h
    xi, yi, wi, hi = int(round(x)), int(round(y)), int(round(w)), int(round(h))
    if max(abs(x - xi), abs(y - yi), abs(w - wi), abs(h - hi)) > 1e-9:
        raise ValueError(f"rectangle must be integer-aligned: {r}")
    if xi < 0 or yi < 0 or xi + wi > stack.width or yi + hi > stack.height:
        raise ValueError(f"rectangle out of bounds: {r}")
    return float(rect_sums(stack.integrals, channel, *on_pitch(stack.pitch, xi, yi, wi, hi)))
