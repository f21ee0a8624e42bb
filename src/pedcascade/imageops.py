"""Image container, portable-pixmap I/O, and low-level raster operations."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np


@dataclass
class Image:
    """Row-major raster with values in [0,1], one or three planes."""

    data: np.ndarray  # (h, w) or (h, w, 3), float64

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim == 2:
            pass
        elif a.ndim == 3 and a.shape[2] == 3:
            pass
        else:
            raise ValueError(f"image must be (h,w) or (h,w,3), got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("image contains non-finite values")
        self.data = a

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def planes(self) -> int:
        return 1 if self.data.ndim == 2 else 3


def read_pnm(path: Union[str, Path]) -> Image:
    """Read a PGM/PPM file (P2, P3, P5, P6); values scaled to [0,1]."""
    raw = Path(path).read_bytes()
    if raw[:1] != b"P" or raw[1:2] not in b"2356":
        raise ValueError(f"{path}: not a supported PNM file")
    magic = raw[:2].decode("ascii")

    # Header tokens may be separated by whitespace and '#' comments.
    pos = 2
    tokens = []
    while len(tokens) < 3:
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(raw, pos)
        if m is None:
            raise ValueError(f"{path}: truncated PNM header")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    width, height, maxval = (int(t) for t in tokens)
    if maxval <= 0:
        raise ValueError(f"{path}: invalid maxval {maxval}")
    planes = 3 if magic in ("P3", "P6") else 1
    count = width * height * planes

    if magic in ("P5", "P6"):
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.uint8
        data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    else:
        data = np.array(raw[pos:].split()[:count], dtype=np.int64)
        if data.size != count:
            raise ValueError(f"{path}: truncated pixel data")
    arr = data.astype(np.float64).reshape(
        (height, width) if planes == 1 else (height, width, 3)
    )
    return Image(arr / maxval)


def write_pnm(path: Union[str, Path], img: Image) -> None:
    """Write a binary PGM (P5) or PPM (P6) file with maxval 255."""
    arr = np.clip(np.rint(img.data * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if img.planes == 1 else b"P6"
    header = magic + f"\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + arr.tobytes())


def bilinear_resize(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with pixel-center alignment and edge clamping.

    Identity (bit-exact copy) when the output size equals the input size.
    """
    return sample_box_bilinear(arr, 0.0, 0.0, float(arr.shape[1]), float(arr.shape[0]),
                               out_h, out_w)


def sample_box_bilinear(
    arr: np.ndarray,
    x0: float,
    y0: float,
    w: float,
    h: float,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Sample a (possibly out-of-bounds) source box into an out_h x out_w grid.

    Out-of-image coordinates are clamped, which replicates border pixels.
    A floating `arr` is blended in its own dtype.
    """
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

    # Horizontal pass over the contiguous band of source rows the output
    # reads, then a vertical blend of the band's rows.  Every output element
    # sees the same operations as the four-corner formula, so it is bit-exact.
    # (The initial values only keep an empty output empty.)
    lo = y0i.min(initial=H - 1)
    band = arr[lo:y1i.max(initial=0) + 1]
    dtype = np.result_type(arr, 1.0)
    tx = tx.astype(dtype).reshape((-1,) + (1,) * (arr.ndim - 2))
    ty = ty.astype(dtype).reshape((-1,) + (1,) * (arr.ndim - 1))
    rows = band.take(x0i, axis=1)
    rows *= 1.0 - tx
    right = band.take(x1i, axis=1)
    right *= tx
    rows += right
    out = rows.take(y0i - lo, axis=0)
    out *= 1.0 - ty
    bot = rows.take(y1i - lo, axis=0)
    bot *= ty
    out += bot
    return out


def centered_gradients(plane: np.ndarray):
    """Centered-difference gradients with replicated borders.

    Returns (gx, gy) where gx[i,j] = (I[i,j+1] - I[i,j-1]) / 2.
    """
    gx = np.empty(plane.shape, np.result_type(plane, 2.0))
    gy = np.empty_like(gx)
    _half_centered_difference(plane, gx)
    _half_centered_difference(plane.T, gy.T)
    return gx, gy


def _half_centered_difference(a: np.ndarray, out: np.ndarray) -> None:
    """out = centered difference of `a` along its last axis, halved, with the
    first and last columns replicated; writes no padded copy of `a`."""
    n = a.shape[-1]
    np.subtract(a[:, 2:], a[:, :-2], out=out[:, 1:-1])
    out[:, 0] = a[:, min(1, n - 1)] - a[:, 0]
    out[:, -1] = a[:, -1] - a[:, max(n - 2, 0)]
    out /= 2.0
