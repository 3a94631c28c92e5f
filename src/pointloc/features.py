"""Corner detection, rotation-aware binary descriptors, and descriptor matching.

Detection is a FAST-9 segment test (contiguous arc of >= 9 of the 16 Bresenham
circle pixels brighter/darker than the center by a threshold) with 3x3
non-maximum suppression.  Descriptors are 256 binary intensity comparisons on
a 5x5 box-smoothed raster, with the sampling pattern rotated by the keypoint
orientation (intensity centroid of a radius-15 patch), discretized to 30 bins.

The segment test runs only on the pixels that pass a compass pre-test (the
high-speed test of Rosten & Drummond, ECCV 2006).  The compass pixels are
circle pixels 0, 4, 8 and 12, and any 9 contiguous circle pixels include two
that are adjacent on the compass (0/4, 4/8, 8/12 or 12/0).  A pixel where no
such pair is both brighter, or both darker, cannot be a corner, so skipping
it changes no output: the corners, their scores and their order are those of
the full test on every pixel.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from pointloc.binio import ExactReader

DESCRIPTOR_BITS = 256
DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8
FAST_THRESHOLD = 20
ARC_LENGTH = 9
BORDER_MARGIN = 16
ORIENTATION_RADIUS = 15
ORIENTATION_BINS = 30
PATTERN_SEED = 0x0B5E55ED
_PATTERN_MAX_RADIUS = 14.2  # keeps rotated + rounded offsets within 15 px

FAST_CIRCLE = np.array(
    [
        (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
        (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
    ],
    dtype=np.int64,
)  # (dx, dy)
_COMPASS = [0, 4, 8, 12]  # FAST_CIRCLE indices straight up, right, down, left
_CIRCLE_BITS = np.uint16(1) << np.arange(16, dtype=np.uint16)  # pixel i -> bit i of the arc code


@dataclass(frozen=True)
class Keypoints:
    """Detected corners, struct-of-arrays: xy is (n, 2) float (x, y) pixels."""

    xy: np.ndarray
    response: np.ndarray
    orientation: np.ndarray

    def __post_init__(self) -> None:
        for name in ("xy", "response", "orientation"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return len(self.xy)


class Match(NamedTuple):
    query_index: int
    db_index: int
    distance: int


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma: round(0.299 r + 0.587 g + 0.114 b)."""
    rgb = np.asarray(rgb)
    if rgb.ndim == 2:
        return rgb.astype(np.uint8)
    gray = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return np.rint(gray).astype(np.uint8)


_ARC_LUT: np.ndarray | None = None


def _arc_lut() -> np.ndarray:
    """Lookup table: 16-bit circle mask -> has a circular run of >= 9 set bits."""
    global _ARC_LUT
    if _ARC_LUT is None:
        codes = np.arange(65536, dtype=np.uint32)
        bits = ((codes[:, None] >> np.arange(16)[None, :]) & 1).astype(bool)
        doubled = np.concatenate([bits, bits], axis=1)
        ok = np.zeros(65536, dtype=bool)
        for start in range(16):
            ok |= doubled[:, start : start + ARC_LENGTH].all(axis=1)
        _ARC_LUT = ok
    return _ARC_LUT


def detect(gray: np.ndarray, max_keypoints: int = 1000, threshold: int = FAST_THRESHOLD) -> Keypoints:
    """FAST-9 corners with NMS, strongest ``max_keypoints`` kept.

    Only pixels at least BORDER_MARGIN from the edges are considered, so every
    returned keypoint supports orientation and descriptor extraction.
    """
    gray = np.asarray(gray)
    h, w = gray.shape
    if h < 32 or w < 32:
        raise ValueError(f"raster must be at least 32x32, got {w}x{h}")
    m = BORDER_MARGIN
    ih, iw = h - 2 * m, w - 2 * m
    if ih <= 0 or iw <= 0:
        return _empty_keypoints()
    g = gray.astype(np.int16)

    # Compass pre-test (see the module docstring): a necessary condition.
    center = g[m : h - m, m : w - m]
    bright, dark = [], []
    for dx, dy in FAST_CIRCLE[_COMPASS]:
        diff = g[m + dy : m + dy + ih, m + dx : m + dx + iw] - center
        bright.append(diff > threshold)
        dark.append(diff < -threshold)
    maybe = np.zeros((ih, iw), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        maybe |= (bright[a] & bright[b]) | (dark[a] & dark[b])
    ys, xs = np.nonzero(maybe)

    flat = (ys + m) * w + (xs + m)  # row-major index into gray
    pixels = g.ravel()
    diff = pixels[flat[:, None] + (FAST_CIRCLE[:, 1] * w + FAST_CIRCLE[:, 0])] - pixels[flat][:, None]
    bright = diff > threshold
    dark = diff < -threshold
    lut = _arc_lut()
    corner = lut[bright.view(np.uint8) @ _CIRCLE_BITS] | lut[dark.view(np.uint8) @ _CIRCLE_BITS]
    flat, diff, bright, dark = flat[corner], diff[corner], bright[corner], dark[corner]
    resp = np.maximum(
        np.where(bright, diff - threshold, 0).sum(axis=1),
        np.where(dark, -diff - threshold, 0).sum(axis=1),
    )
    score = np.zeros(h * w, dtype=resp.dtype)  # zero except at the corners
    score[flat] = resp
    window = (np.arange(-1, 2)[:, None] * w + np.arange(-1, 2)).ravel()
    nms = resp == score[flat[:, None] + window].max(axis=1)

    flat, resp = flat[nms], resp[nms]
    order = np.lexsort((flat, -resp))[:max_keypoints]  # (-response, y, x)
    flat, resp = flat[order], resp[order]
    ys, xs = np.divmod(flat, w)
    return Keypoints(
        xy=np.stack([xs, ys], axis=1).astype(np.float64),
        response=resp.astype(np.float64),
        orientation=_intensity_centroid_orientation(gray, flat),
    )


def _empty_keypoints() -> Keypoints:
    return Keypoints(
        np.zeros((0, 2)), np.zeros(0), np.zeros(0)
    )


_DISC_OFFSETS: np.ndarray | None = None


def _disc_offsets() -> np.ndarray:
    global _DISC_OFFSETS
    if _DISC_OFFSETS is None:
        r = ORIENTATION_RADIUS
        dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
        mask = dx * dx + dy * dy <= r * r
        _DISC_OFFSETS = np.stack([dx[mask], dy[mask]], axis=1)
    return _DISC_OFFSETS


def _intensity_centroid_orientation(gray: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Patch orientation at the row-major pixel indices ``flat`` of gray."""
    if len(flat) == 0:
        return np.zeros(0)
    w = gray.shape[1]
    offs = _disc_offsets()
    sample = gray.ravel()[flat[:, None] + (offs[:, 1] * w + offs[:, 0])]
    # The moments are integers below 2**53, so the float64 product is exact.
    m10, m01 = (sample.astype(np.float64) @ offs.astype(np.float64)).T
    return np.arctan2(m01, m10)


def _build_pattern() -> np.ndarray:
    """256 fixed sampling pairs, Gaussian-ish, inside a radius-14.2 disc."""
    rng = np.random.default_rng(PATTERN_SEED)
    pairs = np.zeros((DESCRIPTOR_BITS, 4), dtype=np.int64)
    seen = set()
    n = 0
    while n < DESCRIPTOR_BITS:
        p = np.clip(np.rint(rng.normal(0.0, 6.0, size=4)), -14, 14).astype(np.int64)
        if np.hypot(p[0], p[1]) > _PATTERN_MAX_RADIUS or np.hypot(p[2], p[3]) > _PATTERN_MAX_RADIUS:
            continue
        if (p[0], p[1]) == (p[2], p[3]):
            continue
        key = tuple(p)
        if key in seen:
            continue
        seen.add(key)
        pairs[n] = p
        n += 1
    return pairs


_ROTATED_PATTERNS: np.ndarray | None = None


def _rotated_patterns() -> np.ndarray:
    """(ORIENTATION_BINS, 256, 4) integer pattern, rotated per bin."""
    global _ROTATED_PATTERNS
    if _ROTATED_PATTERNS is None:
        base = _build_pattern()
        out = np.zeros((ORIENTATION_BINS, DESCRIPTOR_BITS, 4), dtype=np.int64)
        for b in range(ORIENTATION_BINS):
            theta = 2.0 * math.pi * b / ORIENTATION_BINS
            c, s = math.cos(theta), math.sin(theta)
            for col in (0, 2):
                x, y = base[:, col], base[:, col + 1]
                out[b, :, col] = np.rint(c * x - s * y)
                out[b, :, col + 1] = np.rint(s * x + c * y)
        _ROTATED_PATTERNS = out
    return _ROTATED_PATTERNS


def _box_sum_5x5(gray: np.ndarray) -> np.ndarray:
    """Exact integer 5x5 box sums via an integral image (zeros outside).

    The int32 running sums may wrap modulo 2**32 on huge rasters; every box
    sum is below 2**31, so the four-corner difference is still exact.
    """
    h, w = gray.shape
    integral = np.zeros((h + 5, w + 5), dtype=np.int32)
    padded = np.pad(gray, 2).astype(np.int32)
    np.cumsum(np.cumsum(padded, axis=0, dtype=np.int32), axis=1, dtype=np.int32, out=integral[1:, 1:])
    return integral[5:, 5:] - integral[:-5, 5:] - integral[5:, :-5] + integral[:-5, :-5]


def describe(gray: np.ndarray, keypoints: Keypoints) -> tuple[np.ndarray, np.ndarray]:
    """Binary descriptors for keypoints at least 16 px from the borders.

    Returns (descriptors, kept): descriptors is (m, 32) uint8; kept maps each
    descriptor row back to its keypoint index (dropped keypoints are absent).
    """
    gray = np.asarray(gray)
    h, w = gray.shape
    if len(keypoints) == 0:
        return np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8), np.zeros(0, dtype=np.int64)
    xs = np.rint(keypoints.xy[:, 0]).astype(np.int64)
    ys = np.rint(keypoints.xy[:, 1]).astype(np.int64)
    ok = (
        (xs >= BORDER_MARGIN)
        & (xs < w - BORDER_MARGIN)
        & (ys >= BORDER_MARGIN)
        & (ys < h - BORDER_MARGIN)
    )
    kept = np.nonzero(ok)[0]
    if len(kept) == 0:
        return np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8), kept
    xs, ys = xs[kept], ys[kept]

    smooth = _box_sum_5x5(gray)
    bins = (
        np.rint(keypoints.orientation[kept] / (2.0 * math.pi / ORIENTATION_BINS)).astype(np.int64)
        % ORIENTATION_BINS
    )
    pat = _rotated_patterns()  # (bins, 256, 4)
    at = (ys * w + xs)[:, None]
    smooth = smooth.ravel()
    va = smooth[at + (pat[:, :, 1] * w + pat[:, :, 0])[bins]]
    vb = smooth[at + (pat[:, :, 3] * w + pat[:, :, 2])[bins]]
    bits = va < vb
    return np.packbits(bits, axis=1), kept


def _words(descriptors: np.ndarray) -> np.ndarray:
    """Descriptor rows as uint64 words, for one popcount per 64 bits."""
    return np.ascontiguousarray(descriptors, dtype=np.uint8).view(np.uint64)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.bitwise_count(np.bitwise_xor(_words(a), _words(b))).sum())


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of Hamming distances between descriptor sets."""
    a = _words(a)
    b = _words(b)
    out = np.empty((len(a), len(b)), dtype=np.int32)
    chunk = max(1, (1 << 20) // max(1, b.size))
    for start in range(0, len(a), chunk):
        stop = min(start + chunk, len(a))
        xor = np.bitwise_xor(a[start:stop, None, :], b[None, :, :])
        out[start:stop] = np.bitwise_count(xor).sum(axis=2, dtype=np.int32)
    return out


def match(
    a: np.ndarray,
    b: np.ndarray,
    ratio: float = 0.8,
    mutual: bool = True,
) -> list[Match]:
    """Ratio-tested (optionally mutual) nearest-neighbor matches a -> b.

    Kept when nearest < ratio * second nearest; with a single candidate the
    ratio test passes.  With mutual=True, a must also be b's nearest and the
    ratio test is applied from both sides, which makes the result symmetric
    under swapping a and b.  Sorted by distance, ties by (query, db) index.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if len(a) == 0 or len(b) == 0:
        return []
    dist = hamming_matrix(a, b)
    rows = np.arange(len(a))
    nn, d1, second_row = _two_smallest(dist, axis=1)
    keep = d1 < ratio * second_row
    if mutual:
        back, col_min, col_second = _two_smallest(dist, axis=0)
        keep &= back[nn] == rows
        # db-side ratio: competitor excludes the pair itself
        rival = np.where(back[nn] == rows, col_second[nn], col_min[nn])
        keep &= d1 < ratio * rival
    qs = np.nonzero(keep)[0]
    order = np.lexsort((nn[qs], qs, d1[qs]))
    return [Match(int(qs[i]), int(nn[qs[i]]), int(d1[qs[i]])) for i in order]


def _two_smallest(dist: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row (axis=1) or column (axis=0): argmin, min, and the smallest
    value excluding the argmin position (out-of-range when length is 1)."""
    amin = np.argmin(dist, axis=axis)
    if axis == 1:
        m1 = dist[np.arange(dist.shape[0]), amin]
    else:
        m1 = dist[amin, np.arange(dist.shape[1])]
    if dist.shape[axis] < 2:
        m2 = np.full_like(m1, DESCRIPTOR_BITS + 1)
        return amin, m1, m2
    masked = dist.copy()
    if axis == 1:
        masked[np.arange(dist.shape[0]), amin] = DESCRIPTOR_BITS + 1
    else:
        masked[amin, np.arange(dist.shape[1])] = DESCRIPTOR_BITS + 1
    return amin, m1, masked.min(axis=axis)


# --- descriptor dump format ------------------------------------------------------


def dump_descriptors(descriptors: np.ndarray, path: str | Path) -> None:
    """Binary dump: big-endian u32 count, u32 bits, then count x 32 bytes."""
    descriptors = np.asarray(descriptors, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", len(descriptors), DESCRIPTOR_BITS))
        fh.write(descriptors.tobytes())


class DescriptorFormatError(ValueError):
    """A descriptor dump that is truncated, corrupt or of another format."""


def load_descriptors(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        r = ExactReader(fh, path, DescriptorFormatError)
        count, bits = r.unpack(">II", "header")
        if bits != DESCRIPTOR_BITS:
            raise r.fail(f"expected {DESCRIPTOR_BITS}-bit descriptors, got {bits}")
        data = r.array(count * DESCRIPTOR_BYTES, np.uint8, "descriptors")
        r.expect_end("the descriptors")
    return data.reshape(count, DESCRIPTOR_BYTES).copy()
