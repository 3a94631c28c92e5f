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
from dataclasses import dataclass
from functools import cache

import numpy as np


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


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma: round(0.299 r + 0.587 g + 0.114 b)."""
    rgb = np.asarray(rgb)
    if rgb.ndim == 2:
        return rgb.astype(np.uint8)
    gray = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
    return np.rint(gray).astype(np.uint8)


@cache
def _arc_lut() -> np.ndarray:
    """Lookup table: 16-bit circle mask -> has a circular run of >= 9 set bits."""
    codes = np.arange(65536, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16)[None, :]) & 1).astype(bool)
    doubled = np.concatenate([bits, bits], axis=1)
    ok = np.zeros(65536, dtype=bool)
    for start in range(16):
        ok |= doubled[:, start : start + ARC_LENGTH].all(axis=1)
    return ok


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


@cache
def _disc_offsets() -> np.ndarray:
    r = ORIENTATION_RADIUS
    dy, dx = np.mgrid[-r : r + 1, -r : r + 1]
    mask = dx * dx + dy * dy <= r * r
    return np.stack([dx[mask], dy[mask]], axis=1)


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


@cache
def _rotated_patterns() -> np.ndarray:
    """(ORIENTATION_BINS, 256, 4) integer pattern, rotated per bin."""
    base = _build_pattern()
    out = np.zeros((ORIENTATION_BINS, DESCRIPTOR_BITS, 4), dtype=np.int64)
    for b in range(ORIENTATION_BINS):
        theta = 2.0 * math.pi * b / ORIENTATION_BINS
        c, s = math.cos(theta), math.sin(theta)
        for col in (0, 2):
            x, y = base[:, col], base[:, col + 1]
            out[b, :, col] = np.rint(c * x - s * y)
            out[b, :, col + 1] = np.rint(s * x + c * y)
    return out


def _box_sum_5x5(gray: np.ndarray) -> np.ndarray:
    """Exact integer 5x5 box sums (zeros outside): five row slices summed,
    then five column slices of that.  A sum is at most 25 * 255 = 6375, so
    int16 holds every one exactly at any raster size."""
    h, w = gray.shape
    padded = np.pad(gray, 2).astype(np.int16)
    rows = sum(padded[i : i + h] for i in range(5))
    return sum(rows[:, j : j + w] for j in range(5))


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


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of Hamming distances between descriptor sets."""
    a = _words(a)
    b = _words(b)
    out = np.zeros((len(a), len(b)), dtype=np.int32)
    chunk = max(1, (1 << 20) // max(1, b.size))
    for start in range(0, len(a), chunk):
        block = out[start : start + chunk]
        # one uint64 column at a time: a sum over a length-4 axis is slower
        for c in range(a.shape[1]):
            block += np.bitwise_count(a[start : start + chunk, None, c] ^ b[None, :, c])
    return out


def match(
    a: np.ndarray,
    b: np.ndarray,
    ratio: float = 0.8,
    mutual: bool = True,
) -> np.ndarray:
    """Ratio-tested (optionally mutual) nearest-neighbor matches a -> b, as an
    (m, 2) int64 array of (query index, db index) rows.

    Kept when nearest < ratio * second nearest; with a single candidate the
    ratio test passes.  With mutual=True, a must also be b's nearest and the
    ratio test is applied from both sides, which makes the result symmetric
    under swapping a and b.  Sorted by distance, ties by (query, db) index.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if len(a) == 0 or len(b) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    dist = hamming_matrix(a, b)
    nn, d1, row_second = _two_smallest(dist)
    keep = d1 < ratio * row_second
    if mutual:
        back, _, col_second = _two_smallest(dist.T)
        # db-side ratio: where a is b's nearest, the competitor excludes the pair
        keep &= (back[nn] == np.arange(len(a))) & (d1 < ratio * col_second[nn])
    qs = np.nonzero(keep)[0]
    qs = qs[np.lexsort((nn[qs], qs, d1[qs]))]
    return np.stack([qs, nn[qs]], axis=1)


def _two_smallest(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: argmin, min, and the smallest value excluding the argmin
    position (out of range when a row has one value)."""
    rows = np.arange(dist.shape[0])
    amin = np.argmin(dist, axis=1)
    masked = dist.copy()
    m1 = masked[rows, amin]
    masked[rows, amin] = DESCRIPTOR_BITS + 1
    return amin, m1, masked.min(axis=1)
