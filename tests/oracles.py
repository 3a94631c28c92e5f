"""Independent reference implementations used as test oracles.

Everything here is written from first principles (scalar loops, direct
formulas) and deliberately avoids calling into the code paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from pointloc.dataset import (
    DatasetFormatError,
    DatasetManifest,
    GenerationParams,
    SceneSummary,
)
from pointloc.pipeline import PipelineConfig, _parse_bool
from pointloc.render import DEPTH_MAX
from pointloc.scene import SceneParams


def quat_to_matrix(w: float, x: float, y: float, z: float) -> np.ndarray:
    """Rotation matrix via the sandwich product q * v * q^-1 on basis vectors."""

    def rot(v):
        # quaternion multiply (w, vec) style, expanded by hand
        qv = (x, y, z)
        uv = _cross(qv, v)
        uuv = _cross(qv, uv)
        return [v[i] + 2.0 * (w * uv[i] + uuv[i]) for i in range(3)]

    cols = [rot((1, 0, 0)), rot((0, 1, 0)), rot((0, 0, 1))]
    return np.array(cols, dtype=np.float64).T


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def homogeneous(w, x, y, z, t) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = quat_to_matrix(w, x, y, z)
    m[:3, 3] = t
    return m


def rotation_angle_from_trace(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Geodesic angle in degrees via acos((trace(R_rel) - 1) / 2)."""
    r_rel = r_a.T @ r_b
    c = (np.trace(r_rel) - 1.0) / 2.0
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Bit-level Hamming distance between two uint8 descriptor rows."""
    dist = 0
    for x, y in zip(a.tolist(), b.tolist()):
        dist += bin(x ^ y).count("1")
    return dist


def ray_box_z_depth(origin, direction, box_min, box_max):
    """Scalar slab test.  Returns the entry parameter t (= z-depth when the
    direction has unit z in the camera frame) or None when the ray misses."""
    t_near, t_far = -math.inf, math.inf
    for a in range(3):
        o, d = origin[a], direction[a]
        lo, hi = box_min[a], box_max[a]
        if abs(d) < 1e-300:
            if o < lo or o > hi:
                return None
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_near = max(t_near, t1)
        t_far = min(t_far, t2)
    if t_near > t_far or t_far <= 0:
        return None
    return t_near


def fast_segment_test(gray: np.ndarray, row: int, col: int, threshold: int) -> bool:
    """Brute-force FAST-9 segment test at one pixel."""
    circle = [
        (0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
        (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3),
    ]
    center = int(gray[row, col])
    brighter = []
    darker = []
    for dx, dy in circle:
        v = int(gray[row + dy, col + dx])
        brighter.append(v > center + threshold)
        darker.append(v < center - threshold)
    for flags in (brighter, darker):
        doubled = flags + flags
        run = 0
        for f in doubled:
            run = run + 1 if f else 0
            if run >= 9:
                return True
    return False


def consistency_graph_scalar(q: np.ndarray, d: np.ndarray, noise_bound: float) -> np.ndarray:
    """Pairwise-consistency adjacency by scalar loops: i and j (i != j) are
    joined when their distances in the two frames differ by at most
    2 noise_bound."""
    n = len(q)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j:
                gap = abs(math.dist(q[i], q[j]) - math.dist(d[i], d[j]))
                adj[i, j] = gap <= 2.0 * noise_bound
    return adj


def max_cliques_brute(adj: np.ndarray) -> list[tuple[int, ...]]:
    """Every maximum clique, as sorted index tuples in lexicographic order, by
    trying every vertex subset, largest first."""
    n = len(adj)
    for size in range(n, 0, -1):
        found = [
            subset
            for subset in itertools.combinations(range(n), size)
            if all(adj[i, j] for i, j in itertools.combinations(subset, 2))
        ]
        if found:
            return found
    return [()]


def ransac_scalar(p_query, p_db, inlier_threshold=0.05, max_iters=1000, seed=0, rules=True):
    """ransac_register by the original per-hypothesis loop: one
    rng.choice draw, one umeyama fit and one residual pass per hypothesis.

    With rules, it first fails when no three matches are pairwise consistent,
    found by scalar loops, and stops once the hypothesis count reaches
    _ransac_bound of the best consensus; without them it runs to max_iters
    (or the 90% exit), as the loop did before either rule."""
    from pointloc import registration as reg

    q = reg._as_points(p_query, "p_query")
    d = reg._as_points(p_db, "p_db")
    if q.shape != d.shape:
        raise ValueError("point sets must have equal shapes")
    n = len(q)
    if n < 3:
        raise reg.InsufficientPointsError(f"need at least 3 correspondences, got {n}")
    if inlier_threshold <= 0:
        raise ValueError("inlier_threshold must be positive")
    if rules:
        scale = max(math.hypot(*p) for p in q) + max(math.hypot(*p) for p in d)
        limit = 2.0 * inlier_threshold + reg._C_U * scale
        adj = np.zeros((n, n), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            gap = abs(math.dist(q[i], q[j]) - math.dist(d[i], d[j]))
            adj[i, j] = adj[j, i] = gap <= limit
        if not any(adj[i, j] and (adj[i] & adj[j]).any() for i, j in zip(*np.nonzero(adj))):
            raise reg.RegistrationFailedError(
                "no three matches are pairwise consistent within twice the inlier threshold"
            )
    rng = np.random.default_rng(seed)

    best_size = 0
    best_mask = None
    best_pose = None
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        idx = rng.choice(n, size=3, replace=False)
        try:
            hyp = reg.umeyama(q[idx], d[idx])
        except reg.DegenerateConfigurationError:
            hyp = None
        if hyp is not None:
            mask = reg._residuals(hyp, q, d) < inlier_threshold
            size = int(mask.sum())
            if size > best_size:  # strictly greater keeps the earliest hypothesis on ties
                best_size, best_mask, best_pose = size, mask, hyp
        if best_size >= 3 and best_size / n >= 0.9:
            break
        if rules and iterations >= reg._ransac_bound(best_size, n):
            break

    if best_pose is None or best_size < 3:
        raise reg.RegistrationFailedError(
            f"no hypothesis reached 3 inliers in {iterations} iterations"
        )

    pose = best_pose
    try:
        pose = reg.umeyama(q[best_mask], d[best_mask])
    except reg.DegenerateConfigurationError:
        pass  # keep the minimal-sample pose
    mask = reg._residuals(pose, q, d) < inlier_threshold
    if mask.sum() < 3:
        pose, mask = best_pose, best_mask
    inliers = np.nonzero(mask)[0]
    return reg.RegistrationResult(
        pose=pose,
        inlier_indices=inliers,
        iterations=iterations,
    )


def scan_ranked(matrix: np.ndarray, frame_ids, q: np.ndarray) -> list[tuple[int, float]]:
    """Every frame as (frame_id, distance) in rank order, one row at a time;
    with frame_ids = range(n) the ids are the rows.

    Distance is the sum of the squared difference to the query; an all-zero
    row or query scores 2.0.  Zero rows rank after all others, then distance,
    then frame id."""
    q_zero = not np.any(q)
    keyed = []
    for row, fid in zip(matrix, frame_ids):
        zero = not np.any(row)
        dist = 2.0 if zero or q_zero else float(np.sum((row - q) ** 2))
        keyed.append((zero, dist, int(fid)))
    keyed.sort()
    return [(fid, dist) for _, dist, fid in keyed]


def detect_dense(gray: np.ndarray, max_keypoints: int = 1000, threshold: int = 20):
    """features.detect by the original dense pass: the 16-pixel segment test,
    its codes and scores on every inner pixel, then a scipy 3x3 maximum
    filter for non-maximum suppression.  Shares only the constant tables
    (arc lookup, orientation disc) with the code it checks."""
    from scipy import ndimage

    from pointloc import features as F

    gray = np.asarray(gray)
    h, w = gray.shape
    if h < 32 or w < 32:
        raise ValueError(f"raster must be at least 32x32, got {w}x{h}")
    m = F.BORDER_MARGIN
    inner = gray[m : h - m, m : w - m].astype(np.int16)
    ih, iw = inner.shape
    if ih <= 0 or iw <= 0:
        return F._empty_keypoints()

    center = inner
    bright_code = np.zeros((ih, iw), dtype=np.uint16)
    dark_code = np.zeros((ih, iw), dtype=np.uint16)
    bright_sum = np.zeros((ih, iw), dtype=np.int32)
    dark_sum = np.zeros((ih, iw), dtype=np.int32)
    for bit, (dx, dy) in enumerate(F.FAST_CIRCLE):
        nb = gray[m + dy : m + dy + ih, m + dx : m + dx + iw].astype(np.int16)
        diff = nb - center
        bright = diff > threshold
        dark = diff < -threshold
        bright_code |= bright.astype(np.uint16) << np.uint16(bit)
        dark_code |= dark.astype(np.uint16) << np.uint16(bit)
        bright_sum += np.where(bright, diff - threshold, 0)
        dark_sum += np.where(dark, -diff - threshold, 0)

    lut = F._arc_lut()
    corner = lut[bright_code] | lut[dark_code]
    if not corner.any():
        return F._empty_keypoints()
    score = np.where(corner, np.maximum(bright_sum, dark_sum), 0)
    nms = (score == ndimage.maximum_filter(score, size=3)) & corner

    ys, xs = np.nonzero(nms)
    resp = score[ys, xs]
    order = np.lexsort((xs, ys, -resp))[:max_keypoints]
    ys, xs, resp = ys[order] + m, xs[order] + m, resp[order]

    orientation = _orientation_int64(gray, xs, ys)
    return F.Keypoints(
        xy=np.stack([xs, ys], axis=1).astype(np.float64),
        response=resp.astype(np.float64),
        orientation=orientation,
    )


def _orientation_int64(gray: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Intensity-centroid orientation with int64 moments."""
    from pointloc import features as F

    if len(xs) == 0:
        return np.zeros(0)
    offs = F._disc_offsets()
    sample = gray[
        ys[:, None] + offs[None, :, 1], xs[:, None] + offs[None, :, 0]
    ].astype(np.int64)
    m10 = sample @ offs[:, 0]
    m01 = sample @ offs[:, 1]
    return np.arctan2(m01.astype(np.float64), m10.astype(np.float64))


def _box_sum_5x5_clamped(gray: np.ndarray) -> np.ndarray:
    """Exact integer 5x5 box sums via an integral image (edges clamped short)."""
    g = gray.astype(np.int64)
    integral = np.zeros((g.shape[0] + 1, g.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(g, axis=0), axis=1, out=integral[1:, 1:])
    h, w = g.shape
    y0 = np.clip(np.arange(h) - 2, 0, h)
    y1 = np.clip(np.arange(h) + 3, 0, h)
    x0 = np.clip(np.arange(w) - 2, 0, w)
    x1 = np.clip(np.arange(w) + 3, 0, w)
    return (
        integral[y1[:, None], x1[None, :]]
        - integral[y0[:, None], x1[None, :]]
        - integral[y1[:, None], x0[None, :]]
        + integral[y0[:, None], x0[None, :]]
    )


def describe_dense(gray: np.ndarray, keypoints):
    """features.describe by the original pass: clamped box sums gathered for
    every pixel, pattern pairs gathered by (row, column) index.  Shares only
    the rotated sampling pattern with the code it checks."""
    from pointloc import features as F

    gray = np.asarray(gray)
    h, w = gray.shape
    if len(keypoints) == 0:
        return np.zeros((0, F.DESCRIPTOR_BYTES), dtype=np.uint8), np.zeros(0, dtype=np.int64)
    xs = np.rint(keypoints.xy[:, 0]).astype(np.int64)
    ys = np.rint(keypoints.xy[:, 1]).astype(np.int64)
    ok = (
        (xs >= F.BORDER_MARGIN)
        & (xs < w - F.BORDER_MARGIN)
        & (ys >= F.BORDER_MARGIN)
        & (ys < h - F.BORDER_MARGIN)
    )
    kept = np.nonzero(ok)[0]
    if len(kept) == 0:
        return np.zeros((0, F.DESCRIPTOR_BYTES), dtype=np.uint8), kept
    xs, ys = xs[kept], ys[kept]

    smooth = _box_sum_5x5_clamped(gray)
    bins = (
        np.rint(keypoints.orientation[kept] / (2.0 * math.pi / F.ORIENTATION_BINS)).astype(np.int64)
        % F.ORIENTATION_BINS
    )
    pat = F._rotated_patterns()[bins]  # (m, 256, 4)
    va = smooth[ys[:, None] + pat[:, :, 1], xs[:, None] + pat[:, :, 0]]
    vb = smooth[ys[:, None] + pat[:, :, 3], xs[:, None] + pat[:, :, 2]]
    bits = va < vb
    return np.packbits(bits, axis=1), kept


def lift_matches_scalar(query_xy, query_depth, db_xy, db_depth, query_index, db_index, k):
    """Matched keypoint pairs (query_index[i], db_index[i]) lifted to 3D one
    match at a time, kept only where both depths are valid: the original
    loop in pipeline.localize."""
    from pointloc.geometry import backproject
    from pointloc.pipeline import INVALID_DEPTH_MAX
    from pointloc.render import DEPTH_MAX

    p_query, p_db = [], []
    for qi, di in zip(query_index, db_index):
        qx, qy = query_xy[qi]
        dx, dy = db_xy[di]
        qd = float(query_depth[int(round(qy)), int(round(qx))])
        dd = float(db_depth[int(round(dy)), int(round(dx))])
        if not (0.0 < qd < INVALID_DEPTH_MAX and 0.0 < dd < INVALID_DEPTH_MAX):
            continue
        p_query.append(backproject((qx, qy), qd * DEPTH_MAX, k))
        p_db.append(backproject((dx, dy), dd * DEPTH_MAX, k))
    return np.asarray(p_query).reshape(-1, 3), np.asarray(p_db).reshape(-1, 3)


def lift_cloud_scalar(xy, depth, k):
    """3D cloud of the valid-depth keypoints, one keypoint at a time: the
    original pipeline.backproject_keypoints."""
    from pointloc.geometry import backproject
    from pointloc.pipeline import INVALID_DEPTH_MAX
    from pointloc.render import DEPTH_MAX

    pts = []
    for x, y in xy:
        dn = float(depth[int(round(y)), int(round(x))])
        if 0.0 < dn < INVALID_DEPTH_MAX:
            pts.append(backproject((x, y), dn * DEPTH_MAX, k))
    return np.asarray(pts).reshape(-1, 3)


def embed_vlad_per_word(descriptors, vocab):
    """The per-word VLAD aggregation loop: retrieval.embed_vlad as it was
    before the one-hot product, kept verbatim as its oracle, but returning
    the row itself and dividing it by the root of its nonzero block count,
    as embed_vlad now does."""
    from pointloc.features import DESCRIPTOR_BITS
    from pointloc.retrieval import assign_words

    def _descriptor_signs(descriptors: np.ndarray) -> np.ndarray:
        """Descriptor bits as +/-1 float rows."""
        bits = np.unpackbits(np.asarray(descriptors, dtype=np.uint8), axis=1)
        return bits.astype(np.float64) * 2.0 - 1.0

    dim = vocab.k * DESCRIPTOR_BITS
    if len(descriptors) == 0:
        return np.zeros(dim)
    descriptors = np.asarray(descriptors, dtype=np.uint8)
    words = assign_words(descriptors, vocab.centroids)
    signs = _descriptor_signs(descriptors)
    centroid_signs = _descriptor_signs(vocab.centroids)
    blocks = np.zeros((vocab.k, DESCRIPTOR_BITS))
    for w in np.unique(words):
        members = words == w
        blocks[w] = (signs[members] - centroid_signs[w]).sum(axis=0)
    norms = np.linalg.norm(blocks, axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        blocks = np.where(norms > 0, blocks / norms, 0.0)
    flat = blocks.ravel()
    nonzero = np.count_nonzero(norms)
    return flat / np.sqrt(nonzero) if nonzero else np.zeros(dim)


def hamming_matrix_summed(a, b):
    """features.hamming_matrix as it was before the per-column popcount:
    XOR of the uint64 words, then a sum over the length-4 word axis."""
    a = np.ascontiguousarray(a, dtype=np.uint8).view(np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint8).view(np.uint64)
    out = np.empty((len(a), len(b)), dtype=np.int32)
    chunk = max(1, (1 << 20) // max(1, b.size))
    for start in range(0, len(a), chunk):
        stop = min(start + chunk, len(a))
        xor = np.bitwise_xor(a[start:stop, None, :], b[None, :, :])
        out[start:stop] = np.bitwise_count(xor).sum(axis=2, dtype=np.int32)
    return out


class DenseRetrievalIndex:
    """retrieval.RetrievalIndex as it was before compressed sparse rows: the
    dense (n, dim) float64 matrix, its all-zero rows and squared row norms."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.array(matrix, dtype=np.float64)
        self.sq_norms = np.einsum("ij,ij->i", self.matrix, self.matrix)
        self.zero_rows = self.sq_norms == 0.0
        # tiny nonzero entries can square to 0: only those rows need a look
        self.zero_rows[self.zero_rows] = ~np.any(self.matrix[self.zero_rows], axis=1)


def dense_ranked(index: DenseRetrievalIndex, q: np.ndarray, k: int):
    """retrieval._ranked over the dense matrix, verbatim but for the checks
    on its input: one GEMV ranks every row, the rows inside the rounding
    margin get their exact distances."""
    from pointloc.retrieval import ZERO_VECTOR_DISTANCE

    k = min(max(0, k), len(index.matrix))
    if k == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    if not np.any(q):
        rows = np.argsort(index.zero_rows, kind="stable")[:k]
        return rows, np.full(k, ZERO_VECTOR_DISTANCE)
    qq = float(q @ q)
    approx = index.sq_norms - 2.0 * (index.matrix @ q) + qq
    approx[index.zero_rows] = np.inf
    mu = (index.matrix.shape[1] + 2) * np.finfo(np.float64).eps / 2
    gamma = mu / (1.0 - mu)
    reach = float(np.sqrt(index.sq_norms.max())) + np.sqrt(qq)
    kth = np.partition(approx, k - 1)[k - 1]
    cand = np.flatnonzero(~(approx > kth + 4.0 * gamma * reach * reach))
    zero = index.zero_rows[cand]
    dist = np.full(len(cand), ZERO_VECTOR_DISTANCE)
    diff = index.matrix[cand[~zero]]
    diff -= q
    diff *= diff
    dist[~zero] = diff.sum(axis=1)
    order = np.lexsort((cand, dist, zero))[:k]
    return cand[order], dist[order]


def assert_same_as_dense(index, dense: DenseRetrievalIndex, q: np.ndarray, ks) -> None:
    """query_top1 and query_topk (each k in ks) on the index give the rows
    and distance bits of dense_ranked on the dense one.  A ranking's top k
    is the first k of a longer one (each row's distance has the same bits
    whatever rows come with it), so the dense side ranks once."""
    from pointloc.retrieval import query_top1, query_topk

    want_rows, want_dist = dense_ranked(dense, q, max(1, *ks))
    row, dist = query_top1(index, q)
    assert row == want_rows[0]
    assert np.float64(dist).tobytes() == want_dist[0].tobytes()
    for k in ks:
        topk = query_topk(index, q, k)
        assert [r for r, _ in topk] == want_rows[:k].tolist(), k
        assert np.array([d for _, d in topk]).tobytes() == want_dist[:k].tobytes(), k


def _hash01_full(*channels: np.ndarray) -> np.ndarray:
    """The renderer's SplitMix64-style hash as first written, out of place."""
    state = np.zeros(np.broadcast(*channels).shape, dtype=np.uint64)
    for c in channels:
        state = state + c.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        state = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        state = (state ^ (state >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        state = state ^ (state >> np.uint64(31))
    return (state >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def render_full_raster(scene, pose, k, depth_max: float = 10.0):
    """The renderer as first written: every box's slab test over every pixel,
    shading recomputed per pixel.  Returns (rgb, depth, instances) rasters."""
    from pointloc.render import (
        AMBIENT,
        BACKGROUND_RGB,
        DEPTH_LEVELS,
        DIFFUSE,
        TEXTURE_CELLS,
        TEXTURE_COARSE_CELL,
        TEXTURE_COARSE_MIN,
        TEXTURE_COARSE_SPAN,
        TEXTURE_MIN,
        TEXTURE_SPAN,
        _LIGHT_DIR,
    )

    _hash01 = _hash01_full
    boxes = scene.all_boxes()
    n_px = k.width * k.height
    r = pose.rotation.rotation_matrix().astype(np.float32)
    u = ((np.arange(k.width) - k.cx) / k.fx).astype(np.float32)
    v = ((np.arange(k.height) - k.cy) / k.fy).astype(np.float32)
    uu, vv = np.meshgrid(u, v)
    du, dv = uu.ravel(), vv.ravel()
    # world-space direction components, z-depth parameterization preserved
    d = [du * r[a, 0] + dv * r[a, 1] + r[a, 2] for a in range(3)]
    origin = pose.translation.astype(np.float32)

    inv = []
    for a in range(3):
        comp = d[a]
        tiny = np.abs(comp) < 1e-12
        if tiny.any():
            comp = np.where(tiny, np.where(comp < 0, -1e-12, 1e-12).astype(np.float32), comp)
        inv.append(np.float32(1.0) / comp)

    best_t = np.full(n_px, np.inf, dtype=np.float32)
    best_box = np.full(n_px, -1, dtype=np.int16)
    best_axis = np.zeros(n_px, dtype=np.int8)
    for i, b in enumerate(boxes):
        lo = []
        hi = []
        for a in range(3):
            t1 = inv[a] * np.float32(b.min_corner[a] - origin[a])
            t2 = inv[a] * np.float32(b.max_corner[a] - origin[a])
            lo.append(np.minimum(t1, t2))
            hi.append(np.maximum(t1, t2))
        t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
        t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
        hit = (t_enter <= t_exit) & (t_enter > np.float32(1e-6)) & (t_enter < best_t)
        if not hit.any():
            continue
        axis = np.where(t_enter == lo[0], 0, np.where(t_enter == lo[1], 1, 2)).astype(np.int8)
        best_t[hit] = t_enter[hit]
        best_box[hit] = i
        best_axis[hit] = axis[hit]

    hit_mask = best_box >= 0
    depth = np.ones(n_px)
    depth[hit_mask] = np.minimum(best_t[hit_mask].astype(np.float64) / depth_max, 1.0)
    depth = np.round(depth * DEPTH_LEVELS) / DEPTH_LEVELS

    instances = np.zeros(n_px, dtype=np.uint16)
    rgb = np.empty((n_px, 3), dtype=np.uint8)
    rgb[:] = BACKGROUND_RGB

    if hit_mask.any():
        idx = np.nonzero(hit_mask)[0]
        t = best_t[idx]
        box_idx = best_box[idx].astype(np.int64)
        axis = best_axis[idx].astype(np.int64)

        ids = np.array([b.instance_id for b in boxes], dtype=np.uint16)
        albedos = np.array([b.albedo for b in boxes], dtype=np.float64)
        instances[idx] = ids[box_idx]

        px = origin[0] + t * d[0][idx]
        py = origin[1] + t * d[1][idx]
        pz = origin[2] + t * d[2][idx]

        # face normal opposes the ray along the entry axis
        d_axis = np.choose(axis, (d[0][idx], d[1][idx], d[2][idx]))
        n_sign = np.where(d_axis > 0, -1.0, 1.0)

        cu = np.where(axis == 0, py, px)
        cv = np.where(axis == 2, py, pz)
        face_code = (axis * 2 + (n_sign > 0)).astype(np.uint64)
        box_code = ids[box_idx].astype(np.uint64)
        cell_sizes = np.asarray(TEXTURE_CELLS)
        cell = cell_sizes[
            (_hash01(face_code + np.uint64(7), box_code) * len(cell_sizes)).astype(np.int64)
        ]
        cell_u = np.floor(cu / cell).astype(np.int64).astype(np.uint64)
        cell_v = np.floor(cv / cell).astype(np.int64).astype(np.uint64)
        coarse_u = np.floor(cu / TEXTURE_COARSE_CELL).astype(np.int64).astype(np.uint64)
        coarse_v = np.floor(cv / TEXTURE_COARSE_CELL).astype(np.int64).astype(np.uint64)
        contrast = 0.4 + 0.6 * _hash01(coarse_u, coarse_v, face_code + np.uint64(53), box_code)
        fine = _hash01(cell_u, cell_v, face_code, box_code) - 0.5
        tex = TEXTURE_MIN + TEXTURE_SPAN * (0.5 + contrast * fine)
        tex *= TEXTURE_COARSE_MIN + TEXTURE_COARSE_SPAN * _hash01(
            coarse_u, coarse_v, face_code + np.uint64(101), box_code
        )

        lambert = -(n_sign * _LIGHT_DIR[axis])  # n . (-light)
        shade = AMBIENT + DIFFUSE * np.maximum(0.0, lambert)

        color = albedos[box_idx] * (tex * shade)[:, None] * 255.0
        rgb[idx] = np.clip(np.round(color), 0, 255).astype(np.uint8)

    return (
        rgb.reshape(k.height, k.width, 3),
        depth.reshape(k.height, k.width),
        instances.reshape(k.height, k.width),
    )


def box_hits_full_raster(box, pose, k) -> np.ndarray:
    """(height, width) mask of the pixels whose float32 slab test, in the
    expressions of `render_full_raster`, hits `box` beyond z-depth 1e-6."""
    r = pose.rotation.rotation_matrix().astype(np.float32)
    u = ((np.arange(k.width) - k.cx) / k.fx).astype(np.float32)
    v = ((np.arange(k.height) - k.cy) / k.fy).astype(np.float32)
    du, dv = np.meshgrid(u, v)
    origin = pose.translation.astype(np.float32)
    lo, hi = [], []
    for a in range(3):
        comp = du * r[a, 0] + dv * r[a, 1] + r[a, 2]
        tiny = np.abs(comp) < 1e-12
        if tiny.any():
            comp = np.where(tiny, np.where(comp < 0, -1e-12, 1e-12).astype(np.float32), comp)
        inv = np.float32(1.0) / comp
        t1 = inv * np.float32(box.min_corner[a] - origin[a])
        t2 = inv * np.float32(box.max_corner[a] - origin[a])
        lo.append(np.minimum(t1, t2))
        hi.append(np.maximum(t1, t2))
    t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
    t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
    return (t_enter <= t_exit) & (t_enter > np.float32(1e-6))


# --- the hand-listed text schemas that the field-derived ones replaced ------------
#
# Kept verbatim so that tests can compare the manifest and config readers and
# writers derived from the dataclass fields against the listed originals.


def manifest_to_text(m: DatasetManifest) -> str:
    p = m.params
    sp = p.scene
    lines = [
        "format = pointloc-dataset-v1",
        f"seed = {m.seed}",
        f"maps = {m.maps}",
        f"points = {m.points}",
        f"poses = {m.poses}",
        f"categories = {m.categories}",
        f"instances = {m.instances}",
        f"grid_spacing = {p.grid_spacing:.17g}",
        f"queries_per_point = {p.queries_per_point}",
        f"query_radius = {p.query_radius:.17g}",
        f"noise_factor = {p.noise_factor:.17g}",
        f"fov_deg = {p.fov_deg:.17g}",
        f"resolution = {p.resolution}",
        f"camera_height = {p.camera_height:.17g}",
        f"depth_max = {DEPTH_MAX:.17g}",
        f"scene_floor_width = {sp.floor_width:.17g}",
        f"scene_floor_depth = {sp.floor_depth:.17g}",
        f"scene_wall_height = {sp.wall_height:.17g}",
        f"scene_wall_thickness = {sp.wall_thickness:.17g}",
        f"scene_min_obstacles = {sp.min_obstacles}",
        f"scene_max_obstacles = {sp.max_obstacles}",
        f"scene_min_box_size = {sp.min_box_size:.17g}",
        f"scene_max_box_size = {sp.max_box_size:.17g}",
        f"scene_tall_fraction = {sp.tall_fraction:.17g}",
        f"scene_keypose_spacing = {sp.keypose_spacing:.17g}",
        f"scene_keypose_clearance = {sp.keypose_clearance:.17g}",
        f"scenes = {len(m.scenes)}",
    ]
    for i, s in enumerate(m.scenes):
        lines.append(f"scene_{i} = {s.name} {s.seed} {s.points} {s.poses}")
    return "\n".join(lines) + "\n"


_MANIFEST_KEYS = frozenset(
    line.split("=", 1)[0].strip()
    for line in manifest_to_text(
        DatasetManifest(0, (), 0, 0, 0, 0, 0, GenerationParams())
    ).splitlines()
)


def manifest_from_text(text: str, path: str = "manifest.txt") -> DatasetManifest:
    """Parse what manifest_to_text writes: blank lines aside, every line is
    a known `key = value` (scene_<i> for the scene summaries), each once."""
    kv: dict[str, str] = {}
    scene_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        key, eq, value = (part.strip() for part in raw.partition("="))
        scene = key.startswith("scene_") and key[6:].isdecimal()
        if not eq or not (scene or key in _MANIFEST_KEYS):
            raise DatasetFormatError(f"{path}:{lineno}: not a known 'key = value' line: {raw!r}")
        if key in kv:
            raise DatasetFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        kv[key] = value
        if scene:
            scene_lines.append((int(key[6:]), value))
    try:
        if float(kv["depth_max"]) != DEPTH_MAX:
            raise ValueError(f"depth_max {kv['depth_max']} is not the {DEPTH_MAX:g} m depth scale")
        scene_params = SceneParams(
            floor_width=float(kv["scene_floor_width"]),
            floor_depth=float(kv["scene_floor_depth"]),
            wall_height=float(kv["scene_wall_height"]),
            wall_thickness=float(kv["scene_wall_thickness"]),
            min_obstacles=int(kv["scene_min_obstacles"]),
            max_obstacles=int(kv["scene_max_obstacles"]),
            min_box_size=float(kv["scene_min_box_size"]),
            max_box_size=float(kv["scene_max_box_size"]),
            tall_fraction=float(kv["scene_tall_fraction"]),
            keypose_spacing=float(kv["scene_keypose_spacing"]),
            keypose_clearance=float(kv["scene_keypose_clearance"]),
        )
        params = GenerationParams(
            scenes=int(kv.get("scenes", "1")),
            grid_spacing=float(kv["grid_spacing"]),
            queries_per_point=int(kv["queries_per_point"]),
            query_radius=float(kv["query_radius"]),
            noise_factor=float(kv["noise_factor"]),
            fov_deg=float(kv["fov_deg"]),
            resolution=int(kv["resolution"]),
            camera_height=float(kv["camera_height"]),
            scene=scene_params,
        )
        summaries = []
        for _, value in sorted(scene_lines):
            name, seed, points, poses = value.split()
            summaries.append(SceneSummary(name, int(seed), int(points), int(poses)))
        return DatasetManifest(
            seed=int(kv["seed"]),
            scenes=tuple(summaries),
            points=int(kv["points"]),
            poses=int(kv["poses"]),
            categories=int(kv["categories"]),
            instances=int(kv["instances"]),
            maps=int(kv["maps"]),
            params=params,
        )
    except (KeyError, ValueError) as e:
        raise DatasetFormatError(f"corrupt manifest {path}: {e}") from e


CONFIG_PARSERS = {
    "retrieval": str,
    "method": str,
    "ratio": float,
    "mutual": _parse_bool,
    "min_matches": int,
    "max_keypoints": int,
    "fast_threshold": int,
    "ransac_threshold": float,
    "ransac_iters": int,
    "ransac_seed": int,
    "icp_iters": int,
    "icp_tol": float,
    "gnc_noise_bound": float,
    "record_timings": _parse_bool,
    "hardware": str,
}


def parse_config(text: str) -> PipelineConfig:
    """key = value lines; unknown keys are rejected."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_PARSERS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        try:
            kv[key] = CONFIG_PARSERS[key](value)
        except ValueError as e:
            raise ValueError(f"config key {key!r} on line {lineno}: {e}") from e
    return PipelineConfig(**kv)
