"""Independent reference implementations used as test oracles.

Everything here is written from first principles (scalar loops, direct
formulas) and deliberately avoids calling into the code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np


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


def gnc_start_scalar(q: np.ndarray, d: np.ndarray, eps2: float, truncated_cost):
    """GNC start pose by the original per-hypothesis loop: one umeyama fit
    and one residual pass per seeded 3-point hypothesis, in draw order,
    keeping a hypothesis only when its truncated cost is strictly lower."""
    from pointloc import registration as reg

    pose = reg.umeyama(q, d)
    best_cost = truncated_cost(reg._residuals(pose, q, d) ** 2)
    hyp_rng = np.random.default_rng(reg._GNC_INIT_SEED)
    for _ in range(reg.GNC_INIT_HYPOTHESES):
        idx = hyp_rng.choice(len(q), size=3, replace=False)
        try:
            cand = reg.umeyama(q[idx], d[idx])
        except reg.DegenerateConfigurationError:
            continue
        cost = truncated_cost(reg._residuals(cand, q, d) ** 2)
        if cost < best_cost:
            pose, best_cost = cand, cost
    return pose


def ransac_scalar(p_query, p_db, inlier_threshold=0.05, max_iters=1000, seed=0):
    """ransac_register by the original per-hypothesis loop: one
    rng.choice draw, one umeyama fit and one residual pass per hypothesis."""
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
            continue
        mask = reg._residuals(hyp, q, d) < inlier_threshold
        size = int(mask.sum())
        if size > best_size:  # strictly greater keeps the earliest hypothesis on ties
            best_size, best_mask, best_pose = size, mask, hyp
        if best_size >= 3 and best_size / n >= 0.9:
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
    residuals = reg._residuals(pose, q, d)
    inliers = np.nonzero(mask)[0]
    return reg.RegistrationResult(
        pose=pose,
        inlier_indices=inliers,
        iterations=iterations,
        converged=True,
        mean_inlier_residual=float(residuals[inliers].mean()),
    )


def scan_ranked(matrix: np.ndarray, frame_ids, q: np.ndarray) -> list[tuple[int, float]]:
    """Every frame as (frame_id, distance) in rank order, one row at a time.

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


def lift_matches_scalar(query_xy, query_depth, db_xy, db_depth, matches, k):
    """Matched keypoint pairs lifted to 3D one match at a time, kept only
    where both depths are valid: the original loop in pipeline.localize."""
    from pointloc.geometry import backproject
    from pointloc.pipeline import INVALID_DEPTH_MAX
    from pointloc.render import DEPTH_MAX

    p_query, p_db = [], []
    for m in matches:
        qx, qy = query_xy[m.query_index]
        dx, dy = db_xy[m.db_index]
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
