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
