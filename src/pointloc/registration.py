"""Rigid 3D-3D registration: closed-form least squares, RANSAC, trimmed ICP
refinement, and, against heavy outlier contamination, graduated non-convexity
over a truncated-least-squares cost on the maximum consistent clique.

Scale is fixed to 1 everywhere: both point sets come from metric RGB-D
back-projections.  All solvers return rotations re-orthonormalized through the
SVD factorization (det +1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from pointloc.geometry import Pose, UnitQuaternion, transform_points

GNC_DIVISOR = 1.4
DEGENERACY_RTOL = 1e-9
# Vertices one clique search may colour: real queries colour at most about
# 7,200, 1,000 all-consistent matches about 500,000.  A count, not a clock,
# keeps the result determined.
_CLIQUE_WORK = 1_000_000
_CLIQUE_TIES_MATCHES = 12  # up to this many matches tied cliques are compared
# RANSAC stops once an all-inlier triple would have been drawn with this
# probability, at the best consensus so far (_ransac_bound).
RANSAC_CONFIDENCE = 0.999


class RegistrationError(Exception):
    pass


class InsufficientPointsError(RegistrationError):
    pass


class DegenerateConfigurationError(RegistrationError):
    pass


class RegistrationFailedError(RegistrationError):
    pass


@dataclass(frozen=True)
class RegistrationResult:
    """Estimated transform mapping query-frame points into db-frame coordinates.

    residual_history records the per-iteration objective of iterative solvers
    (trimmed mean residual for ICP, truncated cost for GNC); closed-form paths
    leave it empty.
    """

    pose: Pose
    inlier_indices: np.ndarray
    iterations: int
    residual_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        idx = np.asarray(self.inlier_indices, dtype=np.int64)
        idx.setflags(write=False)
        object.__setattr__(self, "inlier_indices", idx)


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must be an (n, 3) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must hold finite coordinates")
    return pts


def _point_pairs(p_query, p_db) -> tuple[np.ndarray, np.ndarray]:
    """The query and db points of at least 3 correspondences, as (n, 3) arrays."""
    q = _as_points(p_query, "p_query")
    d = _as_points(p_db, "p_db")
    if q.shape != d.shape:
        raise ValueError("point sets must have equal shapes")
    if len(q) < 3:
        raise InsufficientPointsError(f"need at least 3 correspondences, got {len(q)}")
    return q, d


def umeyama(p_query: np.ndarray, p_db: np.ndarray, weights: np.ndarray | None = None) -> Pose:
    """Least-squares rigid transform T with T(p_query) ~ p_db, scale fixed at 1.

    Cross-covariance SVD with determinant sign correction.  Raises
    InsufficientPointsError below 3 points and DegenerateConfigurationError for
    collinear (rank < 2) configurations, where the rotation is not unique.
    """
    q, d = _point_pairs(p_query, p_db)
    if weights is None:
        w = np.ones(len(q))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(q),) or (w < 0).any():
            raise ValueError("weights must be a nonnegative (n,) array")
        if w.sum() <= 0:
            raise DegenerateConfigurationError("all correspondence weights are zero")
    w = w / w.sum()

    qc = w @ q
    dc = w @ d
    a = q - qc
    b = d - dc
    h = np.einsum("ni,n,nj->ij", a, w, b)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= DEGENERACY_RTOL * max(s[0], 1e-300):
        raise DegenerateConfigurationError(
            "correspondences are collinear or coincident; rotation underdetermined"
        )
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, sign]) @ u.T
    t = dc - r @ qc
    return Pose(UnitQuaternion.from_rotation_matrix(r), t)


def _residuals(pose: Pose, q: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.linalg.norm(transform_points(pose, q) - d, axis=1)


def _pairwise_gap(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """|‖q_i - q_j‖ - ‖d_i - d_j‖| for every pair of matches, (n, n).  A rigid
    motion leaving residuals r_i and r_j on matches i and j keeps it within
    r_i + r_j (the triangle inequality): the consistency of TEASER++."""
    dq, dd = (np.sqrt(sum((c[:, None] - c) ** 2 for c in p.T)) for p in (q, d))
    return np.abs(dq - dd)


def _refit(q: np.ndarray, d: np.ndarray, pose: Pose, mask: np.ndarray, within):
    """The final refit of both robust solvers: umeyama on the inliers (mask) of
    pose, returned with the indices of its own inliers (residuals passing within)
    if it is not degenerate and keeps at least 3, else pose and mask's indices."""
    try:
        refit = umeyama(q[mask], d[mask])
    except DegenerateConfigurationError:
        return pose, np.nonzero(mask)[0]
    refit_mask = within(_residuals(refit, q, d))
    if refit_mask.sum() < 3:
        return pose, np.nonzero(mask)[0]
    return refit, np.nonzero(refit_mask)[0]


def _draw_triples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 3) index triples, the same ones and in the same order as count
    calls of rng.choice(n, size=3, replace=False), leaving rng in the same state.

    For three of n, numpy 2's choice always runs Floyd's algorithm (its
    tail-shuffle path needs n > 10000 and 3 > n // 50) with j = n-3, n-2, n-1:
    draw v in [0, j], take j instead when v was taken already; then it
    shuffles the triple with two Fisher-Yates draws (positions 2 and 1, each
    swapped with a draw in [0, i]).  Those five bounded draws per triple come
    from one integers() call, in the same order, then run as array operations.
    """
    bounds = np.array([n - 3, n - 2, n - 1, 2, 1], dtype=np.int64)
    a, b, c, j2, j1 = rng.integers(0, np.tile(bounds, (count, 1)), endpoint=True).T
    b = np.where(b == a, n - 2, b)
    c = np.where((c == a) | (c == b), n - 1, c)
    triples = np.stack([a, b, c], axis=1)
    rows = np.arange(count)
    for i, j in ((2, j2), (1, j1)):
        moved = triples[rows, j]
        triples[rows, j] = triples[:, i]
        triples[:, i] = moved
    return triples


# Rounding-step cover of the triple-fit bounds (see _fit_triples).
_ROUNDING_STEPS = 1024
_C_U = _ROUNDING_STEPS * np.finfo(np.float64).eps / 2  # eps / 2 = u


def _scale(q: np.ndarray, d: np.ndarray) -> float:
    """L: the largest query plus the largest db point norm, which bounds the
    size of every rounding step of a fit and its residuals by u L."""
    return float(np.linalg.norm(q, axis=1).max() + np.linalg.norm(d, axis=1).max())


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of the columns of two (3, H) arrays."""
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


def _unit(v: np.ndarray) -> np.ndarray:
    """The columns of v (3, H) scaled to length 1; a zero column stays zero."""
    return v / np.maximum(np.sqrt(np.einsum("ih,ih->h", v, v)), 1e-300)


def _triangle_frames(p: np.ndarray):
    """Per centred triple of p (3 coordinates, 3 points, H) the frame e1 along
    its longest point, e3 the normal of its vertex order (along p0 x p1) and
    e2 = e3 x e1, (3 coordinates, 3 axes, H), and the points' coordinates
    along e1 and e2, (2, 3, H)."""
    norm2 = np.einsum("cph,cph->ph", p, p)
    p1_longer = norm2[1] > norm2[0]
    p2_longest = norm2[2] > np.maximum(norm2[0], norm2[1])
    longest = np.where(p2_longest, p[:, 2], np.where(p1_longer, p[:, 1], p[:, 0]))
    after = np.where(p2_longest, p[:, 0], np.where(p1_longer, p[:, 2], p[:, 1]))
    e3 = _unit(_cross(longest, after))
    e1 = _unit(longest)
    frame = np.stack([e1, _cross(e3, e1), e3], axis=1)
    return frame, np.einsum("cph,cah->aph", p, frame[:, :2])


def _fit_triples(q: np.ndarray, d: np.ndarray, idx: np.ndarray):
    """Every 3-point hypothesis idx (H, 3) fitted at once in closed form, with
    the bounds within which umeyama on the same triple can differ.

    Returns (res2, fitted, undecided, dr): the (n, H) squared residuals of
    every fit over all n points; the hypotheses umeyama certainly fits, and
    those it may or may not reject as degenerate (it certainly rejects the
    rest); and dr (H,), a bound on how far any residual of a fitted
    hypothesis lies from the one umeyama's pose gives.

    Centred triples span a plane, so the cross-covariance is E M F^T, with
    E, F the triangles' frames (_triangle_frames) and M the 2x2
    cross-covariance of the in-plane coordinates.  Both frames follow their
    vertex order, so det M >= 0: the singular values are (h+ +- h-) / 2
    with h+- = |(m00 +- m11, m01 -+ m10)|, and the best rotation turns E in
    its plane by the angle of (m00 + m11, m01 - m10) onto F.

    The fit differs from umeyama only by rounding.  With u = 2^-53 and L
    the largest query plus the largest db point norm, every rounding step
    of either fit moves the cross-covariance and its singular values by at
    most about u L^2; c = _ROUNDING_STEPS covers the steps of both fits
    many times over, so dh = c u L^2 bounds the difference of the two
    singular values and of the degeneracy margin (by 2 dh).  The rotation of
    a rank-2 Kabsch problem moves by at most 2 dh / s1 (s1 the second
    singular value), plus c u for forming it; a residual then moves by at
    most dr = 2 (rho + c u) L.  A frame's normal, a x b of centred points
    with a the longest, tilts by at most about 3 u |a|^2 / |a x b|, which
    is <= 12 dh / (c s1) as s1 <= 2 L |a x b| / |a|; turning about e1, it
    moves the in-plane coordinates only by its square.
    """
    n, hyps = len(q), len(idx)
    # query triples in columns :H, db triples in columns H:, each centred
    p = np.take(np.concatenate([q, d]).T, np.concatenate([idx, idx + n]).T, axis=1)
    centre = p.mean(axis=1)
    frame, xy = _triangle_frames(p - centre[:, None])
    e, f = frame[..., :hyps], frame[..., hyps:]
    m = np.einsum("aph,bph->abh", xy[..., :hyps], xy[..., hyps:])  # 3 M: sums, not means
    h_plus = np.hypot(m[0, 0] + m[1, 1], m[0, 1] - m[1, 0])
    h_minus = np.hypot(m[0, 0] - m[1, 1], m[0, 1] + m[1, 0])
    s = np.stack([h_plus + h_minus, h_plus - h_minus]) / 6.0
    cos, sin = np.stack([m[0, 0] + m[1, 1], m[0, 1] - m[1, 0]]) / np.maximum(h_plus, 1e-300)
    # R = sum over axes a of f_a g_a^T, g the query frame turned in its plane
    g = np.stack([cos * e[:, 0] - sin * e[:, 1], sin * e[:, 0] + cos * e[:, 1], e[:, 2]], axis=1)
    pose = np.empty((4, 3, hyps))  # [R_h^T; t_h] for each h, applied to [q, 1]
    np.einsum("jah,iah->jih", g, f, out=pose[:3])
    pose[3] = centre[:, hyps:] - np.einsum("jih,jh->ih", pose[:3], centre[:, :hyps])
    res = (np.concatenate([q, np.ones((n, 1))], axis=1) @ pose.reshape(4, -1)).reshape(n, 3, hyps)
    res -= d[:, :, None]
    res2 = np.einsum("nih,nih->nh", res, res)

    scale = _scale(q, d)
    dh = _C_U * scale * scale
    gap = s[1] - DEGENERACY_RTOL * np.maximum(s[0], 1e-300)
    fitted = gap > 2.0 * dh
    undecided = ~(fitted | (gap < -2.0 * dh))  # also NaN: left to umeyama
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 2.0 * dh / (s[1] - dh) + _C_U
    dr = 2.0 * (rho + _C_U) * scale
    return res2, fitted, undecided, dr


# Hypotheses per RANSAC chunk: the first chunk, doubled for each next one,
# and at most _RANSAC_CHUNK_POINTS // n so that the (n, 3, H) residual array
# stays at a few MB.
_RANSAC_FIRST_CHUNK = 64
_RANSAC_CHUNK_POINTS = 1 << 17


def _ransac_bound(size: int, n: int) -> float:
    """Fischler and Bolles' hypothesis count for a best consensus of size of n
    matches: the least N with 1 - (1 - w^3)^N >= RANSAC_CONFIDENCE, w = size / n,
    so that N draws hold an all-inlier triple with that probability.  Below 3
    inliers there is no consensus, and the count is infinite."""
    if size < 3:
        return math.inf
    if size >= n:
        return 1
    return math.ceil(math.log(1.0 - RANSAC_CONFIDENCE) / math.log1p(-((size / n) ** 3)))


def _has_consistent_triple(q: np.ndarray, d: np.ndarray, threshold: float) -> bool:
    """Whether some three matches are pairwise consistent: |‖q_i - q_j‖ -
    ‖d_i - d_j‖| within 2 threshold plus a rounding allowance of _C_U L
    (_pairwise_gap).  Every pose with 3 inliers (residual < threshold) makes
    its inliers such a triangle, so without one RANSAC is sure to fail.  The
    computed residuals and distances, and the length a rotation formed from a
    unit quaternion keeps, each err by a few u L, well within _C_U L."""
    adj = _pairwise_gap(q, d) <= 2.0 * threshold + _C_U * _scale(q, d)
    np.fill_diagonal(adj, False)
    a = adj.astype(np.float32)  # path counts up to n, exact in float32
    return bool(((a @ a) * a).any())


def ransac_register(
    p_query: np.ndarray,
    p_db: np.ndarray,
    inlier_threshold: float = 0.05,
    max_iters: int = 1000,
    seed: int = 0,
) -> RegistrationResult:
    """3-point hypotheses from a seeded stream, consensus by residual < threshold,
    final refit on the best consensus set.

    Fails at once, drawing nothing, when no three matches are pairwise
    consistent (_has_consistent_triple).  Stops after hypothesis k (1-based)
    at 90% consensus, or once k reaches the confidence bound of the best
    consensus so far (_ransac_bound), or at max_iters; the earliest of the
    largest consensus sets wins.  Hypotheses are fitted chunk by chunk by
    _fit_triples; umeyama fits again those with a residual within dr of the
    threshold and undecided ones.  The refit and its inliers are kept if it is
    not degenerate and keeps at least 3, else the best hypothesis and its
    inliers are (_refit)."""
    q, d = _point_pairs(p_query, p_db)
    n = len(q)
    if inlier_threshold <= 0:
        raise ValueError("inlier_threshold must be positive")
    if not _has_consistent_triple(q, d, inlier_threshold):
        raise RegistrationFailedError(
            "no three matches are pairwise consistent within twice the inlier threshold"
        )
    rng = np.random.default_rng(seed)

    best_size = 0
    best_idx: np.ndarray | None = None
    iterations, chunk = 0, _RANSAC_FIRST_CHUNK
    while iterations < max_iters:
        count = min(chunk, max(1, _RANSAC_CHUNK_POINTS // n), max_iters - iterations)
        idx = _draw_triples(rng, n, count)
        res, fitted, undecided, dr = _fit_triples(q, d, idx)
        np.sqrt(res, out=res)
        sizes = np.where(fitted, (res < inlier_threshold).sum(axis=0), 0)
        res -= inlier_threshold
        near = (np.abs(res, out=res) <= dr).any(axis=0)
        for h in np.flatnonzero(undecided | (fitted & near)):
            try:
                hyp = umeyama(q[idx[h]], d[idx[h]])
            except DegenerateConfigurationError:
                sizes[h] = 0
                continue
            sizes[h] = (_residuals(hyp, q, d) < inlier_threshold).sum()
        running = np.maximum(np.maximum.accumulate(sizes), best_size)
        values, at = np.unique(running, return_inverse=True)
        bound = np.array([_ransac_bound(int(s), n) for s in values])[at]
        done = np.flatnonzero(
            ((running >= 3) & (running / n >= 0.9))  # early exit at 90%
            | (iterations + np.arange(1, count + 1) >= bound)
        )
        seen = done[0] + 1 if len(done) else count
        iterations += int(seen)
        top = int(np.argmax(sizes[:seen]))  # the first largest: ties keep the earliest
        if sizes[top] > best_size:
            best_size, best_idx = int(sizes[top]), idx[top]
        if len(done):
            break
        chunk *= 2

    if best_idx is None or best_size < 3:
        raise RegistrationFailedError(
            f"no hypothesis reached 3 inliers in {iterations} iterations"
        )

    best_pose = umeyama(q[best_idx], d[best_idx])
    mask = _residuals(best_pose, q, d) < inlier_threshold
    pose, inliers = _refit(q, d, best_pose, mask, lambda r: r < inlier_threshold)
    return RegistrationResult(pose=pose, inlier_indices=inliers, iterations=iterations)


def icp_refine(
    query_cloud: np.ndarray,
    db_cloud: np.ndarray,
    init: Pose,
    max_iters: int = 30,
    tol: float = 1e-6,
) -> RegistrationResult:
    """Point-to-point ICP with an adaptive trim at twice the median residual.

    Associations go from the transformed query cloud to its nearest db points.
    The trimmed mean residual is non-increasing over accepted iterations; a
    step that would raise it is rejected and iteration stops there.
    """
    q = _as_points(query_cloud, "query_cloud")
    d = _as_points(db_cloud, "db_cloud")
    if len(q) == 0 or len(d) == 0:
        raise InsufficientPointsError("both clouds must be nonempty")
    if not np.isfinite(init.translation).all():
        raise ValueError("initial pose must be finite")
    tree = cKDTree(d)

    def associate(pose: Pose):
        dist, nn = tree.query(transform_points(pose, q))
        med = float(np.median(dist))
        keep = dist <= 2.0 * med + 1e-12
        return nn, keep, float(dist[keep].mean())

    pose = init
    nn, keep, mean_res = associate(pose)
    history = [mean_res]
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        try:
            cand = umeyama(q[keep], d[nn[keep]])
        except (InsufficientPointsError, DegenerateConfigurationError):
            break
        nn2, keep2, mean2 = associate(cand)
        if mean2 > history[-1] + 1e-15:
            break  # no further improvement possible from here
        pose, nn, keep = cand, nn2, keep2
        history.append(mean2)
        if history[-2] - history[-1] < tol:
            break

    return RegistrationResult(
        pose=pose,
        inlier_indices=np.nonzero(keep)[0],
        iterations=iterations,
        residual_history=tuple(history),
    )


def _tls_weights(r2: np.ndarray, eps2: float, mu: float) -> np.ndarray:
    """Closed-form truncated-least-squares weight update at control value mu.

    mu > 1 interpolates between a soft 1/r-style downweighting (mu large) and
    the hard r <= eps inlier test (mu -> 1): weights are 1 below eps^2/mu,
    0 above mu * eps^2, and (eps * sqrt(mu) / r - 1) / (mu - 1) in between.
    """
    w = np.zeros_like(r2)
    lower = eps2 / mu
    upper = eps2 * mu
    w[r2 <= lower] = 1.0
    mid = (r2 > lower) & (r2 < upper)
    if mid.any():
        r = np.sqrt(r2[mid])
        w[mid] = (np.sqrt(eps2 * mu) / r - 1.0) / (mu - 1.0)
    return np.clip(w, 0.0, 1.0)


def _colour_classes(cand: int, nbr: list[int], min_colour: int) -> list[tuple[int, int]]:
    """Greedy colouring of bitset cand, lowest bit first: the (colour, vertex)
    pairs of colour >= min_colour, colours non-decreasing and each class from
    its highest bit down, so that popping takes a class lowest bit first.  No
    clique among a vertex and those listed before it is larger than its colour."""
    found, colour = [], 0
    while cand:
        colour, free, members = colour + 1, cand, []
        while free:
            low = free & -free
            members.append(low.bit_length() - 1)
            free &= ~(nbr[members[-1]] | low)
            cand &= ~low
        if colour >= min_colour:
            found += [(colour, v) for v in reversed(members)]
    return found


def _max_cliques(adj: np.ndarray, ties: bool) -> list[np.ndarray]:
    """Sorted maximum cliques of adj (its diagonal is ignored) by Tomita and
    Seki's branch and bound (MCQ) over Python int bitsets and an explicit
    stack, vertices taken by degree descending, then index, within each
    colour: with ties all of them in the order found, else the first.  Past
    _CLIQUE_WORK coloured vertices the branch under way is completed greedily
    and the search stops, so on dense graphs a clique may not be maximum."""
    order = np.argsort(-adj.sum(axis=1), kind="stable")
    rows = np.packbits(adj[np.ix_(order, order)], axis=1, bitorder="little")
    nbr = [int.from_bytes(row.tobytes(), "little") for row in rows]
    found, everything, slack = [[]], (1 << len(nbr)) - 1, 0 if ties else 1
    work, stack = len(nbr), [[[], everything, _colour_classes(everything, nbr, 1)]]
    while stack:
        clique, cand, branches = frame = stack[-1]
        size = len(found[0])
        if not branches or len(clique) + branches[-1][0] < size + slack:
            stack.pop()  # the colour bound: this branch cannot beat (or tie) the best
            continue
        _, v = branches.pop()
        frame[1] = cand = cand & ~(1 << v)
        grown, sub = clique + [v], cand & nbr[v]
        if sub and work > _CLIQUE_WORK:  # out of budget: take the lowest candidates, stop
            stack.clear()
            while sub:
                grown.append((sub & -sub).bit_length() - 1)
                sub &= nbr[grown[-1]] & ~(sub & -sub)
        if sub:
            work += sub.bit_count()
            stack.append([grown, sub, _colour_classes(sub, nbr, size + slack - len(grown))])
        elif len(grown) > size:  # strictly larger: the first one found leads
            found = [grown]
        elif ties and len(grown) == size:
            found.append(grown)
    return [np.sort(order[c]) for c in found]


def gnc_tls_register(
    p_query: np.ndarray, p_db: np.ndarray, noise_bound: float
) -> RegistrationResult:
    """Maximum consistent clique, then graduated non-convexity (TEASER++).

    Matches i and j are consistent when their query and db distances differ by
    at most 2 noise_bound; a clique below 3 points raises RegistrationFailedError
    and a collinear one DegenerateConfigurationError.  The pairwise test admits
    cliques that no rigid motion fits within noise_bound, so on up to
    _CLIQUE_TIES_MATCHES matches the tied maximum clique whose umeyama fit
    leaves the lowest truncated cost is kept (the first on equal cost); the
    search stops at a fixed amount of work (see _max_cliques).  From the clique's
    umeyama fit (each clique is fitted once), weighted fits alternate with closed-form TLS weights for
    sum(min(r^2/eps^2, 1)) on the clique as the control value falls from
    2 (max residual / noise bound)^2 by 1.4 a step to 1, keeping the best pose
    (the recorded cost never increases).  The inliers, all matches within the
    noise bound, are refitted once; the refit and its inliers are kept if it is
    not degenerate and keeps at least 3, else the annealed pose and its
    inliers are (_refit).  Deterministic.
    """
    if noise_bound <= 0:
        raise ValueError("noise_bound must be positive")
    q, d = _point_pairs(p_query, p_db)
    eps2 = noise_bound * noise_bound

    def truncated_cost(res2: np.ndarray) -> float:
        return float(np.minimum(res2 / eps2, 1.0).sum())

    def fitted(clique: np.ndarray) -> tuple[float, np.ndarray, Pose | None]:
        """The clique's truncated cost over all matches, and its umeyama fit."""
        try:
            pose = umeyama(q[clique], d[clique])
        except DegenerateConfigurationError:
            return np.inf, clique, None
        return truncated_cost(_residuals(pose, q, d) ** 2), clique, pose

    cliques = _max_cliques(_pairwise_gap(q, d) <= 2.0 * noise_bound, len(q) <= _CLIQUE_TIES_MATCHES)
    if len(cliques[0]) < 3:
        raise RegistrationFailedError(f"the largest consistent clique has {len(cliques[0])} points")
    clique, pose = cliques[0], None
    if len(cliques) > 1:
        _, clique, pose = min(map(fitted, cliques), key=lambda fit: fit[0])
    qc, dc = q[clique], d[clique]
    if pose is None:  # raises for a collinear clique
        pose = umeyama(qc, dc)
    r2 = _residuals(pose, qc, dc) ** 2
    history = [truncated_cost(r2)]
    mu = 2.0 * float(r2.max()) / eps2
    while mu > 1.0:
        cost = history[-1]
        try:  # the clique has >= 3 points; all weights zero is degenerate
            cand = umeyama(qc, dc, weights=_tls_weights(r2, eps2, mu))
        except DegenerateConfigurationError:
            pass
        else:
            cand_r2 = _residuals(cand, qc, dc) ** 2
            cand_cost = truncated_cost(cand_r2)
            if cand_cost <= cost + 1e-15:  # else keep the best pose so far
                pose, r2, cost = cand, cand_r2, cand_cost
        history.append(cost)
        mu /= GNC_DIVISOR

    mask = _residuals(pose, q, d) ** 2 <= eps2
    if mask.sum() < 3:
        raise RegistrationFailedError(f"{mask.sum()} correspondences survive the noise bound")
    pose, inliers = _refit(q, d, pose, mask, lambda r: r**2 <= eps2)
    return RegistrationResult(
        pose=pose,
        inlier_indices=inliers,
        iterations=len(history) - 1,
        residual_history=tuple(history),
    )

