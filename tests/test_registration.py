from __future__ import annotations

import hashlib
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_axis_angle, inverse, random_pose
from oracles import consistency_graph_scalar, max_cliques_brute, ransac_scalar

from pointloc import registration

from pointloc.geometry import (
    Pose,
    UnitQuaternion,
    compose,
    rotation_error,
    transform_points,
    translation_error,
)
from pointloc.registration import (
    DegenerateConfigurationError,
    InsufficientPointsError,
    RegistrationError,
    RegistrationFailedError,
    gnc_tls_register,
    icp_refine,
    ransac_register,
    umeyama,
)


def make_cloud(rng, n=50, scale=3.0):
    return rng.uniform(-scale, scale, size=(n, 3))


def corrupted_correspondences(rng, n=100, outlier_fraction=0.6, noise=0.0):
    """Ground-truth transform plus uniform outliers in a 10 m cube."""
    gt = random_pose(rng)
    q = make_cloud(rng, n)
    d = transform_points(gt, q)
    if noise > 0:
        d = d + rng.normal(0.0, noise, size=d.shape)
    n_out = int(round(outlier_fraction * n))
    out_idx = rng.choice(n, size=n_out, replace=False)
    d[out_idx] = rng.uniform(-5.0, 5.0, size=(n_out, 3))
    return gt, q, d, out_idx


def shaped(rng, kind, gt, q, d, out_idx):
    """A corrupted correspondence set made thin (query points about a line
    10 m long, 1e-5 to 1e-2 m off it), mirrored (the inliers' db points are
    the transformed mirror image of their query points), far (offset 1e4 m
    from the origin) or tiny (scaled by 1e-3); the outliers stay outliers."""
    if kind in ("thin", "mirrored"):
        inlier = np.ones(len(q), dtype=bool)
        inlier[out_idx] = False
        if kind == "thin":
            width = 10.0 ** rng.uniform(-5.0, -2.0)
            q = np.outer(rng.uniform(-3.0, 3.0, len(q)), rng.normal(size=3))
            q = q + width * rng.normal(size=q.shape)
            d[inlier] = transform_points(gt, q[inlier])
        else:
            d[inlier] = transform_points(gt, q[inlier] * np.array([1.0, 1.0, -1.0]))
    if kind == "far":
        q = q + 1e4 * rng.normal(size=3) / np.sqrt(3.0)
        d = d + 1e4 * rng.normal(size=3) / np.sqrt(3.0)
    if kind == "tiny":
        q, d = 1e-3 * q, 1e-3 * d
    return q, d


def assert_pose_close(got: Pose, want: Pose, t_tol: float, r_tol_deg: float):
    assert translation_error(got, want) < t_tol
    assert rotation_error(got, want) < r_tol_deg


class TestUmeyama:
    def test_identity(self, rng):
        pts = make_cloud(rng)
        assert_pose_close(umeyama(pts, pts), Pose.identity(), 1e-12, 1e-9)

    def test_pure_translation(self, rng):
        pts = make_cloud(rng)
        t = np.array([1.0, 2.0, 3.0])
        pose = umeyama(pts, pts + t)
        assert np.allclose(pose.translation, t, atol=1e-12)
        assert rotation_error(pose, Pose.identity()) < 1e-9

    def test_recovers_random_transforms(self, rng):
        for _ in range(200):
            gt = random_pose(rng)
            q = make_cloud(rng, n=int(rng.integers(4, 60)))
            est = umeyama(q, transform_points(gt, q))
            assert_pose_close(est, gt, 1e-9, 1e-7)

    def test_three_points_exact(self, rng):
        gt = random_pose(rng)
        q = make_cloud(rng, n=3)
        assert_pose_close(umeyama(q, transform_points(gt, q)), gt, 1e-9, 1e-7)

    def test_insufficient_points(self, rng):
        q = make_cloud(rng, n=2)
        with pytest.raises(InsufficientPointsError):
            umeyama(q, q)

    def test_collinear_degenerate(self, rng):
        line = np.outer(np.linspace(0, 1, 10), np.array([1.0, 2.0, 0.5]))
        with pytest.raises(DegenerateConfigurationError):
            umeyama(line, line + 1.0)

    def test_coincident_degenerate(self):
        pts = np.ones((5, 3))
        with pytest.raises(DegenerateConfigurationError):
            umeyama(pts, pts)

    def test_left_invariance(self, rng):
        """Transforming both sides by G maps the solution P to G P G^-1."""
        for _ in range(20):
            gt, g = random_pose(rng), random_pose(rng)
            q = make_cloud(rng, 30)
            d = transform_points(gt, q)
            base = umeyama(q, d)
            moved = umeyama(transform_points(g, q), transform_points(g, d))
            expected = compose(g, compose(base, inverse(g)))
            assert_pose_close(moved, expected, 1e-6, 1e-6)

    def test_global_optimality_spot_check(self, rng):
        q = make_cloud(rng, 40)
        d = transform_points(random_pose(rng), q) + rng.normal(0, 0.05, size=(40, 3))
        best = umeyama(q, d)
        best_cost = np.sum((transform_points(best, q) - d) ** 2)
        for _ in range(100):
            rival = random_pose(rng)
            rival_cost = np.sum((transform_points(rival, q) - d) ** 2)
            assert best_cost <= rival_cost + 1e-12

    def test_rotation_orthonormal(self, rng):
        for _ in range(20):
            gt = random_pose(rng)
            q = make_cloud(rng, 10)
            r = umeyama(q, transform_points(gt, q)).rotation.rotation_matrix()
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_weighted_ignores_zero_weight_outliers(self, rng):
        gt = random_pose(rng)
        q = make_cloud(rng, 30)
        d = transform_points(gt, q)
        d[:5] += 10.0
        w = np.ones(30)
        w[:5] = 0.0
        assert_pose_close(umeyama(q, d, weights=w), gt, 1e-9, 1e-7)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "solve, names",
    [
        (umeyama, ("p_query", "p_db")),
        (ransac_register, ("p_query", "p_db")),
        (lambda q, d: gnc_tls_register(q, d, 0.05), ("p_query", "p_db")),
        (lambda q, d: icp_refine(q, d, Pose.identity()), ("query_cloud", "db_cloud")),
    ],
    ids=["umeyama", "ransac", "gnc", "icp"],
)
def test_non_finite_points_are_a_value_error(rng, solve, names, value):
    q = make_cloud(rng, 20)
    for side, name in enumerate(names):
        points = [q, q + 1.0]
        points[side] = points[side].copy()
        points[side][7, 1] = value
        with pytest.raises(ValueError, match=f"{name} must hold finite coordinates"):
            solve(*points)


class TestRansac:
    def test_no_outliers_equals_umeyama(self, rng):
        gt = random_pose(rng)
        q = make_cloud(rng, 50)
        d = transform_points(gt, q)
        plain = umeyama(q, d)
        res = ransac_register(q, d, inlier_threshold=0.05, seed=0)
        assert_pose_close(res.pose, plain, 1e-9, 1e-7)
        assert len(res.inlier_indices) == 50
        assert res.iterations == 1  # the first hypothesis holds every point

    def test_recovers_under_60_percent_outliers(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            gt, q, d, _ = corrupted_correspondences(rng, n=100, outlier_fraction=0.6)
            res = ransac_register(q, d, inlier_threshold=0.05, max_iters=1000, seed=seed)
            assert_pose_close(res.pose, gt, 0.01, 0.5)

    def test_reported_inliers_satisfy_threshold(self, rng):
        gt, q, d, _ = corrupted_correspondences(rng, n=80, outlier_fraction=0.4)
        res = ransac_register(q, d, inlier_threshold=0.05, seed=3)
        resid = np.linalg.norm(transform_points(res.pose, q) - d, axis=1)
        assert np.all(resid[res.inlier_indices] < 0.05)

    def test_two_points_rejected(self, rng):
        q = make_cloud(rng, 2)
        with pytest.raises(InsufficientPointsError):
            ransac_register(q, q)

    def test_deterministic_per_seed(self, rng):
        gt, q, d, _ = corrupted_correspondences(rng, n=60, outlier_fraction=0.5)
        a = ransac_register(q, d, seed=7)
        b = ransac_register(q, d, seed=7)
        assert a.pose == b.pose
        assert np.array_equal(a.inlier_indices, b.inlier_indices)
        assert a.iterations == b.iterations

    def test_confidence_bound(self):
        assert registration._ransac_bound(80, 100) == 10
        assert registration._ransac_bound(3, 100) > 1000  # runs to the cap
        assert registration._ransac_bound(2, 100) == float("inf")

    def test_early_exit_on_clean_data(self, rng):
        gt = random_pose(rng)
        q = make_cloud(rng, 50)
        res = ransac_register(q, transform_points(gt, q), seed=1)
        assert res.iterations < 50


def assert_same_result(got, want):
    """Bit-identical registration results, or identical failures."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
    r, w = got.pose.rotation, want.pose.rotation
    assert (r.w, r.x, r.y, r.z) == (w.w, w.x, w.y, w.z)
    assert np.array_equal(got.inlier_indices, want.inlier_indices)
    assert got.iterations == want.iterations


def outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except RegistrationError as e:
        return e


def ransac_case(n, outliers, kind, seed):
    """A seeded correspondence set of one kind (plain, noisy, repeated,
    collinear, at_threshold, within_threshold, or one of shaped's) and its
    inlier threshold."""
    rng = np.random.default_rng(seed)
    gt, q, d, out_idx = corrupted_correspondences(
        rng, n, outliers, noise=0.01 if kind == "noisy" else 0.0
    )
    if kind == "repeated" and n > 3:  # repeated points make degenerate triples
        rep = rng.choice(n, size=max(2, n // 3), replace=False)
        q[rep], d[rep] = q[rep[0]], d[rep[0]]
    if kind == "collinear":
        q = np.outer(rng.uniform(-3.0, 3.0, n), rng.normal(size=3)) + rng.normal(size=3)
    if kind == "at_threshold":  # residuals of the true pose exactly at the threshold
        moved = rng.choice(n, size=(n + 1) // 2, replace=False)
        step = rng.normal(size=(len(moved), 3))
        d[moved] = d[moved] + 0.05 * step / np.linalg.norm(step, axis=1)[:, None]
    if kind == "within_threshold":  # residuals of the true pose just below the threshold
        step = rng.normal(size=(n, 3))
        d = d + rng.uniform(0.045, 0.05, (n, 1)) * step / np.linalg.norm(step, axis=1)[:, None]
    q, d = shaped(rng, kind, gt, q, d, out_idx)
    return q, d, 5e-5 if kind == "tiny" else 0.05


RANSAC_CASES = dict(
    n=st.integers(3, 90),
    outliers=st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]),
    kind=st.sampled_from(
        ["plain", "noisy", "repeated", "collinear", "at_threshold", "within_threshold"]
        + ["thin", "mirrored", "far", "tiny"]
    ),
    max_iters=st.sampled_from([1, 2, 63, 64, 65, 193, 300, 1000]),
    seed=st.integers(0, 2**32 - 1),
)


class TestRansacEquivalence:
    """ransac_register against the per-hypothesis loop it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(**RANSAC_CASES)
    def test_matches_per_hypothesis_loop(self, n, outliers, kind, max_iters, seed):
        q, d, threshold = ransac_case(n, outliers, kind, seed)
        got = outcome(ransac_register, q, d, threshold, max_iters, seed)
        want = outcome(ransac_scalar, q, d, threshold, max_iters, seed)
        assert_same_result(got, want)
        if kind == "collinear":
            assert isinstance(got, RegistrationFailedError)

    @settings(max_examples=150, deadline=None)
    @given(**RANSAC_CASES)
    def test_stop_rules_never_lose_a_registration(self, n, outliers, kind, max_iters, seed):
        """The triangle check and the confidence bound only skip hypotheses:
        ransac_register fails exactly when the loop without either rule,
        running to max_iters, fails."""
        q, d, threshold = ransac_case(n, outliers, kind, seed)
        got = outcome(ransac_register, q, d, threshold, max_iters, seed)
        capped = outcome(ransac_scalar, q, d, threshold, max_iters, seed, rules=False)
        assert isinstance(got, Exception) == isinstance(capped, Exception), (got, capped)

    def test_exit_at_first_iteration(self, rng):
        gt = random_pose(rng)
        q = make_cloud(rng, 30)
        d = transform_points(gt, q)
        d[:3] += 1.0  # 27 of 30 inliers: exactly 90%
        iterations = []
        for seed in range(20):
            got = ransac_register(q, d, seed=seed)
            assert_same_result(got, ransac_scalar(q, d, seed=seed))
            iterations.append(got.iterations)
        assert iterations.count(1) >= 10

    def test_minimal_sample_pose_kept_when_refit_is_degenerate(self):
        """Forty points on a line plus one just off it: the 3-point fits
        through the off-line point are not degenerate, the refit on all 41
        inliers is, so the winning 3-point pose itself is returned."""
        gt = Pose(from_axis_angle([0.3, -0.5, 0.8], 0.7), np.array([0.4, -1.2, 2.0]))
        q = np.zeros((41, 3))
        q[:40, 0] = np.linspace(-5.0, 5.0, 40)
        q[40] = (0.3, 5e-4, 0.0)
        d = transform_points(gt, q)
        with pytest.raises(DegenerateConfigurationError):
            umeyama(q, d)
        for seed in range(5):
            got = ransac_register(q, d, seed=seed)
            assert_same_result(got, ransac_scalar(q, d, seed=seed))
            assert len(got.inlier_indices) == 41 and got.iterations > 1

    @staticmethod
    def line_and_one_point(n, seed, first):
        """n - 1 points on a line and one 1 m off it, every match exact, for
        which the off-line point first appears in the seed's triple number
        first (1-based).  Triples on the line are degenerate; any other fits
        every match, so RANSAC exits at that triple."""
        triples = registration._draw_triples(np.random.default_rng(seed), n, first)
        seen_before = set(triples[: first - 1].ravel().tolist())
        fresh = [i for i in triples[first - 1].tolist() if i not in seen_before]
        if not fresh:
            return None
        gt = Pose(from_axis_angle([0.2, 0.9, -0.4], 0.8), np.array([1.0, -2.0, 0.5]))
        q = np.outer(np.linspace(-4.0, 4.0, n), [0.6, -0.3, 0.2]) + [0.1, 0.2, 0.3]
        q[fresh[0]] += [0.3, 0.6, -0.7]
        return q, transform_points(gt, q)

    @pytest.mark.parametrize(
        "first, max_iters",
        [(64, 1000), (65, 1000), (65, 65), (66, 65)],
        ids=["last-of-first-chunk", "first-of-second-chunk", "at-max-iters", "past-max-iters"],
    )
    def test_chunk_boundaries(self, first, max_iters):
        made = ((seed, self.line_and_one_point(40, seed, first)) for seed in range(2000))
        seed, (q, d) = next(m for m in made if m[1] is not None)
        got = outcome(ransac_register, q, d, 0.05, max_iters, seed)
        want = outcome(ransac_scalar, q, d, 0.05, max_iters, seed)
        assert_same_result(got, want)
        if first <= max_iters:
            assert got.iterations == first and len(got.inlier_indices) == 40
        else:
            assert str(got) == f"no hypothesis reached 3 inliers in {max_iters} iterations"

    def test_tie_across_chunks_keeps_the_earlier(self):
        """Seven points on a line, two off it, a and b, each matched under its
        own rotation about the line, and 21 outliers.  A triple of two line
        points and a fits the line and a (8 of 30 matches, whose confidence
        bound is 361 hypotheses), one with b fits the line and b: a tie, won
        by the first.  The seed is the first whose first tying triple holds
        a, while the first one of the second chunk, before the bound, holds
        b, so the result fits a and RANSAC stops at the bound."""
        n, bound = 30, registration._ransac_bound(8, 30)
        assert bound == 361
        line = np.outer(np.linspace(-3.0, 3.0, 7), [0.0, 0.0, 1.0])
        gt = Pose(from_axis_angle([0.3, -0.5, 0.8], 0.7), np.array([0.4, -1.2, 2.0]))
        turn_a = Pose(from_axis_angle([0.0, 0.0, 1.0], 0.5), np.zeros(3))
        turn_b = Pose(from_axis_angle([0.0, 0.0, 1.0], -0.9), np.zeros(3))
        for seed in range(200):
            triples = registration._draw_triples(np.random.default_rng(seed), n, bound)
            tying = (triples < 7).sum(axis=1) == 2
            tying &= ((triples == 7) | (triples == 8)).sum(axis=1) == 1
            first, first_next = triples[:64][tying[:64]], triples[64:][tying[64:]]
            if len(first) and len(first_next) and 7 in first[0] and 8 in first_next[0]:
                break
        else:
            pytest.fail("no seed below 200 ties across the chunks")
        outliers = np.random.default_rng(23).uniform(-5.0, 5.0, size=(2, n - 9, 3))
        q = np.vstack([line, [[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]], outliers[0]])
        d = np.vstack([
            transform_points(gt, line),
            transform_points(gt, transform_points(turn_a, q[7:8])),
            transform_points(gt, transform_points(turn_b, q[8:9])),
            outliers[1],
        ])
        got = ransac_register(q, d, 0.05, 1000, seed)
        assert_same_result(got, ransac_scalar(q, d, 0.05, 1000, seed))
        assert got.inlier_indices.tolist() == [0, 1, 2, 3, 4, 5, 6, 7]
        assert got.iterations == bound


class TestSolverDigests:
    """One SHA-256 per robust solver over a fixed battery of seeded
    correspondence sets, so that any change of either solver's output shows,
    not only one that reaches the results CSVs of TestEquivalenceOracle.  A
    solver change that alters output on purpose must say so and record a new
    digest."""

    DIGESTS = {
        "ransac": "4c33a484441580f135ec59a561a08397315d637153bc6b475421e910b1b29c13",
        "gnc": "82348dfe796ff522d1128cc2cde15959ffef1d5653709c75112ed3f878d2e6c6",
        "icp": "dd59d5bbe48225a01473ab6ae717399a8011428c66a8620ba31821db18b87651",
    }

    @staticmethod
    def battery():
        """60 sets: n from 3 to 120, outlier fractions 0 to 0.9, with and
        without noise."""
        for i in range(60):
            rng = np.random.default_rng([17, i])
            n = 3 + (i * 117) // 59
            outliers = (0.0, 0.1, 0.3, 0.6, 0.9)[i % 5]
            noise = (0.0, 0.01)[(i // 5) % 2]
            _, q, d, _ = corrupted_correspondences(rng, n, outliers, noise)
            yield i, q, d

    @staticmethod
    def digest(outcomes) -> str:
        h = hashlib.sha256()
        for got in outcomes:
            if isinstance(got, Exception):
                h.update(f"{type(got).__name__}: {got}".encode())
                continue
            r = got.pose.rotation
            h.update(np.array([r.w, r.x, r.y, r.z]).tobytes())
            h.update(got.pose.translation.tobytes())
            h.update(got.inlier_indices.tobytes())
            h.update(str(got.iterations).encode())
        return h.hexdigest()

    def test_ransac_digest(self):
        outcomes = (outcome(ransac_register, q, d, 0.05, 1000, i) for i, q, d in self.battery())
        assert self.digest(outcomes) == self.DIGESTS["ransac"]

    def test_gnc_digest(self):
        outcomes = (outcome(gnc_tls_register, q, d, 0.05) for _, q, d in self.battery())
        assert self.digest(outcomes) == self.DIGESTS["gnc"]

    def test_icp_digest(self):
        """icp_refine from the RANSAC pose, as the ransac+icp method runs it."""

        def ransac_then_icp(q, d, i):
            return icp_refine(q, d, ransac_register(q, d, 0.05, 1000, i).pose, 30, 1e-6)

        outcomes = (outcome(ransac_then_icp, q, d, i) for i, q, d in self.battery())
        assert self.digest(outcomes) == self.DIGESTS["icp"]


def small_noisy_set(rng, noise=0.03):
    """4 to 8 matches about 0.5 m apart under a random rotation and
    translation, with db-side noise close to a 0.05 m bound."""
    n = rng.integers(4, 9)
    q = rng.normal(size=(n, 3)) * 0.5
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    gt = Pose(from_axis_angle(axis, rng.uniform(0.0, np.pi)), rng.normal(size=3))
    return q, transform_points(gt, q) + rng.normal(size=(n, 3)) * noise


class TestInlierInvariant:
    """Every inlier a robust solver reports lies within its bound of the pose
    it returns: r^2 <= eps^2 for GNC-TLS, r < threshold for RANSAC."""

    @staticmethod
    def assert_inliers_within_bound(q, d, bound, seed):
        gnc = outcome(gnc_tls_register, q, d, bound)
        if not isinstance(gnc, Exception):
            r = np.linalg.norm(transform_points(gnc.pose, q) - d, axis=1)
            assert (r[gnc.inlier_indices] ** 2 <= bound * bound).all()
        ransac = outcome(ransac_register, q, d, bound, 1000, seed)
        if not isinstance(ransac, Exception):
            r = np.linalg.norm(transform_points(ransac.pose, q) - d, axis=1)
            assert (r[ransac.inlier_indices] < bound).all()
        return gnc

    @pytest.mark.parametrize("seed", [889, 39181, 45161])
    def test_gnc_refit_keeping_two_keeps_its_pose_and_inliers(self, seed):
        """The refit on these three inliers leaves two within the bound; the
        pre-refit pose and its inliers are kept together."""
        q, d = small_noisy_set(np.random.default_rng([18, seed]))
        got = self.assert_inliers_within_bound(q, d, 0.05, seed)
        assert not isinstance(got, Exception)
        assert len(got.inlier_indices) == 3

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 0.06))
    def test_small_noisy_sets(self, seed, noise):
        q, d = small_noisy_set(np.random.default_rng(seed), noise)
        self.assert_inliers_within_bound(q, d, 0.05, seed)


class TestFitTriples:
    """The closed-form fit of every hypothesis against umeyama on its triple:
    a fitted hypothesis is one umeyama fits, with every residual within dr of
    umeyama's; one neither fitted nor undecided is one umeyama rejects."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 40),
        outliers=st.sampled_from([0.0, 0.3, 0.9]),
        kind=st.sampled_from(
            ["random", "noisy", "repeated", "thin", "mirrored", "far", "tiny"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_holds_for_every_hypothesis(self, n, outliers, kind, seed):
        rng = np.random.default_rng(seed)
        gt, q, d, out_idx = corrupted_correspondences(
            rng, n, outliers, noise=0.01 if kind == "noisy" else 0.0
        )
        if kind == "repeated" and n > 3:
            rep = rng.choice(n, size=max(2, n // 3), replace=False)
            q[rep], d[rep] = q[rep[0]], d[rep[0]]
        q, d = shaped(rng, kind, gt, q, d, out_idx)
        idx = registration._draw_triples(rng, n, 64)
        res2, fitted, undecided, dr = registration._fit_triples(q, d, idx)
        if kind in ("random", "noisy", "mirrored", "far", "tiny"):
            assert fitted.all()
        for h, triple in enumerate(idx):
            try:
                pose = umeyama(q[triple], d[triple])
            except DegenerateConfigurationError:
                assert not fitted[h]
                continue
            assert fitted[h] or undecided[h]
            if fitted[h]:
                diff = np.abs(np.sqrt(res2[:, h]) - registration._residuals(pose, q, d))
                assert (diff <= dr[h]).all()


class TestDrawTriples:
    def test_matches_rng_choice(self):
        sizes = [*range(3, 40), 63, 64, 65, 100, 255, 256, 257, 1000, 4095, 4096, 4999, 5000, 2**33]
        for n in sizes:
            for seed in range(8):
                want_rng = np.random.default_rng([n % 997, seed])
                got_rng = np.random.default_rng([n % 997, seed])
                count = (1, 2, 64, 300)[seed % 4]
                want = np.array([want_rng.choice(n, size=3, replace=False) for _ in range(count)])
                got = registration._draw_triples(got_rng, n, count)
                assert np.array_equal(got, want), (n, seed)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state, (n, seed)


class TestIcp:
    def test_identical_clouds_identity_one_iteration(self, rng):
        cloud = make_cloud(rng, 200)
        res = icp_refine(cloud, cloud, Pose.identity())
        assert res.iterations == 1
        assert_pose_close(res.pose, Pose.identity(), 1e-12, 1e-9)

    def test_perturb_and_recover(self, rng):
        """5 degree / 0.1 m perturbation recovered on a rendered back-projection cloud."""
        cloud = rendered_backprojection_cloud(rng, 500)
        gt = Pose(
            from_axis_angle(rng.normal(size=3), np.radians(5.0)),
            rng.normal(size=3) * (0.1 / np.sqrt(3)),
        )
        moved = transform_points(gt, cloud)
        res = icp_refine(cloud, moved, Pose.identity(), max_iters=50, tol=1e-9)
        assert_pose_close(res.pose, gt, 1e-3, 0.1)

    def test_empty_cloud_rejected(self, rng):
        with pytest.raises(InsufficientPointsError):
            icp_refine(np.zeros((0, 3)), make_cloud(rng), Pose.identity())

    def test_nonfinite_init_rejected(self, rng):
        cloud = make_cloud(rng)
        bad = Pose(UnitQuaternion.identity(), np.array([np.nan, 0, 0]))
        with pytest.raises(ValueError):
            icp_refine(cloud, cloud, bad)

    def test_residual_history_monotone(self, rng):
        cloud = rendered_backprojection_cloud(rng, 400)
        gt = Pose(
            from_axis_angle([0, 0, 1], np.radians(4.0)),
            np.array([0.08, -0.03, 0.02]),
        )
        res = icp_refine(cloud, transform_points(gt, cloud), Pose.identity(), max_iters=50)
        hist = res.residual_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_iteration_cap_stops_early(self, rng):
        cloud = rendered_backprojection_cloud(rng, 300)
        gt = Pose(
            from_axis_angle([0, 1, 0], np.radians(5.0)),
            np.array([0.1, 0.05, -0.02]),
        )
        moved = transform_points(gt, cloud)
        res = icp_refine(cloud, moved, Pose.identity(), max_iters=1, tol=1e-15)
        assert res.iterations == 1
        assert len(res.residual_history) == 2  # the one step was accepted
        assert icp_refine(cloud, moved, Pose.identity(), max_iters=50, tol=1e-15).iterations > 1


class TestGncTls:
    def test_noiseless_inliers_equal_umeyama(self, rng):
        gt = random_pose(rng)
        q = make_cloud(rng, 40)
        d = transform_points(gt, q)
        res = gnc_tls_register(q, d, noise_bound=0.05)
        assert_pose_close(res.pose, umeyama(q, d), 1e-9, 1e-7)
        assert len(res.inlier_indices) == 40

    def test_recovers_under_70_percent_outliers(self):
        passes = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            gt, q, d, _ = corrupted_correspondences(
                rng, n=100, outlier_fraction=0.7, noise=0.01
            )
            try:
                res = gnc_tls_register(q, d, noise_bound=0.05)
            except RegistrationFailedError:
                continue
            if translation_error(res.pose, gt) < 0.02 and rotation_error(res.pose, gt) < 1.0:
                passes += 1
        assert passes >= 19

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        outlier_fraction=st.floats(0.0, 1.0),
        noise_bound=st.floats(0.01, 0.5),
    )
    def test_max_clique_matches_brute_force(self, n, seed, outlier_fraction, noise_bound):
        rng = np.random.default_rng(seed)
        q = make_cloud(rng, n, scale=1.0)
        d = transform_points(random_pose(rng), q) + rng.normal(scale=noise_bound, size=(n, 3))
        out = rng.random(n) < outlier_fraction
        d[out] = make_cloud(rng, int(out.sum()), scale=1.0)
        adj = consistency_graph_scalar(q, d, noise_bound)
        (clique,) = registration._max_cliques(adj, ties=False)
        assert all(adj[i, j] for i, j in itertools.combinations(clique, 2))
        want = max_cliques_brute(adj)
        assert len(clique) == len(want[0])
        assert np.array_equal(clique, np.sort(clique))
        assert np.array_equal(registration._max_cliques(adj, ties=False)[0], clique)
        # gnc_tls_register passes every point as consistent with itself
        with_diagonal = adj | np.eye(n, dtype=bool)
        assert np.array_equal(registration._max_cliques(with_diagonal, False)[0], clique)
        tied = registration._max_cliques(adj, ties=True)
        assert np.array_equal(tied[0], clique)  # the first one found leads either way
        assert sorted(tuple(c.tolist()) for c in tied) == want

    def test_tied_maximum_cliques_take_the_fixed_vertex_order(self):
        """Two 3-cliques share vertices 0 and 1; vertex 2 precedes vertex 3 in
        the order (degree descending, then index), so {0, 1, 2} comes first."""
        adj = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)):
            adj[i, j] = adj[j, i] = True
        assert [c.tolist() for c in registration._max_cliques(adj, False)] == [[0, 1, 2]]
        assert [c.tolist() for c in registration._max_cliques(adj, True)] == [[0, 1, 2], [0, 1, 3]]

    @staticmethod
    def tied_matches():
        """Six matches of a seed-7 desk query whose two maximum cliques tie."""
        q = np.array([
            [-3.6163488498512235, -0.7388239585717554, 9.954680704966812],
            [-5.485961103799496, 1.097192220759899, 8.025177386129549],
            [-1.141297350652323, -1.7499892710002285, 3.8956282902265964],
            [-1.741443026626993, 1.2499928473334858, 2.7350270847638667],
            [-1.715108100633249, 1.2499940394445714, 7.441824979018845],
            [-0.1512365768291752, -1.7500232461661702, 5.530937666895552],
        ])
        d = np.array([
            [-6.787562824254213, -0.7063979409857327, 7.862516212710765],
            [4.17651827267872, 1.2433909361409932, 8.161745632104981],
            [-1.3166855020218202, -1.7500250343327988, 4.266727702754253],
            [-1.179891350995651, 1.249983906500343, 2.9906157015335317],
            [-3.5450802767605087, 1.2499994039444569, 5.245899137865263],
            [-1.4049410620279237, -1.7500143053330277, 6.309910734721904],
        ])
        return q, d

    def test_tied_cliques_keep_the_one_that_fits(self):
        """Two 3-cliques tie, (0, 3, 5) comes first in the vertex order, yet
        its fit leaves only 2 matches within the bound, while (0, 2, 3) fits
        all three."""
        q, d = self.tied_matches()
        adj = consistency_graph_scalar(q, d, 0.05)
        tied = [c.tolist() for c in registration._max_cliques(adj, True)]
        assert tied == [[0, 3, 5], [0, 2, 3]]
        res = gnc_tls_register(q, d, noise_bound=0.05)
        assert res.inlier_indices.tolist() == [0, 2, 3]

    def test_tied_cliques_are_fitted_once_each(self, monkeypatch):
        """The winner's tie-break fit is the anneal start: one umeyama call
        per tied clique, then the final refit, and no weighted step."""
        q, d = self.tied_matches()
        calls = []

        def counted(p_query, p_db, weights=None):
            calls.append((p_query.tolist(), weights))
            return umeyama(p_query, p_db, weights)

        monkeypatch.setattr(registration, "umeyama", counted)
        gnc_tls_register(q, d, noise_bound=0.05)
        fitted = [q[[0, 3, 5]].tolist(), q[[0, 2, 3]].tolist(), q[[0, 2, 3]].tolist()]
        assert calls == [(points, None) for points in fitted]

    def test_dense_graph_stops_at_the_work_cap(self, monkeypatch):
        """300 unrelated matches in a 0.2 m cube: the consistency graph is so
        dense that the full search takes minutes.  The capped one colours at
        most one colouring past the cap, and returns the same pairwise
        consistent clique on a repeat."""
        rng = np.random.default_rng(9)
        q, d = rng.uniform(0.0, 0.2, (300, 3)), rng.uniform(0.0, 0.2, (300, 3))
        dq, dd = (np.linalg.norm(p[:, None] - p[None], axis=2) for p in (q, d))
        adj = np.abs(dq - dd) <= 0.1
        assert adj.mean() > 0.8
        coloured = []

        def counted(cand, nbr, min_colour):
            coloured.append(cand.bit_count())
            return colour_classes(cand, nbr, min_colour)

        colour_classes = registration._colour_classes
        monkeypatch.setattr(registration, "_colour_classes", counted)
        start = time.perf_counter()
        (clique,) = registration._max_cliques(adj, ties=False)
        assert time.perf_counter() - start < 30.0
        assert sum(coloured) <= registration._CLIQUE_WORK + 2 * len(adj)
        assert len(clique) >= 3
        assert all(adj[i, j] for i, j in itertools.combinations(clique, 2))
        assert np.array_equal(registration._max_cliques(adj, ties=False)[0], clique)
        try:
            gnc_tls_register(q, d, noise_bound=0.05)
        except registration.RegistrationError:
            pass  # unrelated points may well not register; they must not hang

    def test_thousand_identical_points(self, rng):
        """An all-consistent graph at max_keypoints' default size: the search
        goes 1000 deep without recursing, and every point comes back."""
        q = make_cloud(rng, 1000)
        start = time.perf_counter()
        res = gnc_tls_register(q, q.copy(), noise_bound=0.05)
        assert time.perf_counter() - start < 30.0
        assert np.array_equal(res.inlier_indices, np.arange(1000))

    def test_clique_below_three_points_fails(self, rng):
        q = make_cloud(rng, 8)
        with pytest.raises(RegistrationFailedError):
            gnc_tls_register(q, 3.0 * q, noise_bound=0.05)  # every distance tripled

    def test_collinear_clique_is_degenerate(self, rng):
        gt = random_pose(rng)
        line = np.outer(np.linspace(-2.0, 2.0, 12), [0.3, -0.4, 0.8])
        q = np.vstack([line, make_cloud(rng, 2)])
        d = np.vstack([transform_points(gt, line), make_cloud(rng, 2) + 50.0])
        with pytest.raises(DegenerateConfigurationError):
            gnc_tls_register(q, d, noise_bound=0.05)

    def test_invalid_noise_bound(self, rng):
        q = make_cloud(rng, 10)
        with pytest.raises(ValueError):
            gnc_tls_register(q, q, noise_bound=0.0)
        with pytest.raises(ValueError):
            gnc_tls_register(q, q, noise_bound=-1.0)

    def test_truncated_cost_history_non_increasing(self, rng):
        for _ in range(5):
            gt, q, d, _ = corrupted_correspondences(rng, n=80, outlier_fraction=0.5, noise=0.005)
            res = gnc_tls_register(q, d, noise_bound=0.05)
            hist = res.residual_history
            assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))

    def test_inliers_within_noise_bound(self, rng):
        gt, q, d, out_idx = corrupted_correspondences(rng, n=60, outlier_fraction=0.3, noise=0.005)
        res = gnc_tls_register(q, d, noise_bound=0.05)
        resid = np.linalg.norm(transform_points(res.pose, q) - d, axis=1)
        assert np.all(resid[res.inlier_indices] <= 0.05 + 1e-12)

    def test_rotation_orthonormal(self, rng):
        gt, q, d, _ = corrupted_correspondences(rng, n=50, outlier_fraction=0.4)
        r = gnc_tls_register(q, d, noise_bound=0.05).pose.rotation.rotation_matrix()
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def rendered_backprojection_cloud(rng, n):
    """Back-projected pixels of one rendered frame, subsampled to n points."""
    from pointloc.geometry import intrinsics_from_fov
    from pointloc.render import DEPTH_LEVELS, render
    from pointloc.scene import camera_pose, generate_scene

    scene = generate_scene(6)
    k = intrinsics_from_fov(90.0, 64, 64)
    frame = render(scene, camera_pose((5.0, 5.0, 1.25), 0.4), k)
    depth = frame.depth / DEPTH_LEVELS
    vs, us = np.nonzero((depth > 0.01) & (depth < 0.99))
    depths = depth[vs, us] * 10.0
    x = depths * (us - k.cx) / k.fx
    y = depths * (vs - k.cy) / k.fy
    pts = np.stack([x, y, depths], axis=1)
    pick = rng.choice(len(pts), size=min(n, len(pts)), replace=False)
    return pts[pick]
