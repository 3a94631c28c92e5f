from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_axis_angle, inverse, random_pose
from oracles import gnc_start_scalar, ransac_scalar

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


class TestRansacEquivalence:
    """ransac_register against the per-hypothesis loop it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 90),
        outliers=st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]),
        kind=st.sampled_from(["plain", "noisy", "repeated", "collinear", "at_threshold"]),
        max_iters=st.sampled_from([1, 2, 63, 64, 65, 193, 300, 1000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_hypothesis_loop(self, n, outliers, kind, max_iters, seed):
        rng = np.random.default_rng(seed)
        _, q, d, _ = corrupted_correspondences(
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
        got = outcome(ransac_register, q, d, 0.05, max_iters, seed)
        want = outcome(ransac_scalar, q, d, 0.05, max_iters, seed)
        assert_same_result(got, want)
        if kind == "collinear":
            assert isinstance(got, RegistrationFailedError)

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

    @staticmethod
    def solve_both(q, d, monkeypatch):
        """gnc_tls_register as is, and with the per-hypothesis start loop."""
        outcomes = []
        for start in (None, gnc_start_scalar):
            with monkeypatch.context() as m:
                if start is not None:
                    m.setattr(registration, "_gnc_start", start)
                try:
                    outcomes.append(gnc_tls_register(q, d, noise_bound=0.05))
                except RegistrationFailedError as e:
                    outcomes.append(str(e))
        return outcomes

    @staticmethod
    def equivalence_cases():
        rng = np.random.default_rng(77)
        for i in range(48):
            n = (3, 4, 6, 12, 40, 90)[i % 6]
            outliers = (0.0, 0.2, 0.4, 0.6, 0.8)[i % 5]
            noise = 0.0 if i % 3 else 0.01  # noiseless inliers tie at one cost
            _, q, d, _ = corrupted_correspondences(rng, n, outliers, noise)
            if i % 4 == 1 and n > 3:  # repeated points make degenerate hypotheses
                rep = rng.choice(n, size=n // 3, replace=False)
                q[rep], d[rep] = q[rep[0]], d[rep[0]]
            yield q, d

    def test_start_selection_matches_per_hypothesis_loop(self, monkeypatch):
        compared = 0
        for q, d in self.equivalence_cases():
            try:
                got, want = self.solve_both(q, d, monkeypatch)
            except DegenerateConfigurationError:
                continue  # the all-point fit comes first and is shared
            compared += 1
            if isinstance(want, str):
                assert got == want
                continue
            assert got.pose.translation.tobytes() == want.pose.translation.tobytes()
            r, w = got.pose.rotation, want.pose.rotation
            assert (r.w, r.x, r.y, r.z) == (w.w, w.x, w.y, w.z)
            assert np.array_equal(got.inlier_indices, want.inlier_indices)
            assert got.residual_history == want.residual_history
            assert got.iterations == want.iterations
        assert compared >= 40

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_start_fits_each_ordered_triple_once(self, n, monkeypatch):
        """Unrelated points (a wrong retrieval): every start hypothesis ties,
        yet each distinct ordered triple is fitted at most once, after the
        all-point fit, and the pose is still the per-hypothesis loop's."""
        rng = np.random.default_rng(500 + n)
        q, d = make_cloud(rng, n), make_cloud(rng, n)
        eps2 = 0.05**2

        def truncated_cost(res2):
            return float(np.minimum(res2 / eps2, 1.0).sum())

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return umeyama(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(registration, "umeyama", counted)
            got = registration._gnc_start(q, d, eps2, truncated_cost)
        assert len(calls) <= 1 + n * (n - 1) * (n - 2)
        want = gnc_start_scalar(q, d, eps2, truncated_cost)
        assert got.translation.tobytes() == want.translation.tobytes()
        r, w = got.rotation, want.rotation
        assert (r.w, r.x, r.y, r.z) == (w.w, w.x, w.y, w.z)

    def test_start_selection_at_degeneracy_threshold(self, monkeypatch):
        """n = 3 with the third point moved off the line just far enough that
        umeyama stops calling the triple collinear: every start hypothesis
        sits within rounding of DEGENERACY_RTOL."""
        gt = Pose(from_axis_angle([0.3, -0.5, 0.8], 0.7), np.array([0.4, -1.2, 2.0]))

        def triple(h):
            q = np.array([[1.3, -0.7, 2.1], [2.3, -0.7, 2.1], [1.8, -0.7 + h, 2.1]])
            return q, transform_points(gt, q)

        def degenerate(h):
            try:
                umeyama(*triple(h))
            except DegenerateConfigurationError:
                return True
            return False

        lo, hi = 1e-12, 1e-3
        assert degenerate(lo) and not degenerate(hi)
        while True:
            mid = np.sqrt(lo * hi) if hi / lo > 1.0001 else 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if degenerate(mid) else (lo, mid)
        got, want = self.solve_both(*triple(hi), monkeypatch)
        assert got.residual_history == want.residual_history
        assert got.pose.translation.tobytes() == want.pose.translation.tobytes()

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
