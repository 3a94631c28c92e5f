from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    from_axis_angle,
    inverse,
    pose_matrix,
    poses,
    project,
    quaternion_dot,
    quaternions,
    random_pose,
    transform_point,
)
from oracles import homogeneous, quat_to_matrix, rotation_angle_from_trace

from pointloc.geometry import (
    CameraIntrinsics,
    Pose,
    UnitQuaternion,
    backproject,
    compose,
    intrinsics_from_fov,
    pose_from_text,
    pose_to_text,
    rotation_error,
    transform_points,
    translation_error,
)


class TestUnitQuaternion:
    def test_normalized_on_construction(self):
        q = UnitQuaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    def test_canonical_hemisphere(self, raw):
        w, x, y, z = raw
        if w * w + x * x + y * y + z * z < 1e-6:
            w = 1.0
        pos = UnitQuaternion(w, x, y, z)
        neg = UnitQuaternion(-w, -x, -y, -z)
        assert pos.w >= 0.0
        assert (neg.w, neg.x, neg.y, neg.z) == (pos.w, pos.x, pos.y, pos.z)

    def test_canonicalization_at_w_zero(self):
        q = UnitQuaternion(0.0, -1.0, 0.0, 0.0)
        assert q.x == 1.0

    @given(quaternions())
    def test_unit_norm(self, q):
        n = math.sqrt(q.w**2 + q.x**2 + q.y**2 + q.z**2)
        assert abs(n - 1.0) < 1e-9

    @given(quaternions())
    def test_rotation_matrix_orthonormal(self, q):
        r = q.rotation_matrix()
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9

    @given(quaternions())
    def test_matrix_round_trip(self, q):
        q2 = UnitQuaternion.from_rotation_matrix(q.rotation_matrix())
        assert abs(quaternion_dot(q, q2)) > 1.0 - 1e-9

    def test_matrix_matches_sandwich_oracle(self, rng):
        for _ in range(50):
            v = rng.normal(size=4)
            q = UnitQuaternion(*v)
            expected = quat_to_matrix(q.w, q.x, q.y, q.z)
            assert np.allclose(q.rotation_matrix(), expected, atol=1e-12)


class TestCompose:
    def test_identity(self):
        p = compose(Pose.identity(), Pose.identity())
        assert np.allclose(p.translation, 0.0)
        assert p.rotation.w == 1.0

    def test_group_inverse(self, rng):
        p = random_pose(rng)
        ident = compose(p, inverse(p))
        assert translation_error(ident, Pose.identity()) < 1e-9
        assert rotation_error(ident, Pose.identity()) < 1e-7

    def test_matches_homogeneous_matrix_oracle(self, rng):
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            got = pose_matrix(compose(a, b))
            qa, qb = a.rotation, b.rotation
            expected = homogeneous(qa.w, qa.x, qa.y, qa.z, a.translation) @ homogeneous(
                qb.w, qb.x, qb.y, qb.z, b.translation
            )
            assert np.allclose(got, expected, atol=1e-10)

    @settings(max_examples=50)
    @given(poses(), poses())
    def test_compose_inverse_identity_property(self, a, b):
        p = compose(a, b)
        back = compose(inverse(a), p)
        assert translation_error(back, b) < 1e-7
        assert rotation_error(back, b) < 1e-5

    @settings(max_examples=100)
    @given(poses())
    def test_inverse_identity_both_orders(self, p):
        for ident in (compose(p, inverse(p)), compose(inverse(p), p)):
            assert translation_error(ident, Pose.identity()) < 1e-9
            assert rotation_error(ident, Pose.identity()) < 1e-7


class TestInverse:
    def test_identity(self):
        inv = inverse(Pose.identity())
        assert np.allclose(inv.translation, 0.0)

    def test_pure_translation(self):
        p = Pose(UnitQuaternion.identity(), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(inverse(p).translation, [-1.0, -2.0, -3.0])

    def test_matches_matrix_inverse_oracle(self, rng):
        for _ in range(100):
            p = random_pose(rng)
            assert np.allclose(pose_matrix(inverse(p)), np.linalg.inv(pose_matrix(p)), atol=1e-9)


class TestErrors:
    def test_translation_error_identical(self, rng):
        p = random_pose(rng)
        assert translation_error(p, p) == 0.0

    def test_translation_error_345(self):
        a = Pose(UnitQuaternion.identity(), np.zeros(3))
        b = Pose(UnitQuaternion.identity(), np.array([3.0, 4.0, 0.0]))
        assert translation_error(a, b) == pytest.approx(5.0)

    def test_translation_error_componentwise_oracle(self, rng):
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            expected = math.sqrt(
                sum((a.translation[i] - b.translation[i]) ** 2 for i in range(3))
            )
            assert translation_error(a, b) == pytest.approx(expected, abs=1e-12)
            assert translation_error(b, a) == translation_error(a, b)

    def test_rotation_error_identical(self, rng):
        p = random_pose(rng)
        assert rotation_error(p, p) == 0.0

    def test_rotation_error_90_about_z(self):
        a = Pose.identity()
        b = Pose(from_axis_angle([0, 0, 1], math.pi / 2), np.zeros(3))
        assert rotation_error(a, b) == pytest.approx(90.0, abs=1e-6)

    def test_rotation_error_matches_trace_oracle(self, rng):
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            expected = rotation_angle_from_trace(
                a.rotation.rotation_matrix(), b.rotation.rotation_matrix()
            )
            assert rotation_error(a, b) == pytest.approx(expected, abs=1e-6)

    def test_rotation_error_range_and_symmetry(self, rng):
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            e = rotation_error(a, b)
            assert 0.0 <= e <= 180.0
            assert rotation_error(b, a) == e

    def test_rotation_error_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = (random_pose(rng) for _ in range(3))
            assert rotation_error(a, c) <= rotation_error(a, b) + rotation_error(b, c) + 1e-6


class TestTransformPoint:
    def test_identity(self, rng):
        x = rng.normal(size=3)
        assert np.allclose(transform_point(Pose.identity(), x), x)

    def test_pure_translation(self):
        p = Pose(UnitQuaternion.identity(), np.array([1.0, -2.0, 0.5]))
        assert np.allclose(transform_point(p, [1, 1, 1]), [2.0, -1.0, 1.5])

    def test_matches_homogeneous_oracle(self, rng):
        for _ in range(50):
            p = random_pose(rng)
            x = rng.uniform(-5, 5, size=3)
            xh = np.append(x, 1.0)
            q = p.rotation
            expected = (homogeneous(q.w, q.x, q.y, q.z, p.translation) @ xh)[:3]
            assert np.allclose(transform_point(p, x), expected, atol=1e-12)

    def test_batched_agrees_with_single(self, rng):
        p = random_pose(rng)
        xs = rng.uniform(-5, 5, size=(20, 3))
        batched = transform_points(p, xs)
        for i in range(20):
            assert np.allclose(batched[i], transform_point(p, xs[i]), atol=1e-12)


class TestIntrinsics:
    def test_fov_90_256(self):
        k = intrinsics_from_fov(90.0, 256, 256)
        assert k.fx == pytest.approx(128.0)
        assert k.fy == pytest.approx(128.0)
        assert k.cx == pytest.approx(127.5)
        assert k.cy == pytest.approx(127.5)

    def test_fov_90_512(self):
        assert intrinsics_from_fov(90.0, 512, 512).fx == pytest.approx(256.0)

    def test_fov_60_256(self):
        # (256/2) / tan(30 deg), computed independently
        expected = 128.0 / math.tan(math.radians(30.0))
        k = intrinsics_from_fov(60.0, 256, 256)
        assert k.fx == pytest.approx(expected)
        assert k.fx == pytest.approx(221.70, abs=0.01)

    @pytest.mark.parametrize("fov", [0.0, -10.0, 180.0, 200.0])
    def test_fov_out_of_range(self, fov):
        with pytest.raises(ValueError):
            intrinsics_from_fov(fov, 256, 256)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(-1.0, 1.0, 0.0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            CameraIntrinsics(1.0, 1.0, 20.0, 0.0, 10, 10)


class TestBackproject:
    def setup_method(self):
        self.k = intrinsics_from_fov(90.0, 256, 256)

    def test_principal_point(self):
        p = backproject((self.k.cx, self.k.cy), 2.0, self.k)
        assert np.allclose(p, [0.0, 0.0, 2.0])

    def test_45_degree_ray(self):
        p = backproject((self.k.cx + self.k.fx, self.k.cy), 1.0, self.k)
        assert np.allclose(p, [1.0, 0.0, 1.0])

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            backproject((10.0, 10.0), 0.0, self.k)
        with pytest.raises(ValueError):
            backproject((10.0, 10.0), -1.0, self.k)

    def test_project_round_trip(self, rng):
        for _ in range(300):
            px = rng.uniform(0, 255, size=2)
            depth = rng.uniform(0.1 + 1e-9, 10.0)
            back = project(backproject(px, depth, self.k), self.k)
            assert np.linalg.norm(back - px) < 1e-6


class TestPoseText:
    def test_format(self):
        line = pose_to_text(Pose.identity())
        assert line.split() == ["0", "0", "0", "1", "0", "0", "0"]

    def test_round_trip_exact(self, rng):
        for _ in range(50):
            p = random_pose(rng)
            p2 = pose_from_text(pose_to_text(p))
            assert np.array_equal(p.translation, p2.translation)
            assert (p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z) == (
                p2.rotation.w,
                p2.rotation.x,
                p2.rotation.y,
                p2.rotation.z,
            )

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            pose_from_text("1 2 3")
