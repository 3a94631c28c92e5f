from __future__ import annotations

import math
import threading

import numpy as np
import pytest
from hypothesis import strategies as st

from pointloc.dataset import (
    GenerationParams,
    PointGroup,
    _scene_seed,
    generate_point_frames,
)
from pointloc.geometry import CameraIntrinsics, Pose, UnitQuaternion
from pointloc.scene import SceneModel, generate_point_grid, generate_scene

# --- geometry and dataset helpers only tests use ------------------------------


def from_axis_angle(axis, angle_rad: float) -> UnitQuaternion:
    axis = np.asarray(axis, dtype=np.float64)
    n = float(np.linalg.norm(axis))
    if n == 0.0:
        raise ValueError("axis must be nonzero")
    half = 0.5 * angle_rad
    s = math.sin(half) / n
    return UnitQuaternion(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


def quaternion_dot(a: UnitQuaternion, b: UnitQuaternion) -> float:
    return a.w * b.w + a.x * b.x + a.y * b.y + a.z * b.z


def pose_matrix(p: Pose) -> np.ndarray:
    """The 4x4 homogeneous matrix of a pose."""
    m = np.eye(4, dtype=np.float64)
    m[:3, :3] = p.rotation.rotation_matrix()
    m[:3, 3] = p.translation
    return m


def inverse(p: Pose) -> Pose:
    q = UnitQuaternion(p.rotation.w, -p.rotation.x, -p.rotation.y, -p.rotation.z)
    return Pose(q, -q.rotate(p.translation))


def transform_point(p: Pose, x) -> np.ndarray:
    return p.rotation.rotate(x) + p.translation


def project(point, k: CameraIntrinsics) -> np.ndarray:
    """Project a camera-frame point to pixel coordinates (u, v)."""
    x, y, z = float(point[0]), float(point[1]), float(point[2])
    if z <= 0.0:
        raise ValueError("point must be in front of the camera (z > 0)")
    return np.array([k.fx * x / z + k.cx, k.fy * y / z + k.cy])


def camera_yaw(pose: Pose) -> float:
    """Yaw (radians in [0, 2pi)) of an upright camera pose."""
    forward = pose.rotation.rotation_matrix()[:, 2]
    return float(math.atan2(forward[1], forward[0]) % (2.0 * math.pi))


def generate_scene_dataset(
    seed: int, params: GenerationParams, scene_index: int = 0
) -> tuple[SceneModel, list[PointGroup]]:
    """One scene and all its point groups in memory, as generate_dataset_to_dir
    renders them."""
    scene = generate_scene(_scene_seed(seed, scene_index), params.scene)
    grid = generate_point_grid(scene, params.grid_spacing, params.camera_height)
    return scene, [generate_point_frames(scene, gp, params, seed, scene_index) for gp in grid]


# --- hypothesis strategies and fixtures ---------------------------------------


finite_component = st.floats(
    min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def quaternions(draw):
    w = draw(finite_component)
    x = draw(finite_component)
    y = draw(finite_component)
    z = draw(finite_component)
    if w * w + x * x + y * y + z * z < 1e-6:
        w = 1.0
    return UnitQuaternion(w, x, y, z)


@st.composite
def poses(draw):
    q = draw(quaternions())
    t = np.array([draw(st.floats(-20, 20)) for _ in range(3)])
    return Pose(q, t)


def random_pose(rng: np.random.Generator) -> Pose:
    v = rng.normal(size=4)
    while np.linalg.norm(v) < 1e-3:
        v = rng.normal(size=4)
    q = UnitQuaternion(*v)
    return Pose(q, rng.uniform(-5.0, 5.0, size=3))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def assert_each_rejected(tmp_path):
    """check(load, blobs, error, may_load=False): load(path) raises
    ``error`` on the file holding each blob, or with may_load returns, all
    blobs within 30 s."""

    def check(load, blobs, error, may_load=False):
        outcomes = []

        def run():
            for blob in blobs:
                (tmp_path / "bad.bin").write_bytes(blob)
                try:
                    load(tmp_path / "bad.bin")
                    outcomes.append(None)
                except Exception as e:  # checked below
                    outcomes.append(e)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), f"still loading after 30 s ({len(outcomes)} done)"
        assert len(outcomes) == len(blobs)
        for i, outcome in enumerate(outcomes):
            if not (may_load and outcome is None):
                assert isinstance(outcome, error), (i, outcome)

    return check
