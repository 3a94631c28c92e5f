from __future__ import annotations

import math
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from pointloc.dataset import (
    SCENE_POINT_ID_STRIDE,
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


# --- malformed dataset layouts ------------------------------------------------
# Each edit takes a dataset root and its first scene directory (the root
# itself for a single scene), breaks one layout rule, and returns the path
# the reader's error must name.  The last two keep the layout but leave the
# root's manifest.txt counting frames that are gone.


def _query_directory_without_point(root: Path, scene: Path) -> Path:
    q_dir = scene / "queries" / "99"
    q_dir.mkdir()
    (q_dir / "q_0.pose").write_text("0 0 0 1 0 0 0\n")
    return q_dir


def _scene_directory_not_numbered(root: Path, scene: Path) -> Path:
    (root / "scene_old").mkdir()
    return root / "scene_old"


def _scene_numbers_with_a_gap(root: Path, scene: Path) -> Path:
    (root / "scene_1").rename(root / "scene_2")
    return root / "scene_2"


def _scene_without_scene_file(root: Path, scene: Path) -> Path:
    (root / "scene_1" / "scene.txt").unlink()
    return root / "scene_1" / "scene.txt"


def _zero_padded_point_directory(root: Path, scene: Path) -> Path:
    point = min((scene / "points").iterdir())
    padded = point.with_name("00" + point.name)
    point.rename(padded)
    return padded


def _point_id_past_the_scene_stride(root: Path, scene: Path) -> Path:
    """Read with the offset of scene_<i>, the id would be one of scene_<i+1>'s."""
    first = min((scene / "points").iterdir(), key=lambda p: int(p.name)).name
    for kind in ("queries", "points"):
        if (scene / kind / first).exists():
            (scene / kind / first).rename(scene / kind / str(SCENE_POINT_ID_STRIDE))
    return scene / "points" / str(SCENE_POINT_ID_STRIDE)


def _query_files_deleted(root: Path, scene: Path) -> Path:
    victim = min((scene / "queries").rglob("q_*.pose"))
    for suffix in (".rgb", ".depth", ".inst", ".pose"):
        victim.with_suffix(suffix).unlink()
    return root / "manifest.txt"


def _point_deleted(root: Path, scene: Path) -> Path:
    """points/<pid> and queries/<pid> of the first Point."""
    pid = min((scene / "points").iterdir(), key=lambda p: int(p.name)).name
    shutil.rmtree(scene / "points" / pid)
    shutil.rmtree(scene / "queries" / pid, ignore_errors=True)
    return root / "manifest.txt"


# name -> (edit, the fewest scenes it applies to)
MALFORMED_LAYOUTS = {
    "query-dir-without-point": (_query_directory_without_point, 1),
    "scene-old": (_scene_directory_not_numbered, 1),
    "point-id-past-stride": (_point_id_past_the_scene_stride, 2),
    "scene-gap": (_scene_numbers_with_a_gap, 2),
    "scene-without-scene-txt": (_scene_without_scene_file, 2),
    "zero-padded-point": (_zero_padded_point_directory, 1),
    "query-files-deleted": (_query_files_deleted, 1),
    "point-deleted": (_point_deleted, 1),
}


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
