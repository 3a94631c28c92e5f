"""SE(3) poses, pose error metrics, and the pinhole camera model.

Conventions shared by the whole repo:

* World frame: x/y horizontal, z up.
* Camera frame: +z forward (optical axis), +x right, +y down.
* Pixel (0, 0) is the top-left pixel; u grows right, v grows down.
* Depth is z-depth (distance along the optical axis), not ray length.
* Stored poses are camera-to-world: ``transform_points(pose, p_cam) == p_world``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnitQuaternion",
    "Pose",
    "CameraIntrinsics",
    "compose",
    "translation_error",
    "rotation_error",
    "transform_points",
    "intrinsics_from_fov",
    "backproject",
    "pose_to_text",
    "pose_from_text",
]


@dataclass(frozen=True)
class UnitQuaternion:
    """Unit quaternion (w, x, y, z), renormalized and canonicalized on construction.

    Canonical hemisphere: w >= 0.  When w == 0 exactly, the first nonzero
    vector component is made positive, so q and -q always store the same values.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if n < 1e-12 or not math.isfinite(n):
            raise ValueError(f"cannot normalize quaternion with norm {n}")
        if abs(n - 1.0) <= 1e-12:
            # already unit: keep components bit-stable so negation and text
            # round trips are exact
            w, x, y, z = float(self.w), float(self.x), float(self.y), float(self.z)
        else:
            w, x, y, z = self.w / n, self.x / n, self.y / n, self.z / n
        if w < 0.0 or (w == 0.0 and _leading_component_negative(x, y, z)):
            w, x, y, z = -w, -x, -y, -z
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @staticmethod
    def identity() -> "UnitQuaternion":
        return UnitQuaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_rotation_matrix(r: np.ndarray) -> "UnitQuaternion":
        """Shepperd's method; r must be a proper rotation matrix."""
        r = np.asarray(r, dtype=np.float64)
        t = r[0, 0] + r[1, 1] + r[2, 2]
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            return UnitQuaternion(
                0.25 * s,
                (r[2, 1] - r[1, 2]) / s,
                (r[0, 2] - r[2, 0]) / s,
                (r[1, 0] - r[0, 1]) / s,
            )
        if r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
            s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
            return UnitQuaternion(
                (r[2, 1] - r[1, 2]) / s,
                0.25 * s,
                (r[0, 1] + r[1, 0]) / s,
                (r[0, 2] + r[2, 0]) / s,
            )
        if r[1, 1] >= r[2, 2]:
            s = math.sqrt(1.0 - r[0, 0] + r[1, 1] - r[2, 2]) * 2.0
            return UnitQuaternion(
                (r[0, 2] - r[2, 0]) / s,
                (r[0, 1] + r[1, 0]) / s,
                0.25 * s,
                (r[1, 2] + r[2, 1]) / s,
            )
        s = math.sqrt(1.0 - r[0, 0] - r[1, 1] + r[2, 2]) * 2.0
        return UnitQuaternion(
            (r[1, 0] - r[0, 1]) / s,
            (r[0, 2] + r[2, 0]) / s,
            (r[1, 2] + r[2, 1]) / s,
            0.25 * s,
        )

    def multiply(self, other: "UnitQuaternion") -> "UnitQuaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return UnitQuaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ],
            dtype=np.float64,
        )

    def rotate(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        q = np.array([self.x, self.y, self.z])
        t = 2.0 * np.cross(q, v)
        return v + self.w * t + np.cross(q, t)


def _leading_component_negative(x: float, y: float, z: float) -> bool:
    for c in (x, y, z):
        if c != 0.0:
            return c < 0.0
    return False


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform: rotation (unit quaternion) followed by translation in meters."""

    rotation: UnitQuaternion
    translation: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.translation, dtype=np.float64).reshape(3)
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return self.rotation == other.rotation and bool(
            np.array_equal(self.translation, other.translation)
        )

    def __hash__(self):
        return hash((self.rotation, tuple(self.translation)))

    @staticmethod
    def identity() -> "Pose":
        return Pose(UnitQuaternion.identity(), np.zeros(3))


def compose(a: Pose, b: Pose) -> Pose:
    """Pose applying b first, then a (matrix product a @ b)."""
    q = a.rotation.multiply(b.rotation)
    t = a.rotation.rotate(b.translation) + a.translation
    return Pose(q, t)


def translation_error(a: Pose, b: Pose) -> float:
    """Euclidean distance between the two translations, meters."""
    return float(np.linalg.norm(a.translation - b.translation))


def rotation_error(a: Pose, b: Pose) -> float:
    """Geodesic angle between the two rotations, degrees, in [0, 180].

    Mathematically 2 * acos(|<q_a, q_b>|), evaluated through the identity
    2 * acos(d) == 4 * asin(||q_a -/+ q_b|| / 2): the quaternion difference is
    exact for nearby rotations, so tiny angles come out at full precision
    instead of being buried in the ~1e-8 rounding floor of acos near 1.
    """
    qa, qb = a.rotation, b.rotation
    diff = math.sqrt(
        (qa.w - qb.w) ** 2 + (qa.x - qb.x) ** 2 + (qa.y - qb.y) ** 2 + (qa.z - qb.z) ** 2
    )
    summ = math.sqrt(
        (qa.w + qb.w) ** 2 + (qa.x + qb.x) ** 2 + (qa.y + qb.y) ** 2 + (qa.z + qb.z) ** 2
    )
    s = min(diff, summ)  # pick the hemisphere where |dot| = 1 - s^2/2
    return math.degrees(4.0 * math.asin(min(1.0, 0.5 * s)))


def transform_points(p: Pose, xs: np.ndarray) -> np.ndarray:
    """Apply pose to an (n, 3) array of points."""
    xs = np.asarray(xs, dtype=np.float64)
    r = p.rotation.rotation_matrix()
    return xs @ r.T + p.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels.  Principal point uses the pixel-center
    convention, so a w x h sensor has cx = (w - 1) / 2."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def intrinsics_from_fov(fov_deg: float, width: int, height: int) -> CameraIntrinsics:
    """Square-pixel intrinsics from a horizontal field of view in degrees."""
    if not 0.0 < fov_deg < 180.0:
        raise ValueError(f"fov must be in (0, 180) degrees, got {fov_deg}")
    f = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return CameraIntrinsics(f, f, (width - 1) / 2.0, (height - 1) / 2.0, width, height)


def backproject(pixel, depth: float, k: CameraIntrinsics) -> np.ndarray:
    """Lift pixel (u, v) at z-depth ``depth`` (meters) into the camera frame."""
    if depth <= 0.0:
        raise ValueError(f"invalid depth {depth}; must be > 0")
    u, v = float(pixel[0]), float(pixel[1])
    return np.array([depth * (u - k.cx) / k.fx, depth * (v - k.cy) / k.fy, depth])


def pose_to_text(p: Pose) -> str:
    """One line: tx ty tz qw qx qy qz, full float64 precision."""
    vals = [*p.translation, p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z]
    return " ".join(f"{v:.17g}" for v in vals)


def pose_from_text(line: str) -> Pose:
    parts = line.split()
    if len(parts) != 7:
        raise ValueError(f"expected 7 fields 'tx ty tz qw qx qy qz', got {len(parts)}")
    vals = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"pose {line!r} has a non-finite value")
    return Pose(UnitQuaternion(vals[3], vals[4], vals[5], vals[6]), np.array(vals[:3]))
