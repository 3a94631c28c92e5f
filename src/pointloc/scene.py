"""Procedural indoor scenes built from axis-aligned boxes.

A scene is a rectangular room (floor extent + wall height) holding
furniture-like obstacle boxes.  Floor, ceiling and the four walls are derived
deterministically from the extent, so only the obstacles are stored.
Structural surfaces carry reserved instance ids 1..6; obstacles start at 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pointloc.geometry import Pose, UnitQuaternion

FLOOR_ID, CEILING_ID = 1, 2
WALL_IDS = (3, 4, 5, 6)
FIRST_OBSTACLE_ID = 7

CATEGORY_FLOOR, CATEGORY_CEILING, CATEGORY_WALL = 1, 2, 3
FIRST_FURNITURE_CATEGORY = 4
FURNITURE_CATEGORY_COUNT = 6

_SLAB = 0.2  # thickness of the floor/ceiling slabs

_STRUCTURE_ALBEDO = {
    FLOOR_ID: (0.55, 0.52, 0.48),
    CEILING_ID: (0.88, 0.88, 0.84),
    WALL_IDS[0]: (0.78, 0.74, 0.70),
    WALL_IDS[1]: (0.72, 0.76, 0.70),
    WALL_IDS[2]: (0.74, 0.70, 0.78),
    WALL_IDS[3]: (0.70, 0.76, 0.78),
}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with rendering attributes."""

    min_corner: tuple[float, float, float]
    max_corner: tuple[float, float, float]
    instance_id: int
    category_id: int
    albedo: tuple[float, float, float]

    def __post_init__(self) -> None:
        if not all(lo < hi for lo, hi in zip(self.min_corner, self.max_corner)):
            raise ValueError("box min corner must be strictly below max corner")
        if self.instance_id < 1:
            raise ValueError("instance ids start at 1")

    def contains(self, p) -> bool:
        return all(
            self.min_corner[i] <= p[i] <= self.max_corner[i] for i in range(3)
        )


@dataclass(frozen=True)
class SceneParams:
    floor_width: float = 12.0
    floor_depth: float = 12.0
    wall_height: float = 3.0
    wall_thickness: float = 0.3
    min_obstacles: int = 8
    max_obstacles: int = 14
    min_box_size: float = 0.4
    max_box_size: float = 1.2
    tall_fraction: float = 0.35
    # obstacles keep this Euclidean distance from the key-pose grid nodes, so
    # database cameras never stare at a wall of texture from a few centimeters
    keypose_spacing: float = 2.0
    keypose_clearance: float = 0.7


@dataclass(frozen=True)
class SceneModel:
    seed: int
    floor_extent: tuple[float, float, float, float]  # x_min, x_max, y_min, y_max
    obstacles: tuple[Box, ...]
    wall_height: float
    wall_thickness: float = 0.3

    def structure_boxes(self) -> tuple[Box, ...]:
        """Floor, ceiling and four wall boxes derived from the extent."""
        x0, x1, y0, y1 = self.floor_extent
        tw, h = self.wall_thickness, self.wall_height
        ox0, ox1, oy0, oy1 = x0 - tw, x1 + tw, y0 - tw, y1 + tw

        def box(instance, category, lo, hi):
            return Box(lo, hi, instance, category, _STRUCTURE_ALBEDO[instance])

        return (
            box(FLOOR_ID, CATEGORY_FLOOR, (ox0, oy0, -_SLAB), (ox1, oy1, 0.0)),
            box(CEILING_ID, CATEGORY_CEILING, (ox0, oy0, h), (ox1, oy1, h + _SLAB)),
            box(WALL_IDS[0], CATEGORY_WALL, (ox0, oy0, 0.0), (x0, oy1, h)),
            box(WALL_IDS[1], CATEGORY_WALL, (x1, oy0, 0.0), (ox1, oy1, h)),
            box(WALL_IDS[2], CATEGORY_WALL, (ox0, oy0, 0.0), (ox1, y0, h)),
            box(WALL_IDS[3], CATEGORY_WALL, (ox0, y1, 0.0), (ox1, oy1, h)),
        )

    def all_boxes(self) -> tuple[Box, ...]:
        return self.structure_boxes() + self.obstacles

    def category_of(self, instance_id: int) -> int | None:
        for b in self.all_boxes():
            if b.instance_id == instance_id:
                return b.category_id
        return None

    def is_free(self, p) -> bool:
        """True when p is strictly inside the room and outside every obstacle."""
        x0, x1, y0, y1 = self.floor_extent
        if not (x0 < p[0] < x1 and y0 < p[1] < y1 and 0.0 < p[2] < self.wall_height):
            return False
        return not any(b.contains(p) for b in self.obstacles)


def generate_scene(seed: int, params: SceneParams = SceneParams()) -> SceneModel:
    """Deterministically place non-overlapping furniture boxes in a room."""
    if params.floor_width < 6.0 or params.floor_depth < 6.0:
        raise ValueError("floor extent must be at least 6 x 6 m")
    extent = (0.0, float(params.floor_width), 0.0, float(params.floor_depth))
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xB0E5)))

    nodes = _keypose_nodes(extent, params.keypose_spacing)
    n = int(rng.integers(params.min_obstacles, params.max_obstacles + 1))
    placed: list[Box] = []
    footprints: list[tuple[float, float, float, float]] = []
    instance = FIRST_OBSTACLE_ID
    for _ in range(n):
        for _attempt in range(1000):
            w = rng.uniform(params.min_box_size, params.max_box_size)
            d = rng.uniform(params.min_box_size, params.max_box_size)
            tall = rng.uniform() < params.tall_fraction
            h = rng.uniform(1.6, params.wall_height - 0.3) if tall else rng.uniform(0.4, 1.1)
            cx = rng.uniform(extent[0] + w / 2 + 0.2, extent[1] - w / 2 - 0.2)
            cy = rng.uniform(extent[2] + d / 2 + 0.2, extent[3] - d / 2 - 0.2)
            fp = (cx - w / 2, cx + w / 2, cy - d / 2, cy + d / 2)
            if any(_footprints_overlap(fp, other, gap=0.25) for other in footprints):
                continue
            if any(
                _footprint_distance(fp, node) < params.keypose_clearance for node in nodes
            ):
                continue
            albedo = tuple(rng.uniform(0.45, 0.9, size=3).tolist())
            category = FIRST_FURNITURE_CATEGORY + int(
                rng.integers(FURNITURE_CATEGORY_COUNT)
            )
            placed.append(Box((fp[0], fp[2], 0.0), (fp[1], fp[3], h), instance, category, albedo))
            footprints.append(fp)
            instance += 1
            break
        else:
            raise RuntimeError("could not place obstacle; room too crowded")
    return SceneModel(int(seed), extent, tuple(placed), params.wall_height, params.wall_thickness)


def _footprints_overlap(a, b, gap: float = 0.0) -> bool:
    return not (
        a[1] + gap <= b[0] or b[1] + gap <= a[0] or a[3] + gap <= b[2] or b[3] + gap <= a[2]
    )


def _keypose_nodes(extent, spacing: float) -> list[tuple[float, float]]:
    """Interior grid nodes (the candidate key-pose positions)."""
    x0, x1, y0, y1 = extent
    xs = [x0 + i * spacing for i in range(1, int(math.ceil((x1 - x0) / spacing)))]
    ys = [y0 + j * spacing for j in range(1, int(math.ceil((y1 - y0) / spacing)))]
    return [(x, y) for x in xs for y in ys if x0 < x < x1 and y0 < y < y1]


def _footprint_distance(fp, node) -> float:
    """Euclidean distance from a point to an axis-aligned footprint."""
    dx = max(fp[0] - node[0], 0.0, node[0] - fp[1])
    dy = max(fp[2] - node[1], 0.0, node[1] - fp[3])
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class GridPoint:
    point_id: int
    position: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.position, dtype=np.float64).reshape(3)
        p.setflags(write=False)
        object.__setattr__(self, "position", p)


def grid_candidates(scene: SceneModel, spacing: float) -> list[np.ndarray]:
    """Grid nodes over the closed floor extent, before any collision filtering."""
    x0, x1, y0, y1 = scene.floor_extent
    xs = [x0 + i * spacing for i in range(int(math.floor((x1 - x0) / spacing + 1e-9)) + 1)]
    ys = [y0 + j * spacing for j in range(int(math.floor((y1 - y0) / spacing + 1e-9)) + 1)]
    return [np.array([x, y, 0.0]) for y in ys for x in xs]


def generate_point_grid(
    scene: SceneModel, spacing: float = 2.0, camera_height: float = 1.25
) -> list[GridPoint]:
    """Regular grid of key-pose positions at camera height; positions inside
    obstacles or outside the walls are discarded."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    points = []
    for cand in grid_candidates(scene, spacing):
        pos = np.array([cand[0], cand[1], camera_height])
        if scene.is_free(pos):
            points.append(GridPoint(len(points), pos))
    return points


def camera_pose(position, yaw: float) -> Pose:
    """Upright camera-to-world pose looking along yaw (radians, world x toward 0).

    Camera axes in world coordinates: forward (+z_cam) horizontal along yaw,
    right (+x_cam) to its right, down (+y_cam) toward the floor.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    r = np.array(
        [
            [s, 0.0, c],
            [-c, 0.0, s],
            [0.0, -1.0, 0.0],
        ]
    )
    return Pose(UnitQuaternion.from_rotation_matrix(r), np.asarray(position, dtype=np.float64))


# --- scene text serialization -------------------------------------------------


_SCENE_FORMAT = "pointloc-scene-v1"
_SCENE_KEYS = ("format", "seed", "floor_extent", "wall_height", "wall_thickness")


def scene_to_text(scene: SceneModel) -> str:
    lines = [
        f"format = {_SCENE_FORMAT}",
        f"seed = {scene.seed}",
        "floor_extent = " + " ".join(f"{v:.17g}" for v in scene.floor_extent),
        f"wall_height = {scene.wall_height:.17g}",
        f"wall_thickness = {scene.wall_thickness:.17g}",
    ]
    for b in scene.obstacles:
        fields = [b.instance_id, b.category_id, *b.min_corner, *b.max_corner, *b.albedo]
        lines.append("box = " + " ".join(_fmt(v) for v in fields))
    return "\n".join(lines) + "\n"


def scene_from_text(text: str) -> SceneModel:
    """Parse what scene_to_text writes.  Blank lines aside, every line is a
    known `key = value`: each of _SCENE_KEYS exactly once, and any number of
    `box` lines of 11 fields with unique obstacle ids.  Numbers must be finite,
    the extent and the heights nonempty.  Anything else raises ValueError
    naming the line."""
    values: dict[str, object] = {}
    boxes: list[Box] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        key, eq, value = (part.strip() for part in raw.partition("="))
        try:
            if not eq or key not in (*_SCENE_KEYS, "box"):
                raise ValueError("not a known 'key = value' line")
            if key == "box":
                boxes.append(_box_from_fields(value.split(), boxes))
                continue
            if key in values:
                raise ValueError(f"duplicate key {key!r}")
            if key == "format":
                if value != _SCENE_FORMAT:
                    raise ValueError(f"unknown format {value!r}")
                values[key] = value
            elif key == "seed":
                values[key] = int(value)
            elif key == "floor_extent":
                x0, x1, y0, y1 = _finite_numbers(value.split(), 4)
                if not (x0 < x1 and y0 < y1):
                    raise ValueError("empty floor extent")
                values[key] = (x0, x1, y0, y1)
            else:
                (values[key],) = _finite_numbers(value.split(), 1)
                if values[key] <= 0:
                    raise ValueError(f"{key} must be positive")
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}: {raw!r}") from None
    missing = [key for key in _SCENE_KEYS if key not in values]
    if missing:
        raise ValueError(f"scene text missing {', '.join(missing)}")
    return SceneModel(
        values["seed"],
        values["floor_extent"],
        tuple(boxes),
        values["wall_height"],
        values["wall_thickness"],
    )


def _finite_numbers(fields: list[str], count: int) -> tuple[float, ...]:
    if len(fields) != count:
        raise ValueError(f"expected {count} numbers, got {len(fields)}")
    numbers = tuple(float(f) for f in fields)
    if not all(math.isfinite(v) for v in numbers):
        raise ValueError("number not finite")
    return numbers


def _box_from_fields(fields: list[str], earlier: list[Box]) -> Box:
    """An obstacle from `instance category min_xyz max_xyz albedo_rgb`."""
    if len(fields) != 11:
        raise ValueError(f"expected 11 box fields, got {len(fields)}")
    instance, category = int(fields[0]), int(fields[1])
    if instance < FIRST_OBSTACLE_ID or any(b.instance_id == instance for b in earlier):
        raise ValueError(f"obstacle id {instance} is reserved or repeated")
    v = _finite_numbers(fields[2:], 9)
    return Box(v[0:3], v[3:6], instance, category, v[6:9])


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.17g}"
