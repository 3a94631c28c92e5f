"""RGB-D-instance rendering of box scenes by per-pixel raycasting.

Rays are cast with unit z-component in the camera frame, so the slab-test ray
parameter is directly the z-depth.  Every surface gets a deterministic
hash-based cell texture anchored to world coordinates, which makes frames
corner-rich and view-consistent for feature matching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from pointloc.geometry import CameraIntrinsics, Pose
from pointloc.scene import SceneModel

DEPTH_MAX = 10.0
DEPTH_LEVELS = 65535  # depth level n is z-depth n / DEPTH_LEVELS * DEPTH_MAX
BACKGROUND_RGB = (11, 11, 14)

AMBIENT = 0.5
DIFFUSE = 0.5
_LIGHT_DIR = np.array([0.42, 0.24, -0.88])
_LIGHT_DIR = _LIGHT_DIR / np.linalg.norm(_LIGHT_DIR)

# The wide brightness/contrast ranges are deliberate: regions differ strongly
# in how many cell junctions clear the corner detector's threshold, and that
# regional variation is what makes global embeddings tell views apart.
# Key poses keep a clearance from obstacles (scene.SceneParams), so no
# database view degenerates to a single up-close texture cell.
TEXTURE_CELLS = (0.15, 0.2, 0.25, 0.3, 0.4)  # meters; picked per face
TEXTURE_MIN = 0.55
TEXTURE_SPAN = 0.45
TEXTURE_COARSE_CELL = 1.0  # meters, coarse layer (regional identity)
TEXTURE_COARSE_MIN = 0.55
TEXTURE_COARSE_SPAN = 0.45


@dataclass(frozen=True)
class Frame:
    """One rendered RGB-D observation with instance labels and its true pose.

    depth is a uint16 raster of z-depth levels: level n is n / DEPTH_LEVELS
    of DEPTH_MAX (10 m), and DEPTH_LEVELS means >= 10 m or no hit.  instances
    holds box instance ids, 0 for background; rendering fills it, and frames
    read from disk carry None, since localization never uses it.  pose is
    camera-to-world.
    """

    rgb: np.ndarray
    depth: np.ndarray
    instances: np.ndarray | None
    pose: Pose
    point_id: int
    frame_id: int
    is_database: bool

    def __post_init__(self) -> None:
        for arr in (self.rgb, self.depth, self.instances):
            if arr is not None:
                arr.setflags(write=False)
        if self.depth.dtype != np.uint16:
            raise ValueError(f"depth must be a uint16 raster of levels, not {self.depth.dtype}")
        if self.rgb.shape[:2] != self.depth.shape or (
            self.instances is not None and self.instances.shape != self.depth.shape
        ):
            raise ValueError("rasters must share dimensions")


def _mix(state: np.ndarray, channel) -> np.ndarray:
    """One SplitMix64-style round of `_hash01`, in place on `state`."""
    state += channel
    state += np.uint64(0x9E3779B97F4A7C15)
    state ^= state >> np.uint64(30)
    state *= np.uint64(0xBF58476D1CE4E5B9)
    state ^= state >> np.uint64(27)
    state *= np.uint64(0x94D049BB133111EB)
    state ^= state >> np.uint64(31)
    return state


def _to01(state: np.ndarray) -> np.ndarray:
    """The top 53 bits of hash states as floats in [0, 1)."""
    out = (state >> np.uint64(11)).astype(np.float64)
    out *= 2.0**-53
    return out


def _hash01(*channels: np.ndarray) -> np.ndarray:
    """SplitMix64-style hash of uint64 arrays, mapped to [0, 1)."""
    state = np.zeros(np.broadcast(*channels).shape, dtype=np.uint64)
    for c in channels:
        _mix(state, c)
    return _to01(state)


@lru_cache(maxsize=8)
def _camera_rays(k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel ray directions (du, dv) in the camera frame, as read-only
    (height, width) rasters; dz is 1."""
    u = ((np.arange(k.width) - k.cx) / k.fx).astype(np.float32)
    v = ((np.arange(k.height) - k.cy) / k.fy).astype(np.float32)
    rays = np.meshgrid(u, v)
    for a in rays:
        a.setflags(write=False)
    return tuple(rays)


NEAR_T = 1e-6  # a ray hits a box only where it enters beyond this z-depth
FOOTPRINT_MARGIN = 2  # pixels added on each side of a box's projected footprint

# corner c of a box takes the max corner on axis a when bit a of c is set;
# an edge joins two corners that differ in one bit
_CORNER_BITS = np.array([[(c >> a) & 1 for a in range(3)] for c in range(8)], dtype=bool)
_EDGES = np.array([(c, c | 1 << a) for c in range(8) for a in range(3) if not (c >> a) & 1])


def _footprints(lo: np.ndarray, hi: np.ndarray, rotation: np.ndarray, k: CameraIntrinsics):
    """Half-open pixel windows (v0, v1, u0, u1), one per box, that hold every
    pixel whose ray can hit the box; an empty window means none can.

    lo and hi are the (n, 3) box corners relative to the camera centre, the
    values the slab test uses.  The part of a box in front of the near plane
    z = NEAR_T is a convex polytope whose vertices are the box corners on that
    side and the crossings of the box edges with the plane; its projection
    lies in the bounding rectangle of theirs.  A box that straddles the camera
    plane thus gets its clipped footprint.  The float32 slab test strays from
    the exact ray by a small multiple of float32 epsilon, far below the margin.
    """
    corners = np.where(_CORNER_BITS, hi[:, None, :], lo[:, None, :]) @ rotation
    a, b = corners[:, _EDGES[:, 0]], corners[:, _EDGES[:, 1]]
    crosses = (a[..., 2] < NEAR_T) != (b[..., 2] < NEAR_T)
    s = np.divide(
        NEAR_T - a[..., 2], b[..., 2] - a[..., 2], out=np.zeros(crosses.shape), where=crosses
    )
    vertices = np.concatenate([corners, a + s[..., None] * (b - a)], axis=1)
    vertices[:, 8:, 2] = NEAR_T
    keep = np.concatenate([corners[..., 2] >= NEAR_T, crosses], axis=1)
    z = np.where(keep, vertices[..., 2], 1.0)
    windows = []
    for axis, f, c, size in ((1, k.fy, k.cy, k.height), (0, k.fx, k.cx, k.width)):
        p = f * vertices[..., axis] / z + c
        first = np.floor(np.where(keep, p, np.inf).min(axis=1)) - FOOTPRINT_MARGIN
        last = np.ceil(np.where(keep, p, -np.inf).max(axis=1)) + FOOTPRINT_MARGIN
        windows += [np.clip(first, 0, size), np.clip(last + 1, 0, size)]
    return np.stack(windows, axis=1).astype(np.int64)


def render(scene: SceneModel, pose: Pose, k: CameraIntrinsics) -> Frame:
    """Raycast all scene boxes from the given camera-to-world pose.

    Each box's float32 slab test runs only inside its screen footprint
    (`_footprints`).  Every operation is elementwise, so a pixel's values are
    those of testing every box at every pixel.

    A hit pixel's colour is a pure function of its key: the hit box and face
    and the fine and coarse texture cells it falls in.  Shading therefore
    runs once per run of equal keys among the hit pixels in raster order,
    and each run's colour is repeated over its pixels.  The per-run floats
    come from the same inputs by the same operations as a per-pixel pass, so
    the frame is bit for bit the one shading every pixel would give.
    """
    boxes = scene.all_boxes()
    rotation = pose.rotation.rotation_matrix()
    r = rotation.astype(np.float32)
    du, dv = _camera_rays(k)
    # world-space direction components, z-depth parameterization preserved
    d = [du * r[a, 0] + dv * r[a, 1] + r[a, 2] for a in range(3)]
    origin = pose.translation.astype(np.float32)

    inv = []
    for a in range(3):
        comp = d[a]
        tiny = np.abs(comp) < 1e-12
        if tiny.any():
            comp = np.where(tiny, np.where(comp < 0, -1e-12, 1e-12).astype(np.float32), comp)
        inv.append(np.float32(1.0) / comp)

    # float32 box corners relative to the camera, as every pixel's test sees them
    lo = np.array([b.min_corner for b in boxes], dtype=np.float32) - origin
    hi = np.array([b.max_corner for b in boxes], dtype=np.float32) - origin
    shape = (k.height, k.width)
    best_t = np.full(shape, np.inf, dtype=np.float32)
    best_box = np.full(shape, -1, dtype=np.int16)
    best_axis = np.zeros(shape, dtype=np.int8)
    for i, (v0, v1, u0, u1) in enumerate(_footprints(lo, hi, rotation, k)):
        if v0 >= v1 or u0 >= u1:
            continue
        win = (slice(v0, v1), slice(u0, u1))
        t_lo = []
        t_hi = []
        for a in range(3):
            t1 = inv[a][win] * lo[i, a]
            t2 = inv[a][win] * hi[i, a]
            t_lo.append(np.minimum(t1, t2))
            t_hi.append(np.maximum(t1, t2))
        t_enter = np.maximum(np.maximum(t_lo[0], t_lo[1]), t_lo[2])
        t_exit = np.minimum(np.minimum(t_hi[0], t_hi[1]), t_hi[2])
        win_t = best_t[win]
        hit = (t_enter <= t_exit) & (t_enter > np.float32(NEAR_T)) & (t_enter < win_t)
        if not hit.any():
            continue
        t_hit = t_enter[hit]
        win_t[hit] = t_hit
        best_box[win][hit] = i
        best_axis[win][hit] = np.where(
            t_hit == t_lo[0][hit], 0, np.where(t_hit == t_lo[1][hit], 1, 2)
        )

    hit_mask = best_box >= 0
    depth = np.ones(shape)
    np.divide(best_t, DEPTH_MAX, out=depth, where=hit_mask, dtype=np.float64)
    np.minimum(depth, 1.0, out=depth)
    depth *= DEPTH_LEVELS
    np.round(depth, out=depth)

    instances = np.zeros(shape, dtype=np.uint16)
    rgb = np.empty((*shape, 3), dtype=np.uint8)
    # Hit pixels are gathered and scattered by boolean mask on raveled
    # rasters: numpy copies the long runs of True a hit mask has as blocks,
    # far faster than by index lists, and rows of 2-D arrays slower still.
    hit = hit_mask.reshape(-1)
    pixels = rgb.view("V3").reshape(-1)  # one 3-byte item per pixel
    pixels[~hit] = np.array(BACKGROUND_RGB, dtype=np.uint8).view("V3")

    if hit.any():
        t = best_t.reshape(-1)[hit]
        box_idx = best_box.reshape(-1)[hit]
        axis = best_axis.reshape(-1)[hit]

        ids = np.array([b.instance_id for b in boxes], dtype=np.uint16)
        albedos = np.array([b.albedo for b in boxes], dtype=np.float64)
        instances.reshape(-1)[hit] = ids.take(box_idx)

        d_hit = [c.reshape(-1)[hit] for c in d]
        px, py, pz = (origin[a] + t * d_hit[a] for a in range(3))
        # face f = 2 * axis + (normal sign > 0); the normal opposes the ray
        # along the entry axis
        on_x, on_z = axis == 0, axis == 2
        d_axis = np.where(on_x, d_hit[0], np.where(on_z, d_hit[2], d_hit[1]))
        bf = box_idx.astype(np.int32) * 6 + axis * 2 + ~(d_axis > 0)
        # the two in-face coordinates
        cu = np.where(on_x, py, px)
        cv = np.where(on_z, py, pz)

        # the texture cell size and the Lambert shade depend on (box, face) only
        faces = np.arange(6)
        cell_sizes = np.asarray(TEXTURE_CELLS)
        cell_table = cell_sizes[
            (
                _hash01(faces.astype(np.uint64) + np.uint64(7), ids.astype(np.uint64)[:, None])
                * len(cell_sizes)
            ).astype(np.intp)
        ].reshape(-1)
        lambert = -(np.where(faces % 2 == 1, 1.0, -1.0) * _LIGHT_DIR[faces // 2])
        shade_table = AMBIENT + DIFFUSE * np.maximum(0.0, lambert)  # n . (-light)

        # two-scale blocky value noise in the two in-face coordinates.  The
        # fine layer makes corner features; its cell size is face-specific and
        # its contrast varies per coarse cell, so different wall regions have
        # distinct descriptor statistics.  The coarse layer adds a brightness
        # signature that gives whole views a retrievable identity.
        cell = cell_table.take(bf)
        key = [bf, cu / cell, cv / cell, cu / TEXTURE_COARSE_CELL, cv / TEXTURE_COARSE_CELL]
        for channel in key[1:]:
            np.floor(channel, out=channel)
        # a pixel's colour is a function of its key alone: shade one pixel
        # per run of equal keys, the run's first
        starts = np.zeros(len(t), dtype=bool)
        starts[0] = True
        for channel in key:
            starts[1:] |= channel[1:] != channel[:-1]
        first = np.flatnonzero(starts)
        box, face = np.divmod(bf.take(first), 6)
        cell_u, cell_v, coarse_u, coarse_v = (
            c.take(first).astype(np.int64).view(np.uint64) for c in key[1:]
        )
        face_code = face.astype(np.uint64)
        box_code = ids.take(box).astype(np.uint64)

        # both coarse hashes start with the same two channel rounds
        coarse = _mix(_mix(np.zeros(len(first), dtype=np.uint64), coarse_u), coarse_v)
        contrast = _to01(_mix(_mix(coarse.copy(), face_code + np.uint64(53)), box_code))
        contrast *= 0.6
        contrast += 0.4
        tex = _hash01(cell_u, cell_v, face_code, box_code)
        tex -= 0.5
        tex *= contrast
        tex += 0.5
        tex *= TEXTURE_SPAN
        tex += TEXTURE_MIN
        bright = _to01(_mix(_mix(coarse, face_code + np.uint64(101)), box_code))
        bright *= TEXTURE_COARSE_SPAN
        bright += TEXTURE_COARSE_MIN
        tex *= bright
        tex *= shade_table.take(face)

        color = albedos.reshape(-1).take(box[:, None] * 3 + np.arange(3))
        color *= tex[:, None]
        color *= 255.0
        np.round(color, out=color)
        np.clip(color, 0, 255, out=color)
        run_colors = color.astype(np.uint8).view("V3").reshape(-1)
        pixels[hit] = np.repeat(run_colors, np.diff(first, append=len(t)))

    return Frame(
        rgb=rgb,
        depth=depth.astype(np.uint16),
        instances=instances,
        pose=pose,
        point_id=-1,
        frame_id=-1,
        is_database=False,
    )


def add_rgb_noise(frame: Frame, factor: float = 0.02, seed=0) -> Frame:
    """Additive Gaussian pixel noise: v + round(255 * factor * N(0, 1)), clamped.

    seed may be an int or a numpy SeedSequence; every call with the same seed
    produces the same raster.
    """
    if not factor >= 0:
        raise ValueError("noise factor must be >= 0")
    if factor == 0:
        return frame
    noise = np.random.default_rng(seed).standard_normal(frame.rgb.shape)
    noise *= 255.0 * factor
    np.round(noise, out=noise)
    # past +-255 every sum clamps alike, and the rest fits int16
    np.clip(noise, -255, 255, out=noise)
    noisy = frame.rgb.astype(np.int16)
    noisy += noise.astype(np.int16)
    np.clip(noisy, 0, 255, out=noisy)
    return replace(frame, rgb=noisy.astype(np.uint8))
