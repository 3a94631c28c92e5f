"""Point-grid dataset construction and the on-disk dataset format.

A dataset is a grid of "Points".  Each Point holds 6 database frames rendered
at the grid node covering 360 degrees (60 degree yaw steps), plus up to M
query frames sampled uniformly in a 0.5 m disk around the node with random
yaw.  Query candidates that land in occupied space are discarded, not
resampled.

Directory layout (one scene):

    manifest.txt                 key = value lines
    scene.txt                    box list
    points/<pid>/db_<k>.{rgb,depth,inst,pose}
    queries/<pid>/q_<k>.{rgb,depth,inst,pose}

rgb is binary PPM (P6, maxval 255); depth and inst are binary PGM (P5,
maxval 65535, big-endian 16-bit); pose files hold one
"tx ty tz qw qx qy qz" line.  A multi-scene dataset nests single-scene
directories under scene_0/ to scene_<N-1>/, each with its scene.txt, with an
aggregate manifest at the root; read together, the point ids of scene_<i>
are offset by i * SCENE_POINT_ID_STRIDE, so they must be below it.  Scene,
point and frame ids are canonical decimal (digits, no leading zero), and
every queries/<pid> has its points/<pid>.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from pointloc.geometry import (
    CameraIntrinsics,
    Pose,
    intrinsics_from_fov,
    pose_from_text,
    pose_to_text,
)
from pointloc.render import DEPTH_MAX, Frame, add_rgb_noise, render
from pointloc.scene import (
    GridPoint,
    SceneModel,
    SceneParams,
    camera_pose,
    generate_point_grid,
    generate_scene,
    scene_from_text,
    scene_to_text,
)

DB_FRAMES_PER_POINT = 6
YAW_STEP_DEG = 60.0
SCENE_POINT_ID_STRIDE = 100000


class DatasetFormatError(Exception):
    """Raised when a dataset directory is missing or malformed; the message
    names the offending file."""


class InvalidKeyPoseError(Exception):
    pass


@dataclass(frozen=True)
class GenerationParams:
    scenes: int = 1
    grid_spacing: float = 2.0
    queries_per_point: int = 50
    query_radius: float = 0.5
    noise_factor: float = 0.02
    fov_deg: float = 90.0
    resolution: int = 256
    camera_height: float = 1.25
    scene: SceneParams = field(default_factory=SceneParams)

    def intrinsics(self) -> CameraIntrinsics:
        return intrinsics_from_fov(self.fov_deg, self.resolution, self.resolution)


@dataclass(frozen=True)
class PointGroup:
    """The frames of one Point: tuples when generated, FrameFiles when read."""

    point_id: int
    database_frames: Sequence[Frame]
    query_frames: Sequence[Frame]

    def frames(self) -> Iterator[Frame]:
        yield from self.database_frames
        yield from self.query_frames


@dataclass(frozen=True)
class SceneSummary:
    name: str
    seed: int
    points: int
    poses: int


@dataclass(frozen=True)
class DatasetManifest:
    seed: int
    scenes: tuple[SceneSummary, ...]
    points: int
    poses: int
    categories: int
    instances: int
    maps: int
    params: GenerationParams


def generate_point_frames(
    scene: SceneModel,
    point: GridPoint,
    params: GenerationParams,
    dataset_seed: int,
    scene_index: int = 0,
) -> PointGroup:
    """Render the 6 database frames and up to M query frames of one Point.

    All randomness comes from streams keyed by (dataset seed, scene, point id,
    frame id), so output is independent of generation order.
    """
    center = np.array([point.position[0], point.position[1], params.camera_height])
    if not scene.is_free(center):
        raise InvalidKeyPoseError(f"key pose {center.tolist()} is not in free space")
    k = params.intrinsics()
    rng = np.random.default_rng(
        np.random.SeedSequence((dataset_seed, scene_index, point.point_id))
    )
    base_yaw = rng.uniform(0.0, 2.0 * math.pi)

    db_frames = []
    for i in range(DB_FRAMES_PER_POINT):
        yaw = base_yaw + math.radians(YAW_STEP_DEG) * i
        frame = render(scene, camera_pose(center, yaw), k)
        frame = replace(frame, point_id=point.point_id, frame_id=i, is_database=True)
        frame = add_rgb_noise(
            frame,
            params.noise_factor,
            np.random.SeedSequence((dataset_seed, scene_index, point.point_id, 0, i)),
        )
        db_frames.append(frame)

    query_frames = []
    for i in range(params.queries_per_point):
        for _ in range(10000):
            dx, dy = rng.uniform(-params.query_radius, params.query_radius, size=2)
            if dx * dx + dy * dy <= params.query_radius**2:
                break
        yaw = rng.uniform(0.0, 2.0 * math.pi)
        pos = center + np.array([dx, dy, 0.0])
        if not scene.is_free(pos):
            continue  # discarded, not resampled
        frame = render(scene, camera_pose(pos, yaw), k)
        frame = replace(frame, point_id=point.point_id, frame_id=i, is_database=False)
        frame = add_rgb_noise(
            frame,
            params.noise_factor,
            np.random.SeedSequence((dataset_seed, scene_index, point.point_id, 1, i)),
        )
        query_frames.append(frame)

    return PointGroup(point.point_id, tuple(db_frames), tuple(query_frames))


def generate_dataset_to_dir(
    seed: int, params: GenerationParams, directory: str | Path
) -> DatasetManifest:
    """Generate a dataset straight to disk, one point at a time.

    One scene is written into `directory` itself; params.scenes > 1 scenes
    go to scene_<i>/ under it, next to an aggregate manifest.  The directory
    must be new or empty, so no frame of an earlier dataset stays behind,
    and settings that make no dataset raise ValueError before anything is
    written.  Keeps at most one point group in memory, so full-size
    datasets (about 1 GB of rasters) generate in bounded space.
    """
    if not params.grid_spacing > 0:
        raise ValueError(f"grid_spacing must be positive, not {params.grid_spacing}")
    for key in ("queries_per_point", "query_radius", "noise_factor"):
        if not getattr(params, key) >= 0:
            raise ValueError(f"{key} must not be negative, not {getattr(params, key)}")
    params.intrinsics()  # no camera, no dataset
    directory = Path(directory)
    if directory.exists() and any(directory.iterdir()):
        raise ValueError(f"output directory {directory} is not empty")
    if params.scenes == 1:
        return _generate_scene_to_dir(seed, params, directory, 0)[0]
    generated = [
        _generate_scene_to_dir(seed, params, directory / f"scene_{s}", s)
        for s in range(params.scenes)
    ]
    manifests, categories = zip(*generated)
    combined = DatasetManifest(
        seed=seed,
        scenes=tuple(m.scenes[0] for m in manifests),
        points=sum(m.points for m in manifests),
        poses=sum(m.poses for m in manifests),
        categories=len(set().union(*categories)),  # category ids are global
        instances=sum(m.instances for m in manifests),
        maps=len(manifests),
        params=params,
    )
    (directory / "manifest.txt").write_text(manifest_to_text(combined), encoding="ascii")
    return combined


def _generate_scene_to_dir(
    seed: int, params: GenerationParams, directory: Path, scene_index: int
) -> tuple[DatasetManifest, set[int]]:
    """Write one scene; returns its manifest and the category ids its frames see."""
    scene = generate_scene(_scene_seed(seed, scene_index), params.scene)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "scene.txt").write_text(scene_to_text(scene), encoding="ascii")

    points = poses = 0
    seen_instances: set[int] = set()
    for point in generate_point_grid(scene, params.grid_spacing, params.camera_height):
        group = generate_point_frames(scene, point, params, seed, scene_index)
        points += 1
        for f in group.frames():
            write_frame(f, directory / ("points" if f.is_database else "queries") / str(f.point_id))
            seen_instances.update(int(v) for v in np.unique(f.instances) if v != 0)
            poses += 1

    categories = {scene.category_of(i) for i in seen_instances} - {None}
    manifest = DatasetManifest(
        seed=seed,
        scenes=(SceneSummary(f"scene_{scene_index}", scene.seed, points, poses),),
        points=points,
        poses=poses,
        categories=len(categories),
        instances=len(seen_instances),
        maps=1,
        params=params,
    )
    (directory / "manifest.txt").write_text(manifest_to_text(manifest), encoding="ascii")
    return manifest, categories


def _scene_seed(dataset_seed: int, scene_index: int) -> int:
    return int(
        np.random.SeedSequence((dataset_seed, 0x5CE, scene_index)).generate_state(1)[0]
    )


# --- raster files ----------------------------------------------------------------


def write_ppm(path: Path, rgb: np.ndarray) -> None:
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 255, np.uint8, (3,))


def write_pgm16(path: Path, values: np.ndarray) -> None:
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(np.ascontiguousarray(values, dtype=">u2").tobytes())


def read_pgm16(path: Path) -> np.ndarray:
    return _read_netpbm(path, b"P5", 65535, ">u2", ())


def _read_netpbm(path: Path, magic: bytes, maxval: int, dtype, channels: tuple) -> np.ndarray:
    """The raster of a binary netpbm file whose payload is exactly the
    (height, width, *channels) array its header announces."""
    try:
        with open(path, "rb") as fh:
            found = fh.readline().strip()
            fields: list[int] = []
            while len(fields) < 3:
                line = fh.readline()
                if not line:
                    raise DatasetFormatError(f"{path}: truncated netpbm header")
                for tok in line.split(b"#", 1)[0].split():
                    if not tok.isdigit():
                        raise DatasetFormatError(f"{path}: bad netpbm header token {tok!r}")
                    fields.append(int(tok))
            data = fh.read()
    except OSError as e:
        raise DatasetFormatError(f"cannot read {path}: {e}") from e
    if found != magic or len(fields) != 3 or fields[2] != maxval:
        raise DatasetFormatError(f"{path}: expected {magic.decode()} netpbm with maxval {maxval}")
    shape = (fields[1], fields[0], *channels)
    dtype = np.dtype(dtype)
    expected = math.prod(shape) * dtype.itemsize
    if len(data) != expected:
        raise DatasetFormatError(
            f"{path}: {len(data)} raster bytes, the header announces {expected}"
        )
    return np.frombuffer(data, dtype=dtype).reshape(shape)


# --- frame files ----------------------------------------------------------------


def _frame_stem(directory: Path, frame_id: int, is_database: bool) -> Path:
    return directory / f"{'db' if is_database else 'q'}_{frame_id}"


def write_frame(frame: Frame, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    stem = _frame_stem(directory, frame.frame_id, frame.is_database)
    write_ppm(stem.with_suffix(".rgb"), frame.rgb)
    write_pgm16(stem.with_suffix(".depth"), frame.depth)
    write_pgm16(stem.with_suffix(".inst"), frame.instances)
    stem.with_suffix(".pose").write_text(pose_to_text(frame.pose) + "\n", encoding="ascii")


def _read_pose(path: Path) -> Pose:
    try:
        return pose_from_text(path.read_text(encoding="ascii").strip())
    except (OSError, ValueError) as e:
        raise DatasetFormatError(f"corrupt pose file {path}: {e}") from e


def read_frame(directory: Path, point_id: int, frame_id: int, is_database: bool) -> Frame:
    """One frame from its files.  The .inst raster is checked like the others
    but not kept: no reader of a dataset uses instances, so the frame carries
    None for them."""
    stem = _frame_stem(directory, frame_id, is_database)
    pose = _read_pose(stem.with_suffix(".pose"))
    rgb = read_ppm(stem.with_suffix(".rgb"))
    depth = read_pgm16(stem.with_suffix(".depth")).astype(np.uint16)
    inst = read_pgm16(stem.with_suffix(".inst"))
    if not rgb.shape[:2] == depth.shape == inst.shape:
        sizes = ", ".join(
            f"{suffix} {a.shape[1]}x{a.shape[0]}"
            for suffix, a in ((".rgb", rgb), (".depth", depth), (".inst", inst))
        )
        raise DatasetFormatError(f"frame {stem}: rasters disagree in size ({sizes})")
    return Frame(rgb, depth, None, pose, point_id, frame_id, is_database)


@dataclass(frozen=True)
class FrameFiles(Sequence[Frame]):
    """The frames of one directory of a dataset, read with read_frame each
    time one is indexed or iterated, never held: a caller streaming them
    holds one frame at a time."""

    directory: Path
    point_id: int
    frame_ids: tuple[int, ...]
    is_database: bool

    def __len__(self) -> int:
        return len(self.frame_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, frame_ids=self.frame_ids[i])
        return read_frame(self.directory, self.point_id, self.frame_ids[i], self.is_database)

    def __iter__(self) -> Iterator[Frame]:
        # not Sequence's default, which would end early on an IndexError a read raised
        for k in self.frame_ids:
            yield read_frame(self.directory, self.point_id, k, self.is_database)


# --- manifest ----------------------------------------------------------------


_MANIFEST_FORMAT = "pointloc-dataset-v1"
_COUNTS = ("seed", "maps", "points", "poses", "categories", "instances")


def _settings(params: GenerationParams) -> list[tuple[str, type, object]]:
    """(manifest key, declared type, value) of each generation setting, in
    file order: the GenerationParams fields but scenes and scene, depth_max,
    then each SceneParams field as scene_<name>."""

    def of(obj, prefix: str) -> list[tuple[str, type, object]]:
        types = get_type_hints(type(obj))
        return [
            (prefix + f.name, types[f.name], getattr(obj, f.name))
            for f in fields(obj)
            if f.name not in ("scenes", "scene")
        ]

    return [*of(params, ""), ("depth_max", float, DEPTH_MAX), *of(params.scene, "scene_")]


def manifest_to_text(m: DatasetManifest) -> str:
    lines = [f"format = {_MANIFEST_FORMAT}", *(f"{key} = {getattr(m, key)}" for key in _COUNTS)]
    for key, kind, value in _settings(m.params):
        lines.append(f"{key} = {value:.17g}" if kind is float else f"{key} = {value}")
    lines.append(f"scenes = {len(m.scenes)}")
    for i, s in enumerate(m.scenes):
        lines.append(f"scene_{i} = {s.name} {s.seed} {s.points} {s.poses}")
    return "\n".join(lines) + "\n"


def manifest_from_text(text: str, path: str = "manifest.txt") -> DatasetManifest:
    """Parse what manifest_to_text writes: blank lines aside, every line is
    a known `key = value`, each once, with format = the one format the
    writer emits and scenes = N followed by exactly the lines scene_0 to
    scene_<N-1>.  maps, points and poses must be the number of scene lines
    and the sums of their points and poses.  Settings must be finite and
    describe a camera intrinsics_from_fov accepts."""
    settings = _settings(GenerationParams())
    known = {"format", "scenes", *_COUNTS, *(key for key, _, _ in settings)}
    kv: dict[str, str] = {}
    scene_lines = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        key, eq, value = (part.strip() for part in raw.partition("="))
        scene = key.startswith("scene_") and key[6:].isdecimal()
        if not eq or not (scene or key in known):
            raise DatasetFormatError(f"{path}:{lineno}: not a known 'key = value' line: {raw!r}")
        if key in kv:
            raise DatasetFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        kv[key] = value
        scene_lines += scene
    try:
        if kv["format"] != _MANIFEST_FORMAT:
            raise ValueError(f"format {kv['format']!r} is not {_MANIFEST_FORMAT}")
        values = {}
        for key, kind, _ in settings:
            values[key] = kind(kv[key])
            if kind is float and not math.isfinite(values[key]):
                raise ValueError(f"{key} = {kv[key]} is not finite")
        if values.pop("depth_max") != DEPTH_MAX:
            raise ValueError(f"depth_max {kv['depth_max']} is not the {DEPTH_MAX:g} m depth scale")
        scene_params = SceneParams(
            **{f.name: values.pop(f"scene_{f.name}") for f in fields(SceneParams)}
        )
        params = GenerationParams(scenes=int(kv["scenes"]), scene=scene_params, **values)
        params.intrinsics()  # no camera, no dataset; a huge resolution overflows
        if not 1 <= params.scenes == scene_lines:
            raise ValueError(f"{scene_lines} scene_<i> lines for scenes = {params.scenes}")
        summaries = []
        for i in range(params.scenes):  # a KeyError names a missing line
            name, seed, points, poses = kv[f"scene_{i}"].split()
            summaries.append(SceneSummary(name, int(seed), int(points), int(poses)))
        totals = {
            "maps": len(summaries),
            "points": sum(s.points for s in summaries),
            "poses": sum(s.poses for s in summaries),
        }
        for key, total in totals.items():
            if int(kv[key]) != total:
                raise ValueError(f"{key} = {kv[key]} is not the scene lines' total {total}")
        return DatasetManifest(
            scenes=tuple(summaries), params=params, **{key: int(kv[key]) for key in _COUNTS}
        )
    except (KeyError, ValueError, ArithmeticError) as e:
        raise DatasetFormatError(f"corrupt manifest {path}: {e}") from e


# --- dataset directories ---------------------------------------------------------


def load_scene_model(directory: str | Path) -> SceneModel:
    path = Path(directory) / "scene.txt"
    if not path.exists():
        raise DatasetFormatError(f"missing scene file {path}")
    try:
        return scene_from_text(path.read_text(encoding="ascii"))
    except (ValueError, IndexError) as e:
        raise DatasetFormatError(f"corrupt scene file {path}: {e}") from e


def load_manifest(directory: str | Path) -> DatasetManifest:
    path = Path(directory) / "manifest.txt"
    if not path.exists():
        raise DatasetFormatError(f"missing manifest file {path}")
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as e:
        raise DatasetFormatError(f"corrupt manifest {path}: {e}") from e
    return manifest_from_text(text, str(path))


def _ids(directory: Path, pattern: str) -> list[int]:
    """Sorted ids of the entries of directory that glob `pattern` matches;
    what its `*` matches must be a canonical decimal id (no leading zero)."""
    prefix, _, suffix = pattern.partition("*")
    ids = []
    for p in directory.glob(pattern):
        text = p.name[len(prefix) : len(p.name) - len(suffix)]
        if not (text.isdecimal() and str(int(text)) == text):
            raise DatasetFormatError(f"{p}: {text!r} is not a canonical decimal id")
        ids.append(int(text))
    return sorted(ids)


def _walk(root: str | Path) -> list[tuple[FrameFiles, FrameFiles]]:
    """The database and query frames of every Point of a dataset, in scene
    order and then point order, by the layout rules of this module's
    docstring.  Where root holds manifest.txt, its scene lines must count
    the points and poses listed here.  All is listed and checked before
    anything is returned, and no frame file is opened."""
    root = Path(root)
    indices = _ids(root, "scene_*")
    if indices != list(range(len(indices))) or indices and (root / "scene.txt").exists():
        raise DatasetFormatError(
            f"{root / f'scene_{indices[-1]}'}: a dataset holds either scene.txt "
            f"or scene_0 to scene_<N-1>, here N = {len(indices)}"
        )
    scenes = [root / f"scene_{i}" for i in indices] or [root]
    listed: list[list[tuple[FrameFiles, FrameFiles]]] = []
    for s, scene in enumerate(scenes):
        if not (scene / "scene.txt").exists():
            raise DatasetFormatError(f"missing scene file {scene / 'scene.txt'}")
        points, queries = scene / "points", scene / "queries"
        pids = _ids(points, "*")
        if len(scenes) > 1 and pids and pids[-1] >= SCENE_POINT_ID_STRIDE:
            raise DatasetFormatError(
                f"{points / str(pids[-1])}: point ids of scene_<i> must be below {SCENE_POINT_ID_STRIDE}"
            )
        stray = sorted(set(_ids(queries, "*")) - set(pids))
        if stray:
            raise DatasetFormatError(
                f"{queries / str(stray[0])}: queries of no Point, {points / str(stray[0])} is missing"
            )
        listed.append([])
        for pid in pids:
            point_id = pid + s * SCENE_POINT_ID_STRIDE
            db_dir, q_dir = points / str(pid), queries / str(pid)
            db = FrameFiles(db_dir, point_id, tuple(_ids(db_dir, "db_*.pose")), True)
            if not db:
                raise DatasetFormatError(f"point {point_id} has no database frames in {db_dir}")
            q = FrameFiles(q_dir, point_id, tuple(_ids(q_dir, "q_*.pose")), False)
            listed[-1].append((db, q))
    path = root / "manifest.txt"
    if path.exists():
        lines = load_manifest(root).scenes
        if len(lines) != len(scenes):
            raise DatasetFormatError(f"{path}: {len(lines)} scene lines for {len(scenes)} scenes")
        for line, scene, frames in zip(lines, scenes, listed):
            found = (len(frames), sum(len(db) + len(q) for db, q in frames))
            if (line.points, line.poses) != found:
                raise DatasetFormatError(
                    f"{path}: {line.name} lists {line.points} points and {line.poses} poses, "
                    f"{scene} holds {found[0]} and {found[1]}"
                )
    return [point for frames in listed for point in frames]


def iter_point_groups(root: str | Path) -> Iterator[PointGroup]:
    """The point groups of every scene of a dataset, in scene order, once
    the walk has checked it.  A frame's files are read only when its group's
    FrameFiles hand it out, so a caller that uses only database frames or
    only queries never opens the others."""
    return (PointGroup(db.point_id, db, queries) for db, queries in _walk(root))


def query_poses(root: str | Path) -> dict[tuple[int, int], Pose]:
    """(point id, frame id) -> ground-truth pose of every query of a dataset,
    keyed by the point ids iter_point_groups gives."""
    return {
        (q.point_id, k): _read_pose(_frame_stem(q.directory, k, False).with_suffix(".pose"))
        for _, q in _walk(root)
        for k in q.frame_ids
    }
