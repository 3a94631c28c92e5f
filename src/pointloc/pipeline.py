"""End-to-end localization: database preparation, retrieval, matching,
back-projection, registration, and final pose composition.

For a query frame the pipeline (1) embeds the query and retrieves the closest
database frame, (2) matches binary descriptors between the two, (3) lifts both
sides of every match to 3D using each frame's own depth at the keypoint pixel,
(4) estimates the relative transform with the configured solver, and (5)
composes it with the retrieved frame's camera-to-world pose.  Any failure
falls back to the retrieved pose itself (the retrieval-only baseline).
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from pointloc.binio import ExactReader
from pointloc.dataset import DatasetFormatError, PointGroup
from pointloc.features import (
    DESCRIPTOR_BITS,
    DESCRIPTOR_BYTES,
    describe,
    detect,
    match,
    to_grayscale,
)
from pointloc.geometry import (
    CameraIntrinsics,
    Pose,
    UnitQuaternion,
    compose,
    pose_from_text,
)
from pointloc.render import DEPTH_LEVELS, DEPTH_MAX, Frame
from pointloc.retrieval import (
    RetrievalIndex,
    Vocabulary,
    assign_words,
    embed_bow,
    embed_vlad,
    query_top1,
    read_vocabulary_body,
    write_vocabulary_body,
)
from pointloc.registration import (
    RegistrationError,
    gnc_tls_register,
    icp_refine,
    ransac_register,
    umeyama,
)

VARIANT_BOW = "bow"
VARIANT_VLAD = "vlad"
RETRIEVAL_VARIANTS = (VARIANT_BOW, VARIANT_VLAD)  # database file codes 0 and 1
REGISTRATION_METHODS = ("umeyama", "ransac", "ransac+icp", "gnc")
INVALID_DEPTH_MAX = 0.999  # level / DEPTH_LEVELS at or above this means no/far hit


@dataclass(frozen=True)
class PipelineConfig:
    retrieval: str = "vlad"
    method: str = "gnc"
    ratio: float = 0.8
    mutual: bool = True
    min_matches: int = 3
    max_keypoints: int = 1000
    fast_threshold: int = 20
    ransac_threshold: float = 0.05
    ransac_iters: int = 1000
    ransac_seed: int = 0
    icp_iters: int = 30
    icp_tol: float = 1e-6
    gnc_noise_bound: float = 0.05
    record_timings: bool = True
    hardware: str = ""

    def __post_init__(self) -> None:
        if self.retrieval not in RETRIEVAL_VARIANTS:
            raise ValueError(f"retrieval must be one of {RETRIEVAL_VARIANTS}")
        if self.method not in REGISTRATION_METHODS:
            raise ValueError(f"method must be one of {REGISTRATION_METHODS}")
        if self.min_matches < 3:
            raise ValueError("min_matches must be at least 3")
        checks = (
            ("max_keypoints", self.max_keypoints >= 1, "at least 1"),
            ("fast_threshold", 0 <= self.fast_threshold <= 255, "in 0..255"),
            ("ratio", 0.0 < self.ratio <= 1.0, "in (0, 1]"),
            ("ransac_threshold", 0.0 < self.ransac_threshold < math.inf, "positive and finite"),
            ("ransac_iters", self.ransac_iters >= 1, "at least 1"),
            ("icp_iters", self.icp_iters >= 0, "at least 0"),
            ("icp_tol", 0.0 <= self.icp_tol < math.inf, "at least 0 and finite"),
            ("gnc_noise_bound", 0.0 < self.gnc_noise_bound < math.inf, "positive and finite"),
        )
        for key, ok, expected in checks:
            if not ok:
                raise ValueError(f"{key} must be {expected}, got {getattr(self, key)!r}")


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {value!r}")


# Every field's default has the field's type.
_CONFIG_PARSERS = {
    f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
    for f in fields(PipelineConfig)
}


def parse_config(text: str) -> PipelineConfig:
    """key = value lines, one per PipelineConfig field at most; unknown and
    repeated keys are rejected."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        if key in kv:
            raise ValueError(f"duplicate config key {key!r} on line {lineno}")
        try:
            kv[key] = _CONFIG_PARSERS[key](value)
        except ValueError as e:
            raise ValueError(f"config key {key!r} on line {lineno}: {e}") from e
    return PipelineConfig(**kv)


def load_config(path: str | Path) -> PipelineConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class DatabaseFrame:
    """What localization reads of one database frame.  Its position in
    LocalizationDatabase.frames is its frame id and its row in the index."""

    point_id: int
    pose: Pose
    keypoint_xy: np.ndarray  # (n, 2) float64
    descriptors: np.ndarray  # (n, 32) uint8
    keypoint_depth: np.ndarray  # (n,) uint16, depth level at each keypoint
    words: np.ndarray  # (n,) int64, vocabulary word of each descriptor


@dataclass(frozen=True)
class LocalizationDatabase:
    frames: tuple[DatabaseFrame, ...]
    vocabulary: Vocabulary
    index: RetrievalIndex
    intrinsics: CameraIntrinsics
    variant: str  # what the index rows embed, and so what a query embeds


def _embed(
    descriptors: np.ndarray,
    vocab: Vocabulary,
    variant: str,
    words: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    embed = embed_bow if variant == VARIANT_BOW else embed_vlad
    return embed(descriptors, vocab, words, out)


def _index(frames: Sequence[DatabaseFrame], vocab: Vocabulary, variant: str) -> RetrievalIndex:
    """The retrieval index of database frames: row i embeds frame i's
    descriptors and words with the query's embedding code.  Building and
    loading a database both make the index here.  Each frame is embedded
    into one reused dense row, so the global norm rounds as it does for a
    query.  An embedding leaves every entry outside its words' blocks at
    +-0.0, so only those blocks are zeroed again for the next frame."""
    per_word = DESCRIPTOR_BITS if variant == VARIANT_VLAD else 1
    row = np.zeros(vocab.k * per_word)
    blocks = row.reshape(vocab.k, per_word)

    def rows() -> Iterator[np.ndarray]:
        for f in frames:
            yield _embed(f.descriptors, vocab, variant, f.words, out=row)
            blocks[f.words] = 0.0

    return RetrievalIndex(rows(), len(row))


def _check_camera(frame: Frame, k: CameraIntrinsics) -> None:
    """A frame's rasters must be the size of the camera its keypoints are
    lifted with."""
    height, width = frame.depth.shape
    if (width, height) != (k.width, k.height):
        kind = "database" if frame.is_database else "query"
        raise DatasetFormatError(
            f"point {frame.point_id} {kind} frame {frame.frame_id}: rasters are "
            f"{width}x{height}, the database camera is {k.width}x{k.height}"
        )


def extract_frame_features(
    frame: Frame, config: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Keypoint pixel coordinates and their descriptors for one frame."""
    gray = to_grayscale(frame.rgb)
    kps = detect(gray, config.max_keypoints, config.fast_threshold)
    desc, kept = describe(gray, kps)
    return kps.xy[kept], desc


def build_database(
    dataset: Iterable[PointGroup],
    vocab: Vocabulary,
    config: PipelineConfig,
    intrinsics: CameraIntrinsics,
) -> LocalizationDatabase:
    """Precompute features, words, keypoint depths and the retrieval index
    over every database frame (6 per point).  Frame ids follow the input
    order, which iter_point_groups gives by point id; one group is read at
    a time.  The index embeds config.retrieval; every frame must match the
    camera."""
    frames: list[DatabaseFrame] = []
    for group in dataset:
        for f in group.database_frames:
            _check_camera(f, intrinsics)
            xy, desc = extract_frame_features(f, config)
            frames.append(
                DatabaseFrame(
                    point_id=f.point_id,
                    pose=f.pose,
                    keypoint_xy=xy,
                    descriptors=desc,
                    keypoint_depth=keypoint_depths(f.depth, xy),
                    words=assign_words(desc, vocab.centroids),
                )
            )
    if not frames:
        raise ValueError("dataset holds no database frames")
    index = _index(frames, vocab, config.retrieval)
    return LocalizationDatabase(tuple(frames), vocab, index, intrinsics, config.retrieval)


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds of each localization stage for one query, in the
    order timing reports list them; `overall` is the whole query."""

    embedding_extraction: float = 0.0
    embedding_matching: float = 0.0
    feature_extraction: float = 0.0
    feature_matching: float = 0.0
    pose_optimization: float = 0.0
    overall: float = 0.0


TIMING_STAGES = tuple(f.name for f in fields(StageTimings))


@dataclass(frozen=True)
class LocalizationResult:
    estimated_pose: Pose
    top1_frame_id: int
    match_count: int
    inlier_count: int
    fallback: bool
    timings: StageTimings
    query_point_id: int = -1
    query_frame_id: int = -1

    def __post_init__(self) -> None:
        if self.fallback and self.inlier_count != 0:
            raise ValueError("fallback results must report zero inliers")


class _StageClock:
    """perf_counter stages; reports zeros when timing is disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.values: dict[str, float] = {}
        self._start = time.perf_counter()
        self._mark = self._start

    def lap(self, name: str) -> None:
        """Charge the time since the previous lap to the StageTimings field
        `name`; each stage is lapped once per query."""
        now = time.perf_counter()
        self.values[name] = now - self._mark
        self._mark = now

    def timings(self) -> StageTimings:
        if not self.enabled:
            return StageTimings()
        return StageTimings(**self.values, overall=time.perf_counter() - self._start)


def _register(
    p_query: np.ndarray,
    p_db: np.ndarray,
    query_cloud: np.ndarray,
    db_cloud: np.ndarray,
    config: PipelineConfig,
    seed: int,
):
    method = config.method
    if method == "umeyama":
        return umeyama(p_query, p_db), len(p_query)
    if method == "gnc":
        res = gnc_tls_register(p_query, p_db, config.gnc_noise_bound)
        return res.pose, len(res.inlier_indices)
    res = ransac_register(p_query, p_db, config.ransac_threshold, config.ransac_iters, seed)
    pose = res.pose
    if method == "ransac+icp":
        pose = icp_refine(query_cloud, db_cloud, pose, config.icp_iters, config.icp_tol).pose
    return pose, len(res.inlier_indices)


def keypoint_depths(depth: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The Frame.depth levels at each keypoint's rounded pixel."""
    return depth[np.rint(xy[:, 1]).astype(np.int64), np.rint(xy[:, 0]).astype(np.int64)]


def backproject_keypoints(
    xy: np.ndarray, levels: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame 3D points of one frame's keypoints, and which are valid.

    levels is each keypoint's uint16 depth level (keypoint_depths), turned
    into metres here alone; valid means 0 < level / DEPTH_LEVELS <
    INVALID_DEPTH_MAX.  Returns (points, valid): points is (n, 3),
    meaningful only where valid is True.
    """
    u, v = xy[:, 0], xy[:, 1]
    dn = levels / DEPTH_LEVELS
    valid = (0.0 < dn) & (dn < INVALID_DEPTH_MAX)
    z = dn * DEPTH_MAX
    return np.stack([z * (u - k.cx) / k.fx, z * (v - k.cy) / k.fy, z], axis=1), valid


def localize(
    db: LocalizationDatabase,
    query: Frame,
    config: PipelineConfig,
    retrieval_only: bool = False,
) -> LocalizationResult:
    """Full three-stage localization of one query frame.

    The estimated pose is P_db_top1 composed with the relative transform that
    maps query-camera points into top1-camera coordinates; when matching or
    registration cannot produce one, the retrieved pose itself is returned
    with fallback=True.  With retrieval_only the query stops after retrieval
    and answers with the retrieved pose (the retrieval-only baseline).  The
    query is embedded as the database's rows are (db.variant), so
    config.retrieval plays no part here.
    """
    _check_camera(query, db.intrinsics)
    clock = _StageClock(config.record_timings)
    query_xy, query_desc = extract_frame_features(query, config)
    clock.lap("feature_extraction")
    embedding = _embed(query_desc, db.vocabulary, db.variant)
    clock.lap("embedding_extraction")
    top1_id, _ = query_top1(db.index, embedding)
    clock.lap("embedding_matching")

    db_frame = db.frames[top1_id]
    pose, match_count, inliers, fallback = db_frame.pose, 0, 0, True
    if not retrieval_only:
        qi, di = match(query_desc, db_frame.descriptors, config.ratio, config.mutual).T
        match_count = len(qi)
        clock.lap("feature_matching")

        q_points, q_valid = backproject_keypoints(
            query_xy, keypoint_depths(query.depth, query_xy), db.intrinsics
        )
        d_points, d_valid = backproject_keypoints(
            db_frame.keypoint_xy, db_frame.keypoint_depth, db.intrinsics
        )
        lifted = q_valid[qi] & d_valid[di]
        p_query, p_db = q_points[qi[lifted]], d_points[di[lifted]]

        if len(p_query) >= config.min_matches:
            seed = (
                config.ransac_seed * 1000003 + query.point_id * 1009 + query.frame_id
            ) % (2**63)
            try:
                relative, inliers = _register(
                    p_query, p_db, q_points[q_valid], d_points[d_valid], config, seed
                )
                pose = compose(db_frame.pose, relative)
                fallback = False
            except RegistrationError:
                pass  # the retrieved pose stands
        clock.lap("pose_optimization")

    return LocalizationResult(
        estimated_pose=pose,
        top1_frame_id=top1_id,
        match_count=match_count,
        inlier_count=inliers,
        fallback=fallback,
        timings=clock.timings(),
        query_point_id=query.point_id,
        query_frame_id=query.frame_id,
    )


# --- results file ------------------------------------------------------------------


def result_to_csv_line(r: LocalizationResult) -> str:
    p, t = r.estimated_pose, r.timings
    fields = [
        str(r.query_frame_id),
        str(r.query_point_id),
        str(r.top1_frame_id),
        "1" if r.fallback else "0",
        *(f"{v:.17g}" for v in p.translation),
        f"{p.rotation.w:.17g}",
        f"{p.rotation.x:.17g}",
        f"{p.rotation.y:.17g}",
        f"{p.rotation.z:.17g}",
        f"{t.embedding_extraction + t.embedding_matching:.9f}",
        f"{t.feature_extraction + t.feature_matching:.9f}",
        f"{t.pose_optimization:.9f}",
    ]
    return ",".join(fields)


def write_results(results: Sequence[LocalizationResult], path: str | Path) -> None:
    """One line per query: query_id, point_id, top1_frame_id, fallback,
    tx, ty, tz, qw, qx, qy, qz, t_retr, t_match, t_reg."""
    Path(path).write_text(
        "".join(result_to_csv_line(r) + "\n" for r in results), encoding="ascii"
    )


@dataclass(frozen=True)
class ResultRow:
    query_frame_id: int
    query_point_id: int
    top1_frame_id: int
    fallback: bool
    pose: Pose
    t_retrieval: float
    t_matching: float
    t_registration: float


class ResultsFormatError(ValueError):
    """A results file line that is not what write_results writes."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def read_results(path: str | Path) -> list[ResultRow]:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as e:
        raise ResultsFormatError(f"{path}: not an ASCII results file: {e}") from e
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            if len(parts) != 14:
                raise ValueError(f"expected 14 fields, got {len(parts)}")
            if parts[3] not in ("0", "1"):
                raise ValueError(f"fallback must be 0 or 1, got {parts[3]!r}")
            rows.append(
                ResultRow(
                    query_frame_id=int(parts[0]),
                    query_point_id=int(parts[1]),
                    top1_frame_id=int(parts[2]),
                    fallback=parts[3] == "1",
                    pose=pose_from_text(" ".join(parts[4:11])),
                    t_retrieval=_finite(parts[11]),
                    t_matching=_finite(parts[12]),
                    t_registration=_finite(parts[13]),
                )
            )
        except ValueError as e:
            raise ResultsFormatError(f"{path}:{lineno}: {e}") from e
    return rows


# --- database file -----------------------------------------------------------------
#
# Version 2, big-endian: "PLDB", u32 version, u8 variant (0 bow, 1 vlad),
# intrinsics (f64 fx fy cx cy, u32 width height), u32 vocabulary size k,
# i64 vocabulary seed, k x 32 u8 centroids, k f64 idf weights, u32 frame
# count, then one record per frame, frame i being the i-th record:
#
#   u32 record length (the bytes after this field: 64 + 54 n)
#   u32 point id, f64 x 7 pose (tx ty tz qw qx qy qz), u32 keypoint count n
#   n x 2 f64 keypoint xy, n x 32 u8 descriptors,
#   n u16 depth level at each keypoint,
#   n u32 vocabulary word of each descriptor
#
# The embeddings are not stored: load_database rebuilds the index rows from
# the descriptors and words, bit for bit.

_DB_MAGIC = b"PLDB"
_DB_VERSION = 2
_FRAME_HEAD = struct.Struct(">I7dI")  # point id, pose, keypoint count
_KEYPOINT_BYTES = 2 * 8 + DESCRIPTOR_BYTES + 2 + 4  # xy, descriptor, depth, word


def save_database(db: LocalizationDatabase, path: str | Path) -> None:
    """Deterministic binary dump of a LocalizationDatabase (layout above)."""
    k = db.intrinsics
    with open(path, "wb") as fh:
        fh.write(_DB_MAGIC)
        fh.write(struct.pack(">IB", _DB_VERSION, RETRIEVAL_VARIANTS.index(db.variant)))
        fh.write(struct.pack(">ddddII", k.fx, k.fy, k.cx, k.cy, k.width, k.height))
        fh.write(struct.pack(">Iq", db.vocabulary.k, db.vocabulary.training_seed))
        write_vocabulary_body(fh, db.vocabulary)
        fh.write(struct.pack(">I", len(db.frames)))
        for f in db.frames:
            n, p = len(f.keypoint_xy), f.pose
            q = p.rotation
            fh.write(struct.pack(">I", _FRAME_HEAD.size + n * _KEYPOINT_BYTES))
            fh.write(_FRAME_HEAD.pack(f.point_id, *p.translation, q.w, q.x, q.y, q.z, n))
            fh.write(np.ascontiguousarray(f.keypoint_xy, dtype=">f8").tobytes())
            fh.write(np.ascontiguousarray(f.descriptors, dtype=np.uint8).tobytes())
            fh.write(f.keypoint_depth.astype(">u2").tobytes())
            fh.write(np.asarray(f.words).astype(">u4").tobytes())


class DatabaseFormatError(ValueError):
    """A database file that is truncated, corrupt or of another format."""


def _read_record(r: ExactReader, where: str, vocab_k: int, k: CameraIntrinsics) -> DatabaseFrame:
    (length,) = r.unpack(">I", f"{where} record length")
    record = r.read(length, f"{where} record")
    if length < _FRAME_HEAD.size:
        raise r.fail(f"{where} record of {length} bytes is shorter than its header")
    point_id, *pose_values, n = _FRAME_HEAD.unpack_from(record)
    if length != _FRAME_HEAD.size + n * _KEYPOINT_BYTES:
        raise r.fail(f"{where} record of {length} bytes does not hold {n} keypoints")
    if not all(math.isfinite(v) for v in pose_values):
        raise r.fail(f"{where} pose is not finite")
    try:
        pose = Pose(UnitQuaternion(*pose_values[3:]), np.array(pose_values[:3]))
    except ValueError as e:
        raise r.fail(f"bad {where} pose: {e}") from e

    def field(dtype, count: int, offset: int) -> np.ndarray:
        return np.frombuffer(record, dtype, count, offset)

    at = _FRAME_HEAD.size
    xy = field(">f8", 2 * n, at).astype(np.float64).reshape(n, 2)
    at += 16 * n
    desc = field(np.uint8, DESCRIPTOR_BYTES * n, at).reshape(n, DESCRIPTOR_BYTES).copy()
    at += DESCRIPTOR_BYTES * n
    depth = field(">u2", n, at).astype(np.uint16)
    words = field(">u4", n, at + 2 * n).astype(np.int64)
    pixels = np.rint(xy)  # the pixels lifting read the depth at; NaN fails below
    inside = (0 <= pixels) & (pixels <= np.array([k.width - 1, k.height - 1]))
    if not np.all(inside):
        raise r.fail(f"{where} has a keypoint outside the {k.width}x{k.height} raster")
    if np.any(words >= vocab_k):
        raise r.fail(f"{where} has a word id outside the {vocab_k}-word vocabulary")
    return DatabaseFrame(point_id, pose, xy, desc, depth, words)


def load_database(path: str | Path) -> LocalizationDatabase:
    """Read a database file and rebuild its retrieval index."""
    with open(path, "rb") as fh:
        r = ExactReader(fh, path, DatabaseFormatError)
        if r.read(4, "magic") != _DB_MAGIC:
            raise r.fail("not a localization database file")
        (version,) = r.unpack(">I", "version")
        if version != _DB_VERSION:
            raise r.fail(
                f"unsupported database version {version} (this pointloc reads version "
                f"{_DB_VERSION}; rebuild the database with pointloc build-db)"
            )
        (variant_code,) = r.unpack(">B", "variant")
        if variant_code >= len(RETRIEVAL_VARIANTS):
            raise r.fail(f"unknown retrieval variant code {variant_code}")
        variant = RETRIEVAL_VARIANTS[variant_code]
        fx, fy, cx, cy, width, height = r.unpack(">ddddII", "intrinsics")
        try:
            if not all(math.isfinite(v) for v in (fx, fy, cx, cy)):
                raise ValueError("non-finite value")
            intrinsics = CameraIntrinsics(fx, fy, cx, cy, width, height)
        except ValueError as e:
            raise r.fail(f"bad intrinsics: {e}") from e
        vocab = read_vocabulary_body(r, *r.unpack(">Iq", "vocabulary size and seed"))
        (n_frames,) = r.unpack(">I", "frame count")
        if n_frames == 0:
            raise r.fail("database holds no frames")
        frames = [_read_record(r, f"frame {i}", vocab.k, intrinsics) for i in range(n_frames)]
        r.expect_end("the last frame")
    index = _index(frames, vocab, variant)
    return LocalizationDatabase(tuple(frames), vocab, index, intrinsics, variant)


def train_vocabulary_for_dataset(
    groups: Iterable[PointGroup], k: int, seed: int, config: PipelineConfig
) -> Vocabulary:
    """Vocabulary over the descriptors of all database frames (queries unseen)."""
    from pointloc.retrieval import train_vocabulary

    per_frame = [extract_frame_features(f, config)[1] for g in groups for f in g.database_frames]
    return train_vocabulary(per_frame, k=k, seed=seed)
