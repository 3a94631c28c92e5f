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

import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from pointloc.binio import ExactReader
from pointloc.dataset import PointGroup
from pointloc.features import (
    DESCRIPTOR_BYTES,
    describe,
    detect,
    match,
    to_grayscale,
)
from pointloc.geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    pose_from_text,
    pose_to_text,
)
from pointloc.render import DEPTH_MAX, Frame
from pointloc.retrieval import (
    GlobalEmbedding,
    RetrievalIndex,
    VARIANT_BOW,
    VARIANT_VLAD,
    Vocabulary,
    build_index,
    embed_bow,
    embed_vlad,
    query_top1,
)
from pointloc.registration import (
    RegistrationError,
    gnc_tls_register,
    icp_refine,
    ransac_register,
    umeyama,
)

RETRIEVAL_VARIANTS = (VARIANT_BOW, VARIANT_VLAD)
REGISTRATION_METHODS = ("umeyama", "ransac", "ransac+icp", "gnc")
INVALID_DEPTH_MAX = 0.999  # normalized depth at or above this means no/far hit


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
            ("ransac_threshold", self.ransac_threshold > 0.0, "positive"),
            ("ransac_iters", self.ransac_iters >= 1, "at least 1"),
            ("icp_iters", self.icp_iters >= 0, "at least 0"),
            ("icp_tol", self.icp_tol >= 0.0, "at least 0"),
            ("gnc_noise_bound", self.gnc_noise_bound > 0.0, "positive"),
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


_CONFIG_PARSERS = {
    "retrieval": str,
    "method": str,
    "ratio": float,
    "mutual": _parse_bool,
    "min_matches": int,
    "max_keypoints": int,
    "fast_threshold": int,
    "ransac_threshold": float,
    "ransac_iters": int,
    "ransac_seed": int,
    "icp_iters": int,
    "icp_tol": float,
    "gnc_noise_bound": float,
    "record_timings": _parse_bool,
    "hardware": str,
}


def parse_config(text: str) -> PipelineConfig:
    """key = value lines; unknown keys are rejected."""
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
        try:
            kv[key] = _CONFIG_PARSERS[key](value)
        except ValueError as e:
            raise ValueError(f"config key {key!r} on line {lineno}: {e}") from e
    return PipelineConfig(**kv)


def load_config(path: str | Path) -> PipelineConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def config_to_text(config: PipelineConfig) -> str:
    lines = []
    for key in _CONFIG_PARSERS:
        v = getattr(config, key)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DatabaseFrame:
    frame_id: int
    point_id: int
    pose: Pose
    keypoint_xy: np.ndarray  # (n, 2) float64
    descriptors: np.ndarray  # (n, 32) uint8
    depth: np.ndarray  # (h, w) float64, normalized
    embedding: GlobalEmbedding


@dataclass(frozen=True)
class LocalizationDatabase:
    frames: tuple[DatabaseFrame, ...]
    vocabulary: Vocabulary
    index: RetrievalIndex
    intrinsics: CameraIntrinsics
    variant: str

    def frame_by_id(self, frame_id: int) -> DatabaseFrame:
        return self.frames[frame_id]


def _embed(descriptors: np.ndarray, vocab: Vocabulary, variant: str) -> GlobalEmbedding:
    if variant == VARIANT_BOW:
        return embed_bow(descriptors, vocab)
    return embed_vlad(descriptors, vocab)


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
    """Precompute features, embeddings and the retrieval index over every
    database frame (6 per point); frame ids are assigned in (point, yaw) order."""
    frames: list[DatabaseFrame] = []
    for group in sorted(dataset, key=lambda g: g.point_id):
        for f in group.database_frames:
            xy, desc = extract_frame_features(f, config)
            frames.append(
                DatabaseFrame(
                    frame_id=len(frames),
                    point_id=f.point_id,
                    pose=f.pose,
                    keypoint_xy=xy,
                    descriptors=desc,
                    depth=f.depth,
                    embedding=_embed(desc, vocab, config.retrieval),
                )
            )
    if not frames:
        raise ValueError("dataset holds no database frames")
    index = build_index([f.frame_id for f in frames], [f.embedding for f in frames])
    return LocalizationDatabase(tuple(frames), vocab, index, intrinsics, config.retrieval)


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds of each localization stage for one query."""

    feature_extraction: float = 0.0
    embedding_extraction: float = 0.0
    embedding_matching: float = 0.0
    feature_matching: float = 0.0
    pose_optimization: float = 0.0
    total: float = 0.0

    @property
    def retrieval(self) -> float:
        return self.embedding_extraction + self.embedding_matching

    @property
    def matching(self) -> float:
        return self.feature_extraction + self.feature_matching

    @property
    def registration(self) -> float:
        return self.pose_optimization


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
        now = time.perf_counter()
        self.values[name] = self.values.get(name, 0.0) + (now - self._mark)
        self._mark = now

    def timings(self) -> StageTimings:
        if not self.enabled:
            return StageTimings()
        return StageTimings(
            feature_extraction=self.values.get("feature_extraction", 0.0),
            embedding_extraction=self.values.get("embedding_extraction", 0.0),
            embedding_matching=self.values.get("embedding_matching", 0.0),
            feature_matching=self.values.get("feature_matching", 0.0),
            pose_optimization=self.values.get("pose_optimization", 0.0),
            total=time.perf_counter() - self._start,
        )


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
    if method == "ransac":
        res = ransac_register(
            p_query, p_db, config.ransac_threshold, config.ransac_iters, seed
        )
        return res.pose, len(res.inlier_indices)
    if method == "ransac+icp":
        res = ransac_register(
            p_query, p_db, config.ransac_threshold, config.ransac_iters, seed
        )
        refined = icp_refine(
            query_cloud, db_cloud, res.pose, config.icp_iters, config.icp_tol
        )
        return refined.pose, len(res.inlier_indices)
    res = gnc_tls_register(p_query, p_db, config.gnc_noise_bound)
    return res.pose, len(res.inlier_indices)


def backproject_keypoints(
    xy: np.ndarray, depth: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Camera-frame 3D points of one frame's keypoints, and which are valid.

    Each keypoint reads the normalized depth at its rounded pixel; it is
    valid when 0 < depth < INVALID_DEPTH_MAX.  Returns (points, valid):
    points is (n, 3), meaningful only in the rows where valid is True.
    """
    u, v = xy[:, 0], xy[:, 1]
    dn = depth[np.rint(v).astype(np.int64), np.rint(u).astype(np.int64)]
    valid = (0.0 < dn) & (dn < INVALID_DEPTH_MAX)
    z = dn * DEPTH_MAX
    return np.stack([z * (u - k.cx) / k.fx, z * (v - k.cy) / k.fy, z], axis=1), valid


def localize(
    db: LocalizationDatabase, query: Frame, config: PipelineConfig
) -> LocalizationResult:
    """Full three-stage localization of one query frame.

    The estimated pose is P_db_top1 composed with the relative transform that
    maps query-camera points into top1-camera coordinates; when matching or
    registration cannot produce one, the retrieved pose itself is returned
    with fallback=True.
    """
    clock = _StageClock(config.record_timings)
    query_xy, query_desc = extract_frame_features(query, config)
    clock.lap("feature_extraction")
    embedding = _embed(query_desc, db.vocabulary, config.retrieval)
    clock.lap("embedding_extraction")
    top1_id, _ = query_top1(db.index, embedding)
    clock.lap("embedding_matching")

    db_frame = db.frame_by_id(top1_id)
    matches = match(query_desc, db_frame.descriptors, config.ratio, config.mutual)
    clock.lap("feature_matching")

    q_points, q_valid = backproject_keypoints(query_xy, query.depth, db.intrinsics)
    d_points, d_valid = backproject_keypoints(
        db_frame.keypoint_xy, db_frame.depth, db.intrinsics
    )
    qi = np.array([m.query_index for m in matches], dtype=np.int64)
    di = np.array([m.db_index for m in matches], dtype=np.int64)
    lifted = q_valid[qi] & d_valid[di]
    p_query, p_db = q_points[qi[lifted]], d_points[di[lifted]]

    fallback = True
    pose = db_frame.pose
    inliers = 0
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
            fallback = True
            pose = db_frame.pose
            inliers = 0
    clock.lap("pose_optimization")

    return LocalizationResult(
        estimated_pose=pose,
        top1_frame_id=top1_id,
        match_count=len(matches),
        inlier_count=inliers,
        fallback=fallback,
        timings=clock.timings(),
        query_point_id=query.point_id,
        query_frame_id=query.frame_id,
    )


def retrieval_only_localize(
    db: LocalizationDatabase, query: Frame, config: PipelineConfig
) -> LocalizationResult:
    """Top-1 retrieved pose as the answer; no matching or registration."""
    clock = _StageClock(config.record_timings)
    _, query_desc = extract_frame_features(query, config)
    clock.lap("feature_extraction")
    embedding = _embed(query_desc, db.vocabulary, config.retrieval)
    clock.lap("embedding_extraction")
    top1_id, _ = query_top1(db.index, embedding)
    clock.lap("embedding_matching")
    return LocalizationResult(
        estimated_pose=db.frame_by_id(top1_id).pose,
        top1_frame_id=top1_id,
        match_count=0,
        inlier_count=0,
        fallback=True,
        timings=clock.timings(),
        query_point_id=query.point_id,
        query_frame_id=query.frame_id,
    )


# --- results file ------------------------------------------------------------------


def result_to_csv_line(r: LocalizationResult) -> str:
    p = r.estimated_pose
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
        f"{r.timings.retrieval:.9f}",
        f"{r.timings.matching:.9f}",
        f"{r.timings.registration:.9f}",
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


def read_results(path: str | Path) -> list[ResultRow]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 14:
            raise ValueError(f"{path}:{lineno}: expected 14 fields, got {len(parts)}")
        pose = pose_from_text(" ".join(parts[4:11]))
        rows.append(
            ResultRow(
                query_frame_id=int(parts[0]),
                query_point_id=int(parts[1]),
                top1_frame_id=int(parts[2]),
                fallback=parts[3] == "1",
                pose=pose,
                t_retrieval=float(parts[11]),
                t_matching=float(parts[12]),
                t_registration=float(parts[13]),
            )
        )
    return rows


# --- database file -----------------------------------------------------------------

_DB_MAGIC = b"PLDB"
_DB_VERSION = 1


def save_database(db: LocalizationDatabase, path: str | Path) -> None:
    """Flat deterministic binary dump of a LocalizationDatabase."""
    k = db.intrinsics
    with open(path, "wb") as fh:
        fh.write(_DB_MAGIC)
        fh.write(struct.pack(">I", _DB_VERSION))
        variant_code = 0 if db.variant == VARIANT_BOW else 1
        fh.write(struct.pack(">B", variant_code))
        fh.write(struct.pack(">ddddII", k.fx, k.fy, k.cx, k.cy, k.width, k.height))
        fh.write(struct.pack(">I", db.vocabulary.k))
        fh.write(struct.pack(">q", db.vocabulary.training_seed))
        fh.write(np.ascontiguousarray(db.vocabulary.centroids, dtype=np.uint8).tobytes())
        fh.write(np.ascontiguousarray(db.vocabulary.idf, dtype=">f8").tobytes())
        fh.write(struct.pack(">I", len(db.frames)))
        dim = db.index.matrix.shape[1]
        fh.write(struct.pack(">I", dim))
        for f in db.frames:
            fh.write(struct.pack(">II", f.frame_id, f.point_id))
            fh.write((pose_to_text(f.pose) + "\n").encode("ascii"))
            fh.write(struct.pack(">I", len(f.keypoint_xy)))
            fh.write(np.ascontiguousarray(f.keypoint_xy, dtype=">f8").tobytes())
            fh.write(np.ascontiguousarray(f.descriptors, dtype=np.uint8).tobytes())
            fh.write(np.ascontiguousarray(f.embedding.values, dtype=">f8").tobytes())
            h, w = f.depth.shape
            fh.write(struct.pack(">II", h, w))
            depth_u16 = np.round(np.asarray(f.depth) * 65535.0).astype(">u2")
            fh.write(depth_u16.tobytes())


class DatabaseFormatError(ValueError):
    """A database file that is truncated, corrupt or of another format."""


_POSE_LINE_LIMIT = 512  # a pose is 7 numbers in at most 25 characters each


def load_database(path: str | Path) -> LocalizationDatabase:
    from pointloc.render import DEPTH_LEVELS

    with open(path, "rb") as fh:
        r = ExactReader(fh, path, DatabaseFormatError)
        if r.read(4, "magic") != _DB_MAGIC:
            raise r.fail("not a localization database file")
        (version,) = r.unpack(">I", "version")
        if version != _DB_VERSION:
            raise r.fail(f"unsupported database version {version}")
        (variant_code,) = r.unpack(">B", "variant")
        if variant_code not in (0, 1):
            raise r.fail(f"unknown retrieval variant code {variant_code}")
        variant = VARIANT_BOW if variant_code == 0 else VARIANT_VLAD
        fx, fy, cx, cy, width, height = r.unpack(">ddddII", "intrinsics")
        try:
            intrinsics = CameraIntrinsics(fx, fy, cx, cy, width, height)
        except ValueError as e:
            raise r.fail(f"bad intrinsics: {e}") from e
        (vocab_k,) = r.unpack(">I", "vocabulary size")
        (seed,) = r.unpack(">q", "vocabulary seed")
        centroids = r.array(vocab_k * DESCRIPTOR_BYTES, np.uint8, "vocabulary centroids")
        centroids = centroids.reshape(vocab_k, DESCRIPTOR_BYTES).copy()
        idf = r.array(vocab_k, ">f8", "vocabulary idf").astype(np.float64)
        vocab = Vocabulary(vocab_k, centroids, idf, seed)
        n_frames, dim = r.unpack(">II", "frame count")
        frames = []
        for i in range(n_frames):
            where = f"frame {i}"
            frame_id, point_id = r.unpack(">II", f"{where} ids")
            try:
                pose = pose_from_text(r.line(_POSE_LINE_LIMIT, f"{where} pose").decode("ascii"))
            except ValueError as e:  # also UnicodeDecodeError
                raise r.fail(f"bad {where} pose: {e}") from e
            (n_kp,) = r.unpack(">I", f"{where} keypoint count")
            xy = r.array(n_kp * 2, ">f8", f"{where} keypoints").astype(np.float64)
            xy = xy.reshape(n_kp, 2)
            desc = r.array(n_kp * DESCRIPTOR_BYTES, np.uint8, f"{where} descriptors")
            desc = desc.reshape(n_kp, DESCRIPTOR_BYTES).copy()
            emb = r.array(dim, ">f8", f"{where} embedding").astype(np.float64)
            h, w = r.unpack(">II", f"{where} depth size")
            depth = r.array(h * w, ">u2", f"{where} depth").astype(np.float64)
            depth = depth.reshape(h, w) / DEPTH_LEVELS
            frames.append(
                DatabaseFrame(
                    frame_id=frame_id,
                    point_id=point_id,
                    pose=pose,
                    keypoint_xy=xy,
                    descriptors=desc,
                    depth=depth,
                    embedding=GlobalEmbedding(emb, variant),
                )
            )
        r.expect_end("the last frame")
    index = build_index([f.frame_id for f in frames], [f.embedding for f in frames])
    return LocalizationDatabase(tuple(frames), vocab, index, intrinsics, variant)


def train_vocabulary_for_dataset(
    groups: Iterable[PointGroup], k: int, seed: int, config: PipelineConfig
) -> Vocabulary:
    """Vocabulary over the descriptors of all database frames (queries unseen)."""
    from pointloc.retrieval import train_vocabulary

    per_frame = []
    for g in groups:
        for f in g.database_frames:
            _, desc = extract_frame_features(f, config)
            per_frame.append(desc)
    return train_vocabulary(per_frame, k=k, seed=seed)
