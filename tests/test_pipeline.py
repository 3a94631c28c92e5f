from __future__ import annotations

import struct
import threading
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import camera_yaw, generate_scene_dataset, inverse
from oracles import lift_cloud_scalar, lift_matches_scalar

from pointloc import pipeline
from pointloc.dataset import GenerationParams
from pointloc.features import DESCRIPTOR_BITS
from pointloc.geometry import CameraIntrinsics, Pose, compose, rotation_error, translation_error
from pointloc.pipeline import (
    INVALID_DEPTH_MAX,
    DatabaseFormatError,
    DatabaseFrame,
    LocalizationDatabase,
    LocalizationResult,
    PipelineConfig,
    StageTimings,
    backproject_keypoints,
    ResultsFormatError,
    build_database,
    keypoint_depths,
    load_database,
    localize,
    parse_config,
    read_results,
    result_to_csv_line,
    save_database,
    train_vocabulary_for_dataset,
    write_results,
)
from pointloc.render import DEPTH_LEVELS, Frame
from pointloc.retrieval import EmptyIndexError, Vocabulary, assign_words
from pointloc.scene import SceneParams

PARAMS = GenerationParams(
    queries_per_point=6,
    noise_factor=0.0,
    resolution=256,
    scene=SceneParams(floor_width=8.0, floor_depth=8.0, min_obstacles=5, max_obstacles=7),
)


@pytest.fixture(scope="module")
def scene_and_groups():
    return generate_scene_dataset(seed=11, params=PARAMS)


@pytest.fixture(scope="module")
def dataset(scene_and_groups):
    return scene_and_groups[1]


@pytest.fixture(scope="module")
def vocab(dataset):
    cfg = PipelineConfig()
    return train_vocabulary_for_dataset(dataset, k=64, seed=0, config=cfg)


@pytest.fixture(scope="module")
def db(dataset, vocab):
    return build_database(dataset, vocab, PipelineConfig(), PARAMS.intrinsics())


# values for each key of the hand-listed config table, mostly ones its parser takes
CONFIG_VALUES = {
    str: ("vlad", "bow", "gnc", "umeyama", "ransac+icp", "test-rig", ""),
    int: ("1", "3", "20", "1000", "-1", "0.5"),
    float: ("0.7", "1", "1e-6", "0.05", "nan", "x"),
    pipeline._parse_bool: ("true", "off", "1", "maybe"),
}
config_lines = st.sampled_from([*oracles.CONFIG_PARSERS, "bogus"]).flatmap(
    lambda key: st.tuples(
        st.just(key), st.sampled_from(CONFIG_VALUES[oracles.CONFIG_PARSERS.get(key, str)])
    )
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.retrieval == "vlad"
        assert cfg.method == "gnc"

    def test_round_trip(self):
        cfg = PipelineConfig(retrieval="bow", method="ransac+icp", ratio=0.75, mutual=False)
        text = "retrieval = bow\nmethod = ransac+icp\nratio = 0.75\nmutual = false\n"
        assert parse_config(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("bogus = 1\n")

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(method="pnp")

    def test_min_matches_floor(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_matches=2)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_keypoints", 0), ("max_keypoints", -1),
            ("fast_threshold", -1), ("fast_threshold", 256), ("fast_threshold", 40000),
            ("ratio", 0.0), ("ratio", -0.5), ("ratio", 1.5), ("ratio", float("nan")),
            ("ransac_threshold", 0.0), ("ransac_threshold", -0.1),
            ("ransac_iters", 0), ("icp_iters", -1), ("icp_tol", -1e-9),
            ("gnc_noise_bound", 0.0), ("gnc_noise_bound", float("nan")),
            ("ransac_threshold", float("inf")), ("icp_tol", float("inf")),
            ("gnc_noise_bound", float("inf")),
        ],
    )
    def test_out_of_range_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            PipelineConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{key} must be"):
            parse_config(f"{key} = {value}\n")

    def test_range_edges_accepted(self):
        cfg = PipelineConfig(
            max_keypoints=1, fast_threshold=255, ratio=1.0, ransac_iters=1,
            icp_iters=0, icp_tol=0.0, ransac_threshold=1e-9, gnc_noise_bound=1e-9,
        )
        text = (
            "max_keypoints = 1\nfast_threshold = 255\nratio = 1.0\nransac_iters = 1\n"
            "icp_iters = 0\nicp_tol = 0.0\nransac_threshold = 1e-9\ngnc_noise_bound = 1e-9\n"
        )
        assert parse_config(text) == cfg
        assert PipelineConfig(fast_threshold=0).fast_threshold == 0

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nratio = 0.7  # inline\n")
        assert cfg.ratio == 0.7

    def test_boolean_values(self):
        for text, want in (("1", True), ("true", True), ("Yes", True), ("ON", True),
                           ("0", False), ("FALSE", False), ("no", False), ("Off", False)):
            cfg = parse_config(f"mutual = {text}\nrecord_timings = {text}\n")
            assert cfg.mutual is want and cfg.record_timings is want
        for key in ("mutual", "record_timings"):
            for text in ("", "2", "treu", "y", "disabled"):
                with pytest.raises(ValueError, match=f"'{key}' on line 2"):
                    parse_config(f"ratio = 0.7\n{key} = {text}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate config key 'method' on line 3"):
            parse_config("method = gnc\nratio = 0.7\nmethod = umeyama\n")

    def test_parsers_follow_the_fields(self):
        """One parser per PipelineConfig field, in field order, as the
        hand-listed table had them."""
        assert list(pipeline._CONFIG_PARSERS.items()) == list(oracles.CONFIG_PARSERS.items())

    def test_readme_block_lists_every_key_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("The config file is `key = value` text", 1)[1]
        block = block.split("```\n", 2)[1]
        assert parse_config(block) == PipelineConfig()
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines()]
        assert keys == [f.name for f in fields(PipelineConfig)]

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(config_lines, max_size=6),
        edit=st.sampled_from(["none", "cut", "flip"]),
        at=st.integers(0, 2**32),
        bit=st.integers(0, 7),
    )
    def test_same_value_or_error_as_listed_parsers(self, lines, edit, at, bit):
        data = bytearray("".join(f"{k} = {v}\n" for k, v in lines).encode("ascii"))
        if edit == "cut" and data:
            data = data[: at % len(data)]
        elif edit == "flip" and data:
            data[at % len(data)] ^= 1 << bit
        text = data.decode("latin-1")
        outcomes = []
        for parse in (oracles.parse_config, parse_config):
            try:
                outcomes.append(parse(text))
            except ValueError as e:
                outcomes.append(e)
        listed, derived = outcomes
        if isinstance(derived, PipelineConfig):
            assert derived == listed
        elif isinstance(listed, PipelineConfig):  # the one check the listed parser lacked
            assert str(derived).startswith("duplicate config key"), derived


class TestBuildDatabase:
    def test_six_frames_per_point(self, dataset, db):
        assert len(db.frames) == 6 * len(dataset)
        per_point = {}
        for f in db.frames:
            per_point[f.point_id] = per_point.get(f.point_id, 0) + 1
        assert set(per_point.values()) == {6}

    def test_frame_count_formula_23_points(self):
        # 23 points -> 138 database frames by construction
        assert 23 * 6 == 138

    def test_only_database_frames_used(self, dataset, db):
        db_poses = {f.pose for f in db.frames}
        for g in dataset:
            for q in g.query_frames:
                assert q.pose not in db_poses

    def test_rebuild_identical_embeddings(self, dataset, vocab):
        cfg = PipelineConfig()
        a = build_database(dataset, vocab, cfg, PARAMS.intrinsics())
        b = build_database(dataset, vocab, cfg, PARAMS.intrinsics())
        for name in ("matrix", "columns", "row_starts"):
            assert np.array_equal(getattr(a.index, name), getattr(b.index, name)), name

    def test_empty_dataset_rejected(self, vocab):
        with pytest.raises(ValueError):
            build_database([], vocab, PipelineConfig(), PARAMS.intrinsics())

    def test_holds_one_group_at_a_time(self, dataset, vocab):
        """A group is freed before the one after next is read, so a build
        holds one Point's rasters, not the dataset's; frames keep the
        input order, here descending point ids."""
        chosen = dataset[:4][::-1]
        held = []

        def groups():
            for i, g in enumerate(chosen):
                if i >= 2:
                    assert held[i - 2]() is None, f"group {i - 2} is still held"
                group = replace(g)
                held.append(weakref.ref(group))
                yield group

        built = build_database(groups(), vocab, PipelineConfig(), PARAMS.intrinsics())
        expected = [f.pose for g in chosen for f in g.database_frames]
        assert [f.pose for f in built.frames] == expected

    def test_index_size_matches_frames(self, db):
        assert len(db.index) == len(db.frames)


class TestLocalize:
    def test_self_localization_exact(self, dataset, db):
        cfg = PipelineConfig()
        frame = dataset[0].database_frames[3]
        res = localize(db, frame, cfg)
        assert not res.fallback
        assert translation_error(res.estimated_pose, frame.pose) < 1e-6
        assert rotation_error(res.estimated_pose, frame.pose) < 1e-4

    def test_featureless_query_falls_back(self, dataset, db):
        cfg = PipelineConfig()
        template = dataset[0].query_frames[0]
        flat = Frame(
            rgb=np.full_like(template.rgb, 128),
            depth=template.depth.copy(),
            instances=template.instances.copy(),
            pose=template.pose,
            point_id=template.point_id,
            frame_id=template.frame_id,
            is_database=False,
        )
        res = localize(db, flat, cfg)
        assert res.fallback
        assert res.inlier_count == 0
        assert res.estimated_pose == db.frames[res.top1_frame_id].pose

    def test_umeyama_self_queries_never_fall_back(self, dataset, db):
        cfg = PipelineConfig(method="umeyama")
        for g in dataset[:3]:
            for frame in g.database_frames[:2]:
                assert not localize(db, frame, cfg).fallback

    def test_composition_direction_wiring(self, dataset):
        # ground-truth relative transform composed exactly as localize does
        p_gt = dataset[0].query_frames[0].pose
        p_db = dataset[0].database_frames[0].pose
        relative = compose(inverse(p_db), p_gt)
        recomposed = compose(p_db, relative)
        assert translation_error(recomposed, p_gt) < 1e-9
        assert rotation_error(recomposed, p_gt) < 1e-7

    def test_nearby_query_accuracy_gnc(self, dataset, db):
        cfg = PipelineConfig(method="gnc")
        hits = 0
        total = 0
        for g in dataset[:4]:
            for q in g.query_frames[:2]:
                res = localize(db, q, cfg)
                total += 1
                if (
                    not res.fallback
                    and translation_error(res.estimated_pose, q.pose) < 0.05
                    and rotation_error(res.estimated_pose, q.pose) < 2.0
                ):
                    hits += 1
        assert hits / total >= 0.5  # noiseless nearby queries mostly nailed

    def test_query_030m_from_database_frame_gnc(self, scene_and_groups, dataset, db):
        """A noiseless query rendered 0.3 m from a database frame localizes
        within 0.05 m / 2 degrees with the gnc configuration."""
        import math

        from pointloc.render import render
        from pointloc.scene import camera_pose

        scene = scene_and_groups[0]
        group = dataset[0]
        anchor = group.database_frames[0]
        yaw = camera_yaw(anchor.pose) + math.radians(12.0)
        position = None
        for angle in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            cand = anchor.pose.translation + 0.3 * np.array(
                [math.cos(angle), math.sin(angle), 0.0]
            )
            if scene.is_free(cand):
                position = cand
                break
        assert position is not None
        query = render(scene, camera_pose(position, yaw), PARAMS.intrinsics())
        res = localize(db, query, PipelineConfig(method="gnc"))
        assert not res.fallback
        assert translation_error(res.estimated_pose, query.pose) < 0.05
        assert rotation_error(res.estimated_pose, query.pose) < 2.0

    def test_ransac_icp_method_runs(self, dataset, db):
        cfg = PipelineConfig(method="ransac+icp")
        frame = dataset[0].database_frames[1]
        res = localize(db, frame, cfg)
        assert not res.fallback
        assert translation_error(res.estimated_pose, frame.pose) < 0.05

    def test_durations_sum_close_to_total(self, dataset, db):
        cfg = PipelineConfig()
        res = localize(db, dataset[0].query_frames[0], cfg)
        t = res.timings
        stage_sum = (
            t.feature_extraction
            + t.embedding_extraction
            + t.embedding_matching
            + t.feature_matching
            + t.pose_optimization
        )
        assert stage_sum <= t.overall
        assert stage_sum >= 0.9 * t.overall

    def test_record_timings_off_gives_zeros(self, dataset, db):
        cfg = PipelineConfig(record_timings=False)
        res = localize(db, dataset[0].query_frames[0], cfg)
        assert res.timings == StageTimings()

    def test_fallback_invariant_enforced(self):
        with pytest.raises(ValueError):
            LocalizationResult(
                estimated_pose=Pose.identity(),
                top1_frame_id=0,
                match_count=5,
                inlier_count=3,
                fallback=True,
                timings=StageTimings(),
            )


# the first and last valid levels and their invalid neighbours:
# 65469 / 65535 < INVALID_DEPTH_MAX <= 65470 / 65535
VALIDITY_EDGE_LEVELS = (0, 1, 65469, 65470, DEPTH_LEVELS)


def keypoint_frame(rng, n, h=24, w=32):
    """n keypoints with fractional and exact-half coordinates, and a raster
    of depth levels mixing uniform levels with the validity edges."""
    xy = np.stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)], axis=1)
    halves = rng.random(n) < 0.3
    xy[halves] = rng.integers(0, [w - 1, h - 1], (halves.sum(), 2)) + 0.5
    levels = rng.integers(0, DEPTH_LEVELS, (h, w), endpoint=True).astype(np.uint16)
    marked = rng.random((h, w)) < 0.3
    levels[marked] = rng.choice(VALIDITY_EDGE_LEVELS, marked.sum())
    return xy, levels


class TestKeypointLifting:
    K = CameraIntrinsics(fx=30.0, fy=29.0, cx=15.5, cy=11.5, width=32, height=24)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_query=st.integers(0, 30),
        n_db=st.integers(0, 30),
        n_matches=st.integers(0, 40),
    )
    def test_matches_scalar_lifting(self, seed, n_query, n_db, n_matches):
        rng = np.random.default_rng(seed)
        q_xy, q_levels = keypoint_frame(rng, n_query)
        d_xy, d_levels = keypoint_frame(rng, n_db)
        # the oracles lift normalized depth rasters
        q_depth, d_depth = q_levels / DEPTH_LEVELS, d_levels / DEPTH_LEVELS
        if n_query == 0 or n_db == 0:
            n_matches = 0
        qi, di = np.array(
            [(rng.integers(n_query), rng.integers(n_db)) for _ in range(n_matches)], dtype=np.int64
        ).reshape(-1, 2).T
        q_points, q_valid = backproject_keypoints(q_xy, keypoint_depths(q_levels, q_xy), self.K)
        d_points, d_valid = backproject_keypoints(d_xy, keypoint_depths(d_levels, d_xy), self.K)
        assert np.array_equal(q_points[q_valid], lift_cloud_scalar(q_xy, q_depth, self.K))
        assert np.array_equal(d_points[d_valid], lift_cloud_scalar(d_xy, d_depth, self.K))

        # the matched pairs as localize selects them
        lifted = q_valid[qi] & d_valid[di]
        want_q, want_d = lift_matches_scalar(q_xy, q_depth, d_xy, d_depth, qi, di, self.K)
        assert np.array_equal(q_points[qi[lifted]], want_q)
        assert np.array_equal(d_points[di[lifted]], want_d)

    def test_depth_validity_edges(self):
        depth = np.array([VALIDITY_EDGE_LEVELS], dtype=np.uint16)
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.4, 0.4], [2.6, -0.4], [4.0, 0.0]])
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=0.0, width=5, height=1)
        points, valid = backproject_keypoints(xy, keypoint_depths(depth, xy), k)
        assert valid.tolist() == [False, True, True, False, False]
        assert points.shape == (5, 3)
        none = np.zeros((0, 2))
        points, valid = backproject_keypoints(none, keypoint_depths(depth, none), k)
        assert points.shape == (0, 3) and valid.shape == (0,)

    def test_every_level_lifts_as_normalized_depth(self):
        """All 65,536 levels, one per pixel of a 256 x 256 raster: lifting
        the uint16 levels gives the points and validity of the scalar oracle
        on the normalized depth n / 65535."""
        k = CameraIntrinsics(fx=200.0, fy=190.0, cx=127.5, cy=127.5, width=256, height=256)
        levels = np.arange(DEPTH_LEVELS + 1, dtype=np.uint16).reshape(256, 256)
        vs, us = np.mgrid[0:256, 0:256]
        xy = np.stack([us.ravel(), vs.ravel()], axis=1).astype(np.float64)
        points, valid = backproject_keypoints(xy, keypoint_depths(levels, xy), k)
        normalized = levels.astype(np.float64) / DEPTH_LEVELS  # what frames used to hold
        in_range = (0.0 < normalized) & (normalized < INVALID_DEPTH_MAX)
        assert np.array_equal(valid, in_range.ravel())
        assert points[valid].tobytes() == lift_cloud_scalar(xy, normalized, k).tobytes()


class TestRetrievalOnly:
    def test_pose_is_top1_pose(self, dataset, db):
        cfg = PipelineConfig()
        q = dataset[1].query_frames[0]
        res = localize(db, q, cfg, retrieval_only=True)
        assert res.fallback
        assert res.match_count == 0 and res.inlier_count == 0
        assert res.estimated_pose == db.frames[res.top1_frame_id].pose

    def test_db_frame_query_returns_exact_pose(self, dataset, db):
        cfg = PipelineConfig()
        frame = dataset[2].database_frames[4]
        res = localize(db, frame, cfg, retrieval_only=True)
        assert res.estimated_pose == frame.pose

    def test_error_equals_retrieved_frame_error(self, dataset, db):
        cfg = PipelineConfig()
        q = dataset[0].query_frames[1]
        res = localize(db, q, cfg, retrieval_only=True)
        retrieved_pose = db.frames[res.top1_frame_id].pose
        assert translation_error(res.estimated_pose, q.pose) == translation_error(
            retrieved_pose, q.pose
        )

    def test_same_top1_as_full_localize(self, dataset, db):
        cfg = PipelineConfig(record_timings=False)
        for g in dataset:
            for q in g.query_frames:
                full = localize(db, q, cfg)
                res = localize(db, q, cfg, retrieval_only=True)
                assert res.top1_frame_id == full.top1_frame_id
                assert res.fallback and res.match_count == 0 and res.inlier_count == 0
                assert res.estimated_pose == db.frames[res.top1_frame_id].pose

    def test_timings_stop_after_retrieval(self, dataset, db):
        res = localize(db, dataset[0].query_frames[0], PipelineConfig(), retrieval_only=True)
        t = res.timings
        assert t.feature_matching == 0.0 and t.pose_optimization == 0.0
        retrieval = t.embedding_extraction + t.embedding_matching
        assert 0.0 < t.feature_extraction + retrieval <= t.overall


class TestResultsFile:
    def make_result(self, i):
        return LocalizationResult(
            estimated_pose=Pose.identity(),
            top1_frame_id=i,
            match_count=10,
            inlier_count=7,
            fallback=False,
            timings=StageTimings(0.01, 0.002, 0.001, 0.02, 0.005, 0.04),
            query_point_id=3,
            query_frame_id=i,
        )

    def test_line_has_14_fields(self):
        line = result_to_csv_line(self.make_result(0))
        assert len(line.split(",")) == 14

    def test_round_trip(self, tmp_path):
        results = [self.make_result(i) for i in range(5)]
        write_results(results, tmp_path / "r.csv")
        rows = read_results(tmp_path / "r.csv")
        assert len(rows) == 5
        for r, row in zip(results, rows):
            assert row.query_frame_id == r.query_frame_id
            assert row.query_point_id == r.query_point_id
            assert row.top1_frame_id == r.top1_frame_id
            assert row.fallback == r.fallback
            assert row.pose == r.estimated_pose
            t = r.timings
            assert row.t_retrieval == pytest.approx(
                t.embedding_extraction + t.embedding_matching, abs=1e-9
            )

    def test_malformed_line_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1,2,3\n")
        with pytest.raises(ValueError):
            read_results(tmp_path / "bad.csv")

    @pytest.mark.parametrize(
        "field, value",
        [(0, "x"), (1, "1.5"), (2, ""), (3, "x"), (3, "2"), (3, ""), (3, "true"),
         (4, "abc"), (7, "nan"), (10, "inf"), (11, "-"), (13, "1e999")],
    )
    def test_bad_field_names_file_and_line(self, tmp_path, field, value):
        lines = [result_to_csv_line(self.make_result(i)) for i in range(3)]
        parts = lines[1].split(",")
        parts[field] = value
        lines[1] = ",".join(parts)
        (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ResultsFormatError, match=r"r\.csv:2: "):
            read_results(tmp_path / "r.csv")

    def test_field_count_and_encoding_are_format_errors(self, tmp_path):
        line = result_to_csv_line(self.make_result(0))
        (tmp_path / "r.csv").write_text(line + "\n" + line + ",0\n")
        with pytest.raises(ResultsFormatError, match=r"r\.csv:2: expected 14 fields"):
            read_results(tmp_path / "r.csv")
        (tmp_path / "r.csv").write_bytes(line.encode() + b"\xff\n")
        with pytest.raises(ResultsFormatError, match=r"r\.csv"):
            read_results(tmp_path / "r.csv")


def record_offsets(data: bytes, vocab_k: int) -> tuple[int, int]:
    """(offset, keypoint count) of frame 0's record in a database file: the
    fixed header, the vocabulary, then the u32 frame count."""
    at = 65 + 40 * vocab_k
    return at, int.from_bytes(data[at + 64 : at + 68], "big")


class TestDatabaseFile:
    def test_round_trip(self, db, tmp_path):
        self.assert_round_trip(db, tmp_path / "db.bin")

    def test_bow_round_trip(self, dataset, vocab, tmp_path):
        bow = build_database(dataset, vocab, PipelineConfig(retrieval="bow"), PARAMS.intrinsics())
        self.assert_round_trip(bow, tmp_path / "db.bin")

    @staticmethod
    def assert_round_trip(db, path):
        save_database(db, path)
        loaded = load_database(path)
        assert len(loaded.frames) == len(db.frames)
        assert loaded.variant == db.variant
        assert loaded.vocabulary == db.vocabulary
        assert loaded.intrinsics == db.intrinsics
        # the rebuilt rows are the built ones, bit for bit
        for name in ("matrix", "columns", "row_starts"):
            assert getattr(loaded.index, name).tobytes() == getattr(db.index, name).tobytes(), name
        for a, b in zip(db.frames, loaded.frames):
            assert a.point_id == b.point_id
            assert a.pose == b.pose
            assert np.array_equal(a.keypoint_xy, b.keypoint_xy)
            assert np.array_equal(a.descriptors, b.descriptors)
            assert a.keypoint_depth.dtype == b.keypoint_depth.dtype == np.uint16
            assert a.keypoint_depth.tobytes() == b.keypoint_depth.tobytes()
            assert np.array_equal(a.words, b.words)

    def test_loading_holds_no_dense_index(self, tmp_path):
        """Loading a k = 256 vlad database never allocates the dense (n, dim)
        float64 row matrix: numpy reports its allocations to tracemalloc,
        and the peak stays far below that matrix's size."""
        import tracemalloc

        rng = np.random.default_rng(5)
        k, n = 256, 96
        vocab = Vocabulary(k, rng.integers(0, 256, (k, 32), dtype=np.uint8), np.ones(k), 0)
        intrinsics = PARAMS.intrinsics()
        frames = []
        for i in range(n):
            desc = rng.integers(0, 256, (30, 32), dtype=np.uint8)
            xy = rng.integers(0, 256, (30, 2)).astype(np.float64)
            depth = rng.integers(1, 65000, 30).astype(np.uint16)
            words = assign_words(desc, vocab.centroids)
            frames.append(DatabaseFrame(i, Pose.identity(), xy, desc, depth, words))
        db = LocalizationDatabase(
            tuple(frames), vocab, pipeline._index(frames, vocab, "vlad"), intrinsics, "vlad"
        )
        save_database(db, tmp_path / "db.bin")
        dense_bytes = n * k * DESCRIPTOR_BITS * 8
        tracemalloc.start()
        try:
            loaded = load_database(tmp_path / "db.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.index.matrix.nbytes < dense_bytes / 10
        assert peak < dense_bytes / 4, (peak, dense_bytes)

    def test_frame_ids_are_record_positions(self, db, tmp_path):
        """Version 1 stored each frame's id and took it on trust: ids 1, 0,
        4000 loaded, frame 0 then answered with frame 1 and a top-1 of
        4000 raised IndexError at query time.  Version 2 stores no id: frame
        i is the i-th record, whose point id and pose come back as frame i."""
        save_database(db, tmp_path / "db.bin")
        data = (tmp_path / "db.bin").read_bytes()
        loaded = load_database(tmp_path / "db.bin")
        at, _ = record_offsets(data, db.vocabulary.k)
        assert int.from_bytes(data[at - 4 : at], "big") == len(loaded.frames)
        for built, frame in zip(db.frames, loaded.frames):
            point_id, *pose, _ = struct.unpack_from(">I7dI", data, at + 4)
            q = frame.pose.rotation
            assert point_id == frame.point_id == built.point_id
            assert pose == [*frame.pose.translation, q.w, q.x, q.y, q.z]
            assert frame.pose == built.pose
            at += 4 + int.from_bytes(data[at : at + 4], "big")
        assert at == len(data)
        assert len(loaded.index) == len(loaded.frames)

    def test_byte_deterministic(self, db, tmp_path):
        save_database(db, tmp_path / "a.bin")
        save_database(db, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_stores_no_raster_and_no_embedding(self, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        keypoints = sum(len(f.keypoint_xy) for f in db.frames)
        expected = 65 + 40 * db.vocabulary.k + len(db.frames) * 68 + 54 * keypoints
        assert (tmp_path / "db.bin").stat().st_size == expected

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_database(tmp_path / "x.bin")

    @staticmethod
    def load_error(path, seconds=30.0):
        """The exception load_database raises on path, failing the test if
        the call has not returned within the time bound."""
        box = {}

        def run():
            try:
                load_database(path)
            except Exception as e:  # reported to the test below
                box["error"] = e

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(seconds)
        assert not worker.is_alive(), f"load_database({path}) still running after {seconds}s"
        return box.get("error")

    def test_truncation_is_format_error(self, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        data = (tmp_path / "db.bin").read_bytes()
        record, n = record_offsets(data, db.vocabulary.k)
        cuts = [0, 2, 4, 8, 9, 30, 60, record - 4, record, record + 4, record + 40,
                record + 68, record + 68 + 54 * n - 1, record + 68 + 54 * n, len(data) - 1]
        for cut in cuts:
            (tmp_path / "cut.bin").write_bytes(data[:cut])
            error = self.load_error(tmp_path / "cut.bin")
            assert isinstance(error, DatabaseFormatError), (cut, error)

    def test_unknown_variant_and_trailing_bytes_rejected(self, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        data = (tmp_path / "db.bin").read_bytes()
        assert data[8] == 1  # vlad
        (tmp_path / "variant.bin").write_bytes(data[:8] + b"\x02" + data[9:])
        with pytest.raises(DatabaseFormatError, match="variant"):
            load_database(tmp_path / "variant.bin")
        (tmp_path / "long.bin").write_bytes(data + b"\x00")
        with pytest.raises(DatabaseFormatError, match="after the last frame"):
            load_database(tmp_path / "long.bin")

    def test_version_1_rejected(self, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        data = (tmp_path / "db.bin").read_bytes()
        (tmp_path / "v1.bin").write_bytes(data[:4] + (1).to_bytes(4, "big") + data[8:])
        with pytest.raises(DatabaseFormatError, match="unsupported database version 1"):
            load_database(tmp_path / "v1.bin")

    @pytest.mark.parametrize("what", ["word", "keypoint", "nan keypoint", "length", "count"])
    def test_inconsistent_record_rejected(self, db, tmp_path, what):
        save_database(db, tmp_path / "db.bin")
        data = bytearray((tmp_path / "db.bin").read_bytes())
        k = db.vocabulary.k
        at, n = record_offsets(data, k)
        assert n > 0
        xy, words = at + 68, at + 68 + 50 * n
        if what == "word":
            data[words : words + 4] = k.to_bytes(4, "big")
            message = "word id outside"
        elif what == "keypoint":  # u rounds to the raster width
            data[xy : xy + 8] = struct.pack(">d", PARAMS.resolution - 0.5)
            message = "keypoint outside"
        elif what == "nan keypoint":
            data[xy + 8 : xy + 16] = struct.pack(">d", float("nan"))
            message = "keypoint outside"
        elif what == "length":
            length = int.from_bytes(data[at : at + 4], "big")
            data[at : at + 4] = (length - 54).to_bytes(4, "big")
            message = f"record of {length - 54} bytes does not hold {n} keypoints"
        else:
            data[at + 64 : at + 68] = (n - 1).to_bytes(4, "big")
            message = f"does not hold {n - 1} keypoints"
        (tmp_path / "bad.bin").write_bytes(bytes(data))
        with pytest.raises(DatabaseFormatError, match=message):
            load_database(tmp_path / "bad.bin")

    @staticmethod
    def small_database(db):
        """Three frames of five keypoints each: a file small enough to cut
        at every byte."""
        frames = tuple(
            DatabaseFrame(
                f.point_id, f.pose, f.keypoint_xy[:5], f.descriptors[:5],
                f.keypoint_depth[:5], f.words[:5],
            )
            for f in db.frames[:3]
        )
        vocab = db.vocabulary
        return replace(db, frames=frames, index=pipeline._index(frames, vocab, db.variant))

    def test_every_cut_is_format_error(self, db, tmp_path, assert_each_rejected):
        save_database(self.small_database(db), tmp_path / "small.bin")
        data = (tmp_path / "small.bin").read_bytes()
        assert_each_rejected(
            load_database, [data[:cut] for cut in range(len(data))], DatabaseFormatError
        )

    @settings(max_examples=60, deadline=None)
    @given(flips=st.lists(st.integers(0, 2**40), min_size=1, max_size=4))
    def test_bit_flips_load_or_raise(self, db, tmp_path_factory, flips):
        """Every bit-flipped file either loads or raises DatabaseFormatError,
        within the time bound."""
        path = tmp_path_factory.mktemp("flip") / "db.bin"
        save_database(self.small_database(db), path)
        data = bytearray(path.read_bytes())
        for flip in flips:
            data[flip // 8 % len(data)] ^= 1 << (flip % 8)
        path.write_bytes(bytes(data))
        error = self.load_error(path)
        assert error is None or isinstance(error, DatabaseFormatError), error

    def test_localize_from_loaded_database(self, dataset, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        loaded = load_database(tmp_path / "db.bin")
        frame = dataset[0].database_frames[0]
        a = localize(db, frame, PipelineConfig(record_timings=False))
        b = localize(loaded, frame, PipelineConfig(record_timings=False))
        assert a.estimated_pose == b.estimated_pose
        assert a.top1_frame_id == b.top1_frame_id

    def test_empty_database_query_raises(self, vocab):
        from pointloc.retrieval import RetrievalIndex, query_top1

        with pytest.raises(EmptyIndexError):
            query_top1(RetrievalIndex(np.zeros((0, 4)), 4), np.zeros(4))
