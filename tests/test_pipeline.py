from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lift_cloud_scalar, lift_matches_scalar

from pointloc.dataset import GenerationParams, generate_scene_dataset
from pointloc.features import Match
from pointloc.geometry import CameraIntrinsics, Pose, compose, inverse, rotation_error, translation_error
from pointloc.pipeline import (
    INVALID_DEPTH_MAX,
    DatabaseFormatError,
    LocalizationResult,
    PipelineConfig,
    StageTimings,
    backproject_keypoints,
    build_database,
    config_to_text,
    load_database,
    localize,
    parse_config,
    read_results,
    result_to_csv_line,
    retrieval_only_localize,
    save_database,
    train_vocabulary_for_dataset,
    write_results,
)
from pointloc.render import Frame
from pointloc.retrieval import EmptyIndexError
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


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.retrieval == "vlad"
        assert cfg.method == "gnc"

    def test_round_trip(self):
        cfg = PipelineConfig(retrieval="bow", method="ransac+icp", ratio=0.75, mutual=False)
        assert parse_config(config_to_text(cfg)) == cfg

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
        assert parse_config(config_to_text(cfg)) == cfg
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
        assert np.array_equal(a.index.matrix, b.index.matrix)

    def test_empty_dataset_rejected(self, vocab):
        with pytest.raises(ValueError):
            build_database([], vocab, PipelineConfig(), PARAMS.intrinsics())

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
        assert res.estimated_pose == db.frame_by_id(res.top1_frame_id).pose

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
        from pointloc.scene import camera_pose, camera_yaw

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
        assert stage_sum <= t.total
        assert stage_sum >= 0.9 * t.total

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


def keypoint_frame(rng, n, h=24, w=32):
    """n keypoints with fractional and exact-half coordinates, and a depth
    raster mixing 0, values at and just around INVALID_DEPTH_MAX, and 1."""
    xy = np.stack([rng.uniform(0, w - 1, n), rng.uniform(0, h - 1, n)], axis=1)
    halves = rng.random(n) < 0.3
    xy[halves] = rng.integers(0, [w - 1, h - 1], (halves.sum(), 2)) + 0.5
    special = [0.0, INVALID_DEPTH_MAX, np.nextafter(INVALID_DEPTH_MAX, 0), np.nextafter(INVALID_DEPTH_MAX, 2), 1.0]
    depth = rng.uniform(0.0, 1.0, (h, w))
    marked = rng.random((h, w)) < 0.3
    depth[marked] = rng.choice(special, marked.sum())
    return xy, depth


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
        q_xy, q_depth = keypoint_frame(rng, n_query)
        d_xy, d_depth = keypoint_frame(rng, n_db)
        if n_query == 0 or n_db == 0:
            n_matches = 0
        matches = [
            Match(int(rng.integers(n_query)), int(rng.integers(n_db)), 0) for _ in range(n_matches)
        ]
        q_points, q_valid = backproject_keypoints(q_xy, q_depth, self.K)
        d_points, d_valid = backproject_keypoints(d_xy, d_depth, self.K)
        assert np.array_equal(q_points[q_valid], lift_cloud_scalar(q_xy, q_depth, self.K))
        assert np.array_equal(d_points[d_valid], lift_cloud_scalar(d_xy, d_depth, self.K))

        # the matched pairs as localize selects them
        qi = np.array([m.query_index for m in matches], dtype=np.int64)
        di = np.array([m.db_index for m in matches], dtype=np.int64)
        lifted = q_valid[qi] & d_valid[di]
        want_q, want_d = lift_matches_scalar(q_xy, q_depth, d_xy, d_depth, matches, self.K)
        assert np.array_equal(q_points[qi[lifted]], want_q)
        assert np.array_equal(d_points[di[lifted]], want_d)

    def test_depth_validity_edges(self):
        depth = np.array([[0.0, 1e-12, np.nextafter(INVALID_DEPTH_MAX, 0), INVALID_DEPTH_MAX, 1.0]])
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.4, 0.4], [2.6, -0.4], [4.0, 0.0]])
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=2.0, cy=0.0, width=5, height=1)
        points, valid = backproject_keypoints(xy, depth, k)
        assert valid.tolist() == [False, True, True, False, False]
        assert points.shape == (5, 3)
        points, valid = backproject_keypoints(np.zeros((0, 2)), depth, k)
        assert points.shape == (0, 3) and valid.shape == (0,)


class TestRetrievalOnly:
    def test_pose_is_top1_pose(self, dataset, db):
        cfg = PipelineConfig()
        q = dataset[1].query_frames[0]
        res = retrieval_only_localize(db, q, cfg)
        assert res.fallback
        assert res.match_count == 0 and res.inlier_count == 0
        assert res.estimated_pose == db.frame_by_id(res.top1_frame_id).pose

    def test_db_frame_query_returns_exact_pose(self, dataset, db):
        cfg = PipelineConfig()
        frame = dataset[2].database_frames[4]
        res = retrieval_only_localize(db, frame, cfg)
        assert res.estimated_pose == frame.pose

    def test_error_equals_retrieved_frame_error(self, dataset, db):
        cfg = PipelineConfig()
        q = dataset[0].query_frames[1]
        res = retrieval_only_localize(db, q, cfg)
        retrieved_pose = db.frame_by_id(res.top1_frame_id).pose
        assert translation_error(res.estimated_pose, q.pose) == translation_error(
            retrieved_pose, q.pose
        )


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
            assert row.t_retrieval == pytest.approx(r.timings.retrieval, abs=1e-9)

    def test_malformed_line_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("1,2,3\n")
        with pytest.raises(ValueError):
            read_results(tmp_path / "bad.csv")


class TestDatabaseFile:
    def test_round_trip(self, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        loaded = load_database(tmp_path / "db.bin")
        assert len(loaded.frames) == len(db.frames)
        assert loaded.variant == db.variant
        assert loaded.vocabulary == db.vocabulary
        assert loaded.intrinsics == db.intrinsics
        assert np.allclose(loaded.index.matrix, db.index.matrix, atol=1e-15)
        for a, b in zip(db.frames, loaded.frames):
            assert a.frame_id == b.frame_id and a.point_id == b.point_id
            assert a.pose == b.pose
            assert np.array_equal(a.keypoint_xy, b.keypoint_xy)
            assert np.array_equal(a.descriptors, b.descriptors)
            assert np.array_equal(a.depth, b.depth)

    def test_byte_deterministic(self, db, tmp_path):
        save_database(db, tmp_path / "a.bin")
        save_database(db, tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

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
        pose_start = 69 + 40 * db.vocabulary.k + 8  # fixed header, then frame 0 ids
        pose_end = data.index(b"\n", pose_start) + 1
        cuts = [0, 2, 4, 8, 9, 30, 60, pose_start - 4, pose_start, pose_start + 20,
                pose_end - 1, pose_end, pose_end + 2, pose_end + 4 + 100, len(data) - 1]
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

    def test_localize_from_loaded_database(self, dataset, db, tmp_path):
        save_database(db, tmp_path / "db.bin")
        loaded = load_database(tmp_path / "db.bin")
        frame = dataset[0].database_frames[0]
        a = localize(db, frame, PipelineConfig(record_timings=False))
        b = localize(loaded, frame, PipelineConfig(record_timings=False))
        assert a.estimated_pose == b.estimated_pose
        assert a.top1_frame_id == b.top1_frame_id

    def test_empty_database_query_raises(self, vocab):
        from pointloc.retrieval import build_index

        with pytest.raises(EmptyIndexError):
            from pointloc.retrieval import query_top1, GlobalEmbedding

            query_top1(build_index([], []), GlobalEmbedding(np.zeros(4), "bow"))
