from __future__ import annotations

import math
import re
import shutil
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import MALFORMED_LAYOUTS, camera_yaw, generate_scene_dataset

from pointloc.dataset import (
    SCENE_POINT_ID_STRIDE,
    DatasetFormatError,
    DatasetManifest,
    GenerationParams,
    InvalidKeyPoseError,
    SceneSummary,
    _pgm16_shape,
    generate_dataset_to_dir,
    generate_point_frames,
    iter_point_groups,
    load_manifest,
    load_scene_model,
    manifest_from_text,
    manifest_to_text,
    query_poses,
    read_pgm16,
    read_ppm,
    write_pgm16,
    write_ppm,
)
from pointloc.scene import (
    Box,
    GridPoint,
    SceneModel,
    SceneParams,
    generate_point_grid,
    generate_scene,
)

# small frames + few queries keep the rendering cost of this module low
SMALL = GenerationParams(
    queries_per_point=8,
    noise_factor=0.02,
    resolution=64,
    scene=SceneParams(floor_width=8.0, floor_depth=8.0, min_obstacles=4, max_obstacles=6),
)


@pytest.fixture(scope="module")
def small_dataset():
    scene, groups = generate_scene_dataset(seed=3, params=SMALL)
    return scene, groups


# tiny rasters for the on-disk tests
TINY = GenerationParams(
    queries_per_point=2,
    resolution=32,
    scene=SceneParams(floor_width=6.0, floor_depth=6.0, min_obstacles=2, max_obstacles=3),
)


class TestGeneratePointFrames:
    def test_six_database_frames(self, small_dataset):
        _, groups = small_dataset
        assert all(len(g.database_frames) == 6 for g in groups)

    def test_database_yaws_60_apart(self, small_dataset):
        _, groups = small_dataset
        for g in groups:
            yaws = [camera_yaw(f.pose) for f in g.database_frames]
            base = yaws[0]
            for i, y in enumerate(yaws):
                expected = (base + math.radians(60.0) * i) % (2 * math.pi)
                delta = abs((y - expected + math.pi) % (2 * math.pi) - math.pi)
                assert delta < 1e-9

    def test_database_positions_at_center(self, small_dataset):
        _, groups = small_dataset
        for g in groups:
            for f in g.database_frames:
                assert np.allclose(f.pose.translation, g.database_frames[0].pose.translation)

    def test_yaw_coverage_360(self, small_dataset):
        # 6 frames x 90 deg fov at 60 deg spacing jointly cover the circle
        _, groups = small_dataset
        for g in groups:
            covered = np.zeros(360, dtype=bool)
            for f in g.database_frames:
                yaw = math.degrees(camera_yaw(f.pose))
                for d in range(-45, 46):
                    covered[int(yaw + d) % 360] = True
            assert covered.all()

    def test_queries_within_radius(self, small_dataset):
        _, groups = small_dataset
        for g in groups:
            assert len(g.query_frames) <= SMALL.queries_per_point
            for f in g.query_frames:
                offset = f.pose.translation[:2] - g.database_frames[0].pose.translation[:2]
                assert np.linalg.norm(offset) <= SMALL.query_radius + 1e-12

    def test_query_poses_not_inside_obstacles(self, small_dataset):
        scene, groups = small_dataset
        for g in groups:
            for f in g.query_frames:
                assert scene.is_free(f.pose.translation)

    def test_camera_height(self, small_dataset):
        _, groups = small_dataset
        for g in groups:
            for f in g.frames():
                assert f.pose.translation[2] == pytest.approx(1.25)

    def test_deterministic(self):
        scene = generate_scene(3, SMALL.scene)
        gp = generate_point_grid(scene, SMALL.grid_spacing)[0]
        a = generate_point_frames(scene, gp, SMALL, dataset_seed=3)
        b = generate_point_frames(scene, gp, SMALL, dataset_seed=3)
        for fa, fb in zip(a.frames(), b.frames()):
            assert np.array_equal(fa.rgb, fb.rgb)
            assert fa.depth.dtype == fb.depth.dtype == np.uint16
            assert np.array_equal(fa.depth, fb.depth)
            assert fa.pose == fb.pose

    def test_blocked_neighborhood_reduces_queries(self):
        # wall a few cm from the key pose on one side discards many samples
        blocker = Box((4.1, 2.0, 0.0), (4.4, 6.0, 2.5), 7, 4, (0.5, 0.5, 0.5))
        scene = SceneModel(0, (0.0, 8.0, 0.0, 8.0), (blocker,), 3.0)
        gp = GridPoint(0, np.array([4.0, 4.0, 1.25]))
        group = generate_point_frames(scene, gp, SMALL, dataset_seed=1)
        assert len(group.query_frames) < SMALL.queries_per_point

    def test_key_pose_in_collision_rejected(self):
        blocker = Box((3.5, 3.5, 0.0), (4.5, 4.5, 2.5), 7, 4, (0.5, 0.5, 0.5))
        scene = SceneModel(0, (0.0, 8.0, 0.0, 8.0), (blocker,), 3.0)
        gp = GridPoint(0, np.array([4.0, 4.0, 1.25]))
        with pytest.raises(InvalidKeyPoseError):
            generate_point_frames(scene, gp, SMALL, dataset_seed=1)


class TestRasterFiles:
    def test_ppm_round_trip(self, tmp_path, rng):
        rgb = rng.integers(0, 256, size=(13, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "x.rgb", rgb)
        assert np.array_equal(read_ppm(tmp_path / "x.rgb"), rgb)

    def test_ppm_header_layout(self, tmp_path):
        write_ppm(tmp_path / "x.rgb", np.zeros((2, 3, 3), dtype=np.uint8))
        data = (tmp_path / "x.rgb").read_bytes()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 18

    def test_pgm16_round_trip_big_endian(self, tmp_path, rng):
        vals = rng.integers(0, 65536, size=(5, 9), dtype=np.uint16)
        write_pgm16(tmp_path / "x.depth", vals)
        data = (tmp_path / "x.depth").read_bytes()
        assert data.startswith(b"P5\n9 5\n65535\n")
        first = vals[0, 0]
        offset = len(b"P5\n9 5\n65535\n")
        assert data[offset] == first >> 8 and data[offset + 1] == first & 0xFF
        assert np.array_equal(read_pgm16(tmp_path / "x.depth"), vals)

    def test_corrupt_file_names_path(self, tmp_path):
        bad = tmp_path / "bad.rgb"
        bad.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DatasetFormatError, match="bad.rgb"):
            read_ppm(bad)

    @pytest.mark.parametrize("read, write, values", [
        (read_ppm, write_ppm, np.arange(5 * 4 * 3, dtype=np.uint8).reshape(5, 4, 3)),
        (read_pgm16, write_pgm16, np.arange(5 * 4, dtype=np.uint16).reshape(5, 4) * 999),
    ])
    def test_truncation_and_trailing_bytes_rejected(self, tmp_path, read, write, values):
        write(tmp_path / "x", values)
        data = (tmp_path / "x").read_bytes()
        for blob in [data[:cut] for cut in range(len(data))] + [data + b"\x00"]:
            (tmp_path / "bad").write_bytes(blob)
            with pytest.raises(DatasetFormatError, match="bad"):
                read(tmp_path / "bad")

    @pytest.mark.parametrize("header", [
        b"P6\n4 x\n255\n", b"P6\n4 -5\n255\n", b"P6\n4 5.0\n255\n", b"P6\n4 5 255 9\n",
        b"P6\n4 5\n65535\n", b"P5\n4 5\n255\n",
    ])
    def test_bad_header_rejected(self, tmp_path, header):
        (tmp_path / "bad.rgb").write_bytes(header + bytes(60))
        with pytest.raises(DatasetFormatError, match="bad.rgb"):
            read_ppm(tmp_path / "bad.rgb")

    def test_pgm16_shape_checks_as_read_pgm16(self, tmp_path):
        """read_frame checks a .inst file by its header and byte count only;
        every cut, a trailing byte, a bad header and a missing file raise what
        reading the raster raises."""
        write_pgm16(tmp_path / "x", np.arange(5 * 4, dtype=np.uint16).reshape(5, 4))
        assert _pgm16_shape(tmp_path / "x") == (5, 4)
        data = (tmp_path / "x").read_bytes()
        blobs = [data[:cut] for cut in range(len(data))] + [data + b"\x00"]
        blobs += [b"P6\n4 5\n65535\n" + bytes(40), b"P5\n4 5\n255\n" + bytes(40)]
        blobs += [b"P5\n4 x\n65535\n" + bytes(40), None]
        for blob in blobs:
            bad = tmp_path / "bad"
            bad.unlink(missing_ok=True)
            if blob is not None:
                bad.write_bytes(blob)
            with pytest.raises(DatasetFormatError) as read:
                read_pgm16(bad)
            with pytest.raises(DatasetFormatError, match=re.escape(str(read.value))):
                _pgm16_shape(bad)

    def test_header_comments_accepted(self, tmp_path):
        (tmp_path / "x.rgb").write_bytes(b"P6\n# made by hand\n2 1 # size\n255\n" + bytes(range(6)))
        assert read_ppm(tmp_path / "x.rgb").tolist() == [[[0, 1, 2], [3, 4, 5]]]


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        params = GenerationParams(
            queries_per_point=3,
            resolution=32,
            scene=SceneParams(floor_width=6.0, floor_depth=6.0, min_obstacles=2, max_obstacles=3),
        )
        scene, groups = generate_scene_dataset(seed=5, params=params)
        manifest = generate_dataset_to_dir(5, params, tmp_path / "ds")

        loaded_groups = list(iter_point_groups(tmp_path / "ds"))
        assert load_manifest(tmp_path / "ds") == manifest
        assert load_scene_model(tmp_path / "ds") == scene
        assert len(loaded_groups) == len(groups)
        for orig, got in zip(
            (f for g in groups for f in g.frames()), (f for g in loaded_groups for f in g.frames())
        ):
            assert np.array_equal(orig.rgb, got.rgb)
            assert orig.depth.dtype == got.depth.dtype == np.uint16
            assert np.array_equal(orig.depth, got.depth)
            kind, prefix = ("points", "db") if got.is_database else ("queries", "q")
            inst = tmp_path / "ds" / kind / str(got.point_id) / f"{prefix}_{got.frame_id}.inst"
            assert np.array_equal(orig.instances, read_pgm16(inst))
            assert got.instances is None
            assert orig.pose == got.pose
            assert (orig.point_id, orig.frame_id, orig.is_database) == (
                got.point_id,
                got.frame_id,
                got.is_database,
            )

    def test_load_empty_directory_fails(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="manifest"):
            load_manifest(tmp_path)

    def test_manifest_pose_count_recount(self, tmp_path):
        manifest = generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        pose_files = list((tmp_path / "ds").rglob("*.pose"))
        assert len(pose_files) == manifest.poses

    def test_pose_count_mismatch_detected(self, tmp_path):
        generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        victim = next((tmp_path / "ds" / "queries").rglob("q_*.pose"))
        for suffix in (".pose", ".rgb", ".depth", ".inst"):
            victim.with_suffix(suffix).unlink()
        for read in (lambda d: list(iter_point_groups(d)), query_poses):
            with pytest.raises(DatasetFormatError, match="poses"):
                read(tmp_path / "ds")

    def test_multi_scene_point_ids_offset_per_scene(self, tmp_path):
        params = replace(TINY, scenes=2)
        manifest = generate_dataset_to_dir(5, params, tmp_path / "ds")
        assert [s.name for s in manifest.scenes] == ["scene_0", "scene_1"]
        groups = list(iter_point_groups(tmp_path / "ds"))
        per_scene = [list(iter_point_groups(tmp_path / "ds" / s.name)) for s in manifest.scenes]
        assert [g.point_id for g in groups] == [g.point_id for g in per_scene[0]] + [
            g.point_id + SCENE_POINT_ID_STRIDE for g in per_scene[1]
        ]
        assert all(f.point_id == g.point_id for g in groups for f in g.frames())
        assert sum(len(g.database_frames) + len(g.query_frames) for g in groups) == manifest.poses
        poses = query_poses(tmp_path / "ds")
        assert poses == {(q.point_id, q.frame_id): q.pose for g in groups for q in g.query_frames}

    def test_stray_frame_file_names_file(self, tmp_path):
        generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        q_dir = next((tmp_path / "ds" / "queries").iterdir())
        for name in ("q_x.pose", "q_01.pose", "q_-1.pose", "q_.pose"):
            (q_dir / name).write_text("0 0 0 1 0 0 0\n")
            for read in (lambda d: list(iter_point_groups(d)), query_poses):
                with pytest.raises(DatasetFormatError, match=name):
                    read(tmp_path / "ds")
            (q_dir / name).unlink()

    def test_corrupt_query_pose_names_file(self, tmp_path):
        generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        victim = next((tmp_path / "ds" / "queries").rglob("q_*.pose"))
        for text in ("1 2 3\n", "a b c d e f g\n", "0 0 0 0 0 0 0\n"):
            victim.write_text(text)
            with pytest.raises(DatasetFormatError, match=f"corrupt pose file {victim}"):
                query_poses(tmp_path / "ds")

    @pytest.mark.parametrize("suffix", [".rgb", ".depth", ".inst"])
    def test_rasters_of_other_sizes_name_frame(self, tmp_path, suffix):
        generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        victim = next((tmp_path / "ds" / "points").rglob("db_0.rgb")).with_suffix(suffix)
        if suffix == ".rgb":
            write_ppm(victim, np.zeros((8, 8, 3), dtype=np.uint8))
        else:
            write_pgm16(victim, np.zeros((8, 8), dtype=np.uint16))
        with pytest.raises(DatasetFormatError, match=f"frame {victim.with_suffix('')}: rasters"):
            [f for g in iter_point_groups(tmp_path / "ds") for f in g.frames()]

    def test_groups_read_frames_when_used_and_keep_no_instances(self, tmp_path):
        """Listing groups opens no raster; reading a frame checks its .inst
        file as before but keeps no instance raster."""
        generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        victim = next((tmp_path / "ds" / "queries").rglob("q_*.inst"))
        victim.write_bytes(victim.read_bytes()[:100])
        groups = list(iter_point_groups(tmp_path / "ds"))
        assert all(f.instances is None for g in groups for f in g.database_frames)
        assert [f.frame_id for f in groups[0].database_frames[1:3]] == [1, 2]
        with pytest.raises(DatasetFormatError, match=re.escape(str(victim))):
            [f for g in groups for f in g.query_frames]

    def test_generate_refuses_a_non_empty_directory(self, tmp_path):
        """Frames of an earlier dataset would stay and be read with the new
        one, so generation needs a new or empty directory."""
        generate_dataset_to_dir(5, TINY, tmp_path / "ds")
        before = sorted((tmp_path / "ds").rglob("*"))
        with pytest.raises(ValueError, match=f"output directory {tmp_path / 'ds'} is not empty"):
            generate_dataset_to_dir(5, replace(TINY, queries_per_point=1), tmp_path / "ds")
        assert sorted((tmp_path / "ds").rglob("*")) == before
        (tmp_path / "empty").mkdir()
        generate_dataset_to_dir(5, TINY, tmp_path / "empty")


@pytest.fixture(scope="module")
def walk_datasets(tmp_path_factory):
    """A generated 1-scene and 2-scene dataset, ds1 and ds2."""
    root = tmp_path_factory.mktemp("walk")
    for scenes in (1, 2):
        generate_dataset_to_dir(5, replace(TINY, scenes=scenes), root / f"ds{scenes}")
    return root


class TestWalk:
    """iter_point_groups and query_poses read a dataset through one walk, so
    they see the same queries and reject the same malformed layouts."""

    @pytest.mark.parametrize(
        "scenes, layout",
        [
            pytest.param(scenes, name, id=f"{scenes}-scene-{name}")
            for scenes in (1, 2)
            for name, (_, fewest) in sorted(MALFORMED_LAYOUTS.items())
            if scenes >= fewest
        ],
    )
    def test_readers_agree_before_and_after_a_malformed_edit(
        self, walk_datasets, tmp_path, scenes, layout
    ):
        root = tmp_path / "ds"
        shutil.copytree(walk_datasets / f"ds{scenes}", root)
        groups = list(iter_point_groups(root))
        walked = {(q.point_id, q.frame_id) for g in groups for q in g.query_frames}
        assert len({g.point_id // SCENE_POINT_ID_STRIDE for g in groups}) == scenes
        assert walked and set(query_poses(root)) == walked

        edit, _ = MALFORMED_LAYOUTS[layout]
        culprit = edit(root, root if scenes == 1 else root / "scene_0")
        errors = []
        for read in (lambda d: list(iter_point_groups(d)), query_poses):
            with pytest.raises(DatasetFormatError) as raised:
                read(root)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert str(culprit) in errors[0]

    def test_count_off_in_one_scene_names_that_scene(self, walk_datasets, tmp_path):
        root = tmp_path / "ds"
        shutil.copytree(walk_datasets / "ds2", root)
        line = load_manifest(root).scenes[1]
        edit, _ = MALFORMED_LAYOUTS["query-files-deleted"]
        manifest = edit(root, root / "scene_1")
        message = (
            f"{manifest}: scene_1 lists {line.points} points and {line.poses} poses, "
            f"{root / 'scene_1'} holds {line.points} and {line.poses - 1}"
        )
        for read in (lambda d: list(iter_point_groups(d)), query_poses):
            with pytest.raises(DatasetFormatError, match=re.escape(message)):
                read(root)

    def test_manifest_of_another_scene_count_is_rejected(self, walk_datasets, tmp_path):
        root = tmp_path / "ds"
        shutil.copytree(walk_datasets / "ds2", root)
        shutil.copy(root / "scene_0" / "manifest.txt", root / "manifest.txt")
        message = f"{root / 'manifest.txt'}: 1 scene lines for 2 scenes"
        for read in (lambda d: list(iter_point_groups(d)), query_poses):
            with pytest.raises(DatasetFormatError, match=re.escape(message)):
                read(root)

    def test_tree_without_manifest_walks_unchecked(self, walk_datasets, tmp_path):
        """perfbench/prepare.py writes scene.txt and the frames but no
        manifest, so there is nothing to count against."""
        root = tmp_path / "ds"
        shutil.copytree(walk_datasets / "ds1", root)
        groups = list(iter_point_groups(root))
        poses = query_poses(root)
        (root / "manifest.txt").unlink()
        assert list(iter_point_groups(root)) == groups
        assert query_poses(root) == poses
        MALFORMED_LAYOUTS["query-files-deleted"][0](root, root)
        assert len(query_poses(root)) == len(poses) - 1

    def test_scene_directory_next_to_scene_file_is_rejected(self, walk_datasets, tmp_path):
        """A root holding scene.txt is one scene; a scene_<i> beside it would
        go unread."""
        root = tmp_path / "ds"
        shutil.copytree(walk_datasets / "ds1", root)
        (root / "scene_0").mkdir()
        for read in (lambda d: list(iter_point_groups(d)), query_poses):
            with pytest.raises(DatasetFormatError, match=re.escape(str(root / "scene_0"))):
                read(root)


class TestManifest:
    def test_text_round_trip(self):
        params = GenerationParams()
        m = DatasetManifest(
            seed=9,
            scenes=(SceneSummary("scene_0", 123, 23, 1088),),
            points=23,
            poses=1088,
            categories=33,
            instances=3266,
            maps=1,
            params=params,
        )
        assert manifest_from_text(manifest_to_text(m)) == m

    def test_corrupt_manifest_names_file(self):
        with pytest.raises(DatasetFormatError, match="manifest.txt"):
            manifest_from_text("format = pointloc-dataset-v1\n")

    def test_other_depth_scale_rejected(self):
        """Lifting always scales depth levels by DEPTH_MAX, so a manifest
        announcing another scale names a dataset this code would misread."""
        text = manifest_to_text(DatasetManifest(9, (), 0, 0, 0, 0, 1, GenerationParams()))
        assert "\ndepth_max = 10\n" in text
        with pytest.raises(DatasetFormatError, match="depth_max 5 is not"):
            manifest_from_text(text.replace("depth_max = 10\n", "depth_max = 5\n"))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("format = pointloc-dataset-v9\n", "'pointloc-dataset-v9' is not pointloc-dataset-v1"),
            ("", "'format'"),
        ],
        ids=["other-version", "missing"],
    )
    def test_format_line_required(self, line, message):
        """Only the format line the writer emits names a manifest this code
        reads; another version, or none, is rejected naming the file."""
        m = DatasetManifest(9, (SceneSummary("scene_0", 1, 2, 3),), 2, 3, 0, 0, 1, GenerationParams())
        text = manifest_to_text(m)
        assert text.startswith("format = pointloc-dataset-v1\n")
        assert manifest_from_text(text, "m.txt") == m
        with pytest.raises(DatasetFormatError, match=f"m.txt: .*{message}"):
            manifest_from_text(text.replace("format = pointloc-dataset-v1\n", line), "m.txt")

    def test_written_manifests_load(self, tmp_path):
        for scenes in (1, 2):
            params = replace(TINY, scenes=scenes, queries_per_point=1)
            manifest = generate_dataset_to_dir(5, params, tmp_path / f"ds{scenes}")
            assert load_manifest(tmp_path / f"ds{scenes}") == manifest
            assert len(list(iter_point_groups(tmp_path / f"ds{scenes}"))) == manifest.points

    def test_totals_off_the_scene_lines_fail_to_load(self, tmp_path):
        generate_dataset_to_dir(5, replace(TINY, queries_per_point=1), tmp_path)
        path = tmp_path / "manifest.txt"
        text = path.read_text()
        path.write_text(re.sub(r"^poses = .*$", "poses = 999", text, flags=re.M))
        message = f"corrupt manifest {re.escape(str(path))}: poses = 999 is not"
        for read in (load_manifest, lambda d: list(iter_point_groups(d))):
            with pytest.raises(DatasetFormatError, match=message):
                read(tmp_path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("no equals sign", "not a known 'key = value' line"),
            ("colour = blue", "not a known 'key = value' line"),
            (" = 3", "not a known 'key = value' line"),
            ("scene_x = a 1 2 3", "not a known 'key = value' line"),
            ("seed = 4", "duplicate key 'seed'"),
            ("scene_0 = scene_0 1 2 3", "duplicate key 'scene_0'"),
        ],
    )
    def test_unknown_lines_rejected_with_line_number(self, line, message):
        text = manifest_to_text(
            DatasetManifest(9, (SceneSummary("scene_0", 1, 2, 3),), 2, 3, 1, 1, 1, GenerationParams())
        )
        lineno = len(text.splitlines()) + 2
        with pytest.raises(DatasetFormatError, match=f"m.txt:{lineno}: {message}"):
            manifest_from_text(text + "\n" + line + "\n", "m.txt")
        assert manifest_from_text("\n" + text + "\n  \n", "m.txt").seed == 9  # blanks pass

    @staticmethod
    def one_scene_text(**changes):
        summary = SceneSummary("scene_0", 1, 2, 3)
        params = replace(GenerationParams(), **changes)
        return manifest_to_text(DatasetManifest(9, (summary,), 2, 3, 1, 1, 1, params))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.replace("scene_0 = scene_0 1 2 3\n", ""), "0 scene_<i> lines for scenes = 1"),
            (lambda t: t.replace("scenes = 1", "scenes = 2") + "scene_2 = b 1 2 3\n", "'scene_1'"),
            (lambda t: t + "scene_1 = b 1 2 3\n", "2 scene_<i> lines for scenes = 1"),
            (lambda t: t + "scene_00 = b 1 2 3\n", "2 scene_<i> lines for scenes = 1"),
            (lambda t: t.replace("scene_0 =", "scene_00 ="), "'scene_0'"),
            (lambda t: t.replace("scenes = 1\n", ""), "'scenes'"),
            (lambda t: t.replace("scenes = 1\nscene_0 = scene_0 1 2 3\n", "scenes = 0\n"),
             "0 scene_<i> lines for scenes = 0"),
        ],
        ids=["missing", "gap", "surplus", "repeated", "misnamed", "no-count", "zero"],
    )
    def test_scene_lines_must_number_the_scenes(self, edit, message):
        with pytest.raises(DatasetFormatError, match=f"corrupt manifest m.txt: .*{message}"):
            manifest_from_text(edit(self.one_scene_text()), "m.txt")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("maps = 7", "maps = 7 is not the scene lines' total 1"),
            ("points = 40", "points = 40 is not the scene lines' total 2"),
            ("poses = 999", "poses = 999 is not the scene lines' total 3"),
        ],
    )
    def test_totals_must_be_those_of_the_scene_lines(self, line, message):
        text = self.one_scene_text()
        key = line.split()[0]
        edited = re.sub(rf"^{key} = .*$", line, text, count=1, flags=re.M)
        assert edited != text
        with pytest.raises(DatasetFormatError, match=f"corrupt manifest m.txt: {message}"):
            manifest_from_text(edited, "m.txt")

    @pytest.mark.parametrize("key", ["fov_deg", "query_radius", "scene_floor_width"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_setting_rejected(self, key, value):
        text = self.one_scene_text()
        line = next(line for line in text.splitlines() if line.startswith(f"{key} ="))
        with pytest.raises(DatasetFormatError, match=f"m.txt: {key} = {value} is not finite"):
            manifest_from_text(text.replace(line, f"{key} = {value}"), "m.txt")

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"fov_deg": 0.0}, "fov must be in"),
            ({"fov_deg": 180.0}, "fov must be in"),
            ({"fov_deg": 5e-324}, "division by zero"),
            ({"resolution": 0}, "focal lengths must be positive"),
            ({"resolution": -4}, "focal lengths must be positive"),
            ({"resolution": 10**400}, "too large"),
        ],
    )
    def test_camera_out_of_range_rejected(self, changes, message):
        with pytest.raises(DatasetFormatError, match=f"corrupt manifest m.txt: .*{message}"):
            manifest_from_text(self.one_scene_text(**changes), "m.txt")


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**6), 10**6)
)
floats_or_ints = st.one_of(st.floats(), st.integers(-(10**6), 10**6))


def _params_of(cls, floats, **extra):
    """Values for each float and int field of a params dataclass, ints
    included in float fields."""
    values = {
        f.name: floats if isinstance(f.default, float) else st.integers() for f in fields(cls)
    }
    return st.builds(cls, **{**values, **extra})


def _manifests(params, min_scenes):
    summary = st.builds(
        SceneSummary,
        st.text("abcz_019", min_size=1, max_size=8),
        st.integers(),
        st.integers(),
        st.integers(),
    )
    return st.builds(
        DatasetManifest,
        seed=st.integers(),
        scenes=st.lists(summary, min_size=min_scenes, max_size=3).map(tuple),
        points=st.integers(),
        poses=st.integers(),
        categories=st.integers(),
        instances=st.integers(),
        maps=st.integers(),
        params=params,
    )


def _with_scene_totals(m):
    """The manifest with maps, points and poses those of its scene lines."""
    return replace(
        m,
        maps=len(m.scenes),
        points=sum(s.points for s in m.scenes),
        poses=sum(s.poses for s in m.scenes),
    )


# Any values at all, and values the reader accepts: finite settings, a
# camera intrinsics_from_fov can make, at least one scene and the totals of
# the scene lines.
manifests = _manifests(
    _params_of(GenerationParams, floats_or_ints, scene=_params_of(SceneParams, floats_or_ints)),
    min_scenes=0,
)
sound_manifests = _manifests(
    _params_of(
        GenerationParams,
        finite,
        fov_deg=st.one_of(st.floats(0.5, 179.5), st.integers(1, 179)),
        resolution=st.integers(1, 4096),
        scene=_params_of(SceneParams, finite),
    ),
    min_scenes=1,
).map(_with_scene_totals)

# Checks the field-derived reader has and the hand-listed one had not: a
# manifest the listed reader loads may fail on these and only these.
GAINED_CHECKS = re.compile(
    r"is not finite|'scenes'|scene_<i> lines for|'scene_\d+'"
    r"|fov must be|focal lengths must be positive|too large|division by zero"
    r"|'format'|is not pointloc-dataset-v1|is not the scene lines' total"
)


def _read(reader, text):
    try:
        return reader(text, "m.txt")
    except DatasetFormatError as e:
        return e


class TestManifestMatchesListedSchema:
    """The field-derived manifest writer and reader against the hand-listed
    ones they replaced (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(m=manifests)
    def test_writer_bytes_equal(self, m):
        assert manifest_to_text(m) == oracles.manifest_to_text(m)

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.one_of(sound_manifests, manifests),
        edit=st.sampled_from(["none", "cut", "flip"]),
        at=st.integers(0, 2**32),
        bit=st.integers(0, 7),
    )
    def test_reader_gives_same_value_or_error(self, m, edit, at, bit):
        data = bytearray(oracles.manifest_to_text(m).encode("ascii"))
        if edit == "cut":
            data = data[: at % len(data)]
        elif edit == "flip":
            data[at % len(data)] ^= 1 << bit
        text = data.decode("latin-1")
        listed, derived = _read(oracles.manifest_from_text, text), _read(manifest_from_text, text)
        if isinstance(derived, DatasetManifest):
            assert derived == listed
        elif isinstance(listed, DatasetManifest):
            assert GAINED_CHECKS.search(str(derived)), derived


class TestDatasetStats:
    def test_instances_are_distinct_ids_seen(self, small_dataset, tmp_path):
        scene, groups = small_dataset
        manifest = generate_dataset_to_dir(3, SMALL, tmp_path / "ds")
        # independent recount by set union over every raster
        union = set()
        for g in groups:
            for f in g.frames():
                union |= {int(v) for v in f.instances.ravel() if v != 0}
        assert manifest.instances == len(union)
        cats = {scene.category_of(i) for i in union}
        assert manifest.categories == len(cats - {None})

    def test_two_scene_categories_are_the_union_seen(self, tmp_path):
        """Category ids are global, so the scenes' sets are united, not
        counted per scene: with dataset seed 1 the two scenes see 7 and 8
        categories, 9 in all."""
        params = GenerationParams(
            scenes=2, queries_per_point=0, resolution=32,
            scene=SceneParams(floor_width=6.0, floor_depth=6.0),
        )
        manifest = generate_dataset_to_dir(1, params, tmp_path / "ds")
        instances, cats = 0, set()
        for s in range(2):
            scene, groups = generate_scene_dataset(seed=1, params=params, scene_index=s)
            union = set()
            for g in groups:
                for f in g.frames():
                    union |= {int(v) for v in f.instances.ravel() if v != 0}
            instances += len(union)
            cats |= {scene.category_of(i) for i in union} - {None}
        assert manifest.instances == instances
        assert manifest.categories == len(cats)
