from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import camera_yaw, transform_point

from pointloc.dataset import DatasetFormatError, load_scene_model
from pointloc.scene import (
    Box,
    SceneModel,
    SceneParams,
    camera_pose,
    generate_point_grid,
    generate_scene,
    grid_candidates,
    scene_from_text,
    scene_to_text,
)


def empty_scene(width=10.0, depth=10.0) -> SceneModel:
    return SceneModel(0, (0.0, width, 0.0, depth), (), 3.0)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(42)
        b = generate_scene(42)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_scene(1) != generate_scene(2)

    def test_min_obstacles(self):
        params = SceneParams(min_obstacles=10, max_obstacles=10)
        assert len(generate_scene(0, params).obstacles) >= 10

    def test_boxes_within_floor_extent(self):
        scene = generate_scene(3)
        x0, x1, y0, y1 = scene.floor_extent
        for b in scene.obstacles:
            assert b.min_corner[0] >= x0 and b.max_corner[0] <= x1
            assert b.min_corner[1] >= y0 and b.max_corner[1] <= y1

    def test_instance_ids_unique(self):
        scene = generate_scene(5)
        ids = [b.instance_id for b in scene.all_boxes()]
        assert len(ids) == len(set(ids))

    def test_too_small_floor_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(0, SceneParams(floor_width=4.0))

    def test_free_space_exists_at_camera_height(self):
        for seed in range(5):
            scene = generate_scene(seed)
            grid = generate_point_grid(scene)
            assert len(grid) > 0


class TestBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box((0, 0, 0), (0, 1, 1), 1, 1, (0.5, 0.5, 0.5))

    def test_contains(self):
        b = Box((0, 0, 0), (1, 2, 3), 1, 1, (0.5, 0.5, 0.5))
        assert b.contains((0.5, 1.0, 1.5))
        assert b.contains((0.0, 0.0, 0.0))
        assert not b.contains((1.5, 1.0, 1.5))


class TestPointGrid:
    def test_candidate_count_10x10(self):
        # closed-interval node count oracle: positions 0,2,...,10 on each axis
        scene = empty_scene(10.0, 10.0)
        expected = len([x for x in range(0, 11, 2)]) ** 2
        assert expected == 36
        assert len(grid_candidates(scene, 2.0)) == 36

    def test_boundary_nodes_discarded(self):
        # nodes on the walls are not strictly inside the room
        grid = generate_point_grid(empty_scene(10.0, 10.0), 2.0)
        assert len(grid) == 16  # interior 4 x 4
        for gp in grid:
            x, y, _ = gp.position
            assert 0.0 < x < 10.0 and 0.0 < y < 10.0

    def test_camera_height(self):
        for gp in generate_point_grid(empty_scene(), 2.0, camera_height=1.25):
            assert gp.position[2] == 1.25

    def test_point_inside_obstacle_absent(self):
        blocker = Box((3.5, 3.5, 0.0), (4.5, 4.5, 2.0), 7, 4, (0.5, 0.5, 0.5))
        scene = SceneModel(0, (0.0, 10.0, 0.0, 10.0), (blocker,), 3.0)
        positions = {tuple(gp.position[:2]) for gp in generate_point_grid(scene, 2.0)}
        assert (4.0, 4.0) not in positions

    def test_low_obstacle_does_not_block_camera(self):
        low = Box((3.5, 3.5, 0.0), (4.5, 4.5, 0.9), 7, 4, (0.5, 0.5, 0.5))
        scene = SceneModel(0, (0.0, 10.0, 0.0, 10.0), (low,), 3.0)
        positions = {tuple(gp.position[:2]) for gp in generate_point_grid(scene, 2.0)}
        assert (4.0, 4.0) in positions

    def test_point_ids_sequential(self):
        grid = generate_point_grid(empty_scene(), 2.0)
        assert [gp.point_id for gp in grid] == list(range(len(grid)))

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            generate_point_grid(empty_scene(), 0.0)


class TestCameraPose:
    def test_rotation_is_proper(self):
        for yaw in np.linspace(0, 2 * math.pi, 13):
            r = camera_pose((1, 2, 1.25), yaw).rotation.rotation_matrix()
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_forward_axis_matches_yaw(self):
        for yaw in (0.0, 0.7, math.pi, 5.1):
            pose = camera_pose((0, 0, 1.25), yaw)
            assert camera_yaw(pose) == pytest.approx(yaw % (2 * math.pi), abs=1e-9)

    def test_camera_down_is_world_down(self):
        pose = camera_pose((0, 0, 1.25), 1.1)
        down_world = transform_point(pose, [0, 1, 0]) - pose.translation
        assert np.allclose(down_world, [0, 0, -1], atol=1e-12)

    def test_forward_is_horizontal(self):
        pose = camera_pose((0, 0, 1.25), 2.2)
        fwd = transform_point(pose, [0, 0, 1]) - pose.translation
        assert fwd[2] == pytest.approx(0.0, abs=1e-12)


class TestSceneText:
    def test_round_trip(self):
        scene = generate_scene(11)
        assert scene_from_text(scene_to_text(scene)) == scene

    def test_structure_boxes_rederived(self):
        scene = generate_scene(11)
        loaded = scene_from_text(scene_to_text(scene))
        assert loaded.structure_boxes() == scene.structure_boxes()

    def test_missing_extent_rejected(self):
        with pytest.raises(ValueError):
            scene_from_text("seed = 1\n")

    @staticmethod
    def assert_line_rejected(edit, lineno):
        """scene_from_text rejects the seed-11 scene text after `edit`, naming
        the line."""
        lines = scene_to_text(generate_scene(11)).splitlines()
        text = "\n".join(edit(lines)) + "\n"
        with pytest.raises(ValueError, match=f"^line {lineno}: "):
            scene_from_text(text)

    def test_box_with_12_fields_rejected(self):
        self.assert_line_rejected(lambda ls: ls[:5] + [ls[5] + " 0.5"] + ls[6:], 6)

    def test_nan_wall_height_rejected(self):
        self.assert_line_rejected(lambda ls: ls[:3] + ["wall_height = nan"] + ls[4:], 4)

    def test_three_value_floor_extent_rejected(self):
        self.assert_line_rejected(lambda ls: ls[:2] + ["floor_extent = 0 12 0"] + ls[3:], 3)

    def test_duplicate_wall_height_rejected(self):
        self.assert_line_rejected(lambda ls: ls[:4] + ["wall_height = 3"] + ls[4:], 5)

    def test_unknown_key_rejected(self):
        n_lines = 5 + len(generate_scene(11).obstacles)
        self.assert_line_rejected(lambda ls: ls + ["colour = red"], n_lines + 1)

    def test_line_without_equals_rejected(self):
        self.assert_line_rejected(lambda ls: ls[:1] + ["seed 11"] + ls[2:], 2)

    def test_corrupt_scene_file_is_dataset_format_error(self, tmp_path):
        (tmp_path / "scene.txt").write_text("format = pointloc-scene-v1\nwall_height = nan\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_scene_model(tmp_path)
