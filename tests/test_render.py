from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quaternions
from oracles import box_hits_full_raster, ray_box_z_depth, render_full_raster

from pointloc import dataset
from pointloc.geometry import Pose, intrinsics_from_fov
from pointloc.render import DEPTH_LEVELS, _camera_rays, _footprints, add_rgb_noise, render
from pointloc.scene import (
    Box,
    SceneModel,
    SceneParams,
    camera_pose,
    generate_point_grid,
    generate_scene,
)

K64 = intrinsics_from_fov(90.0, 64, 64)
QUANT = 0.5 / DEPTH_LEVELS  # half a 16-bit quantization step, normalized units


def wall_scene() -> SceneModel:
    # single obstacle wall 5 m in front of a camera at the origin looking +x
    wall = Box((5.0, -10.0, -10.0), (5.3, 10.0, 10.0), 7, 4, (0.8, 0.8, 0.8))
    return SceneModel(0, (-20.0, 20.0, -20.0, 20.0), (wall,), 30.0)


class TestRenderBasics:
    def test_wall_at_5m_principal_depth(self):
        frame = render(wall_scene(), camera_pose((0.0, 0.0, 1.25), 0.0), K64)
        cv, cu = int(K64.cy), int(K64.cx)
        assert frame.depth[cv, cu] / DEPTH_LEVELS == pytest.approx(0.5, abs=QUANT + 1e-9)
        assert frame.instances[cv, cu] == 7

    def test_empty_halfspace_no_hits(self):
        scene = SceneModel(0, (0.0, 10.0, 0.0, 10.0), (), 3.0)
        # camera far outside the room, facing away from it
        pose = camera_pose((-60.0, -60.0, 1.25), np.pi)  # looking toward -x
        frame = render(scene, pose, K64)
        assert np.all(frame.depth == DEPTH_LEVELS)
        assert np.all(frame.instances == 0)

    def test_deterministic(self):
        scene = generate_scene(2)
        pose = camera_pose((4.0, 4.0, 1.25), 0.9)
        a = render(scene, pose, K64)
        b = render(scene, pose, K64)
        assert np.array_equal(a.rgb, b.rgb)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.instances, b.instances)

    def test_depth_in_unit_range_and_quantized(self):
        scene = generate_scene(2)
        frame = render(scene, camera_pose((4.0, 4.0, 1.25), 0.9), K64)
        # levels 0..DEPTH_LEVELS: normalized depth in [0, 1], on the 16-bit grid
        assert frame.depth.dtype == np.uint16

    def test_float_depth_rejected(self):
        """A normalized float raster would be divided by DEPTH_LEVELS again
        when lifted; Frame takes only uint16 levels."""
        frame = render(wall_scene(), camera_pose((0.0, 0.0, 1.25), 0.0), K64)
        with pytest.raises(ValueError, match="uint16"):
            replace(frame, depth=frame.depth / DEPTH_LEVELS)

    def test_ray_cache_is_bounded(self):
        scene = wall_scene()
        for size in range(1, 13):
            render(scene, camera_pose((0.0, 0.0, 1.25), 0.0), intrinsics_from_fov(90.0, size, size))
        assert _camera_rays.cache_info().currsize <= 8

    def test_cached_rays_read_only(self):
        rays = _camera_rays(K64)
        assert _camera_rays(K64) is rays
        for a in rays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_rasters_share_dimensions(self):
        frame = render(generate_scene(2), camera_pose((4, 4, 1.25), 0.0), K64)
        assert frame.rgb.shape == (64, 64, 3)
        assert frame.depth.shape == (64, 64)
        assert frame.instances.shape == (64, 64)


class TestRenderOracle:
    def test_depth_and_instance_match_slab_oracle(self, rng):
        """Random pixels of random frames vs. an independently written
        per-ray box-intersection oracle."""
        scene = generate_scene(5)
        boxes = scene.all_boxes()
        for trial in range(3):
            pose = camera_pose(
                (rng.uniform(2, 10), rng.uniform(2, 10), 1.25), rng.uniform(0, 6.28)
            )
            frame = render(scene, pose, K64)
            r = pose.rotation.rotation_matrix()
            origin = pose.translation
            for _ in range(80):
                v, u = int(rng.integers(64)), int(rng.integers(64))
                d_cam = np.array([(u - K64.cx) / K64.fx, (v - K64.cy) / K64.fy, 1.0])
                d_world = r @ d_cam
                best_t, best_id = np.inf, 0
                for b in boxes:
                    t = ray_box_z_depth(origin, d_world, b.min_corner, b.max_corner)
                    if t is not None and 1e-6 < t < best_t:
                        best_t, best_id = t, b.instance_id
                if best_t is np.inf:
                    assert frame.depth[v, u] == DEPTH_LEVELS
                    assert frame.instances[v, u] == 0
                else:
                    expected = min(best_t / 10.0, 1.0)
                    assert frame.depth[v, u] / DEPTH_LEVELS == pytest.approx(
                        expected, abs=QUANT + 1e-6
                    )
                    assert frame.instances[v, u] == best_id

    def test_far_hits_saturate_depth(self):
        # wall at 14 m: a hit, so it keeps its instance id, but depth saturates
        wall = Box((14.0, -30.0, -10.0), (14.5, 30.0, 10.0), 7, 4, (0.8, 0.8, 0.8))
        scene = SceneModel(0, (-20.0, 20.0, -30.0, 30.0), (wall,), 30.0)
        frame = render(scene, camera_pose((0.0, 0.0, 1.25), 0.0), K64)
        cv, cu = int(K64.cy), int(K64.cx)
        assert frame.depth[cv, cu] == DEPTH_LEVELS
        assert frame.instances[cv, cu] == 7


ROOM = generate_scene(2)


@st.composite
def render_cases(draw):
    """(pose, intrinsics) in ROOM: any rotation; the camera anywhere in or
    around the room, inside a box, on one of a box's face planes, or within
    1 mm of a box corner; 30-150 degree FOV; small sizes of either parity
    (odd ones put a zero ray component on the centre column or row)."""
    boxes = ROOM.all_boxes()
    box = boxes[draw(st.integers(0, len(boxes) - 1))]
    lo, hi = np.array(box.min_corner), np.array(box.max_corner)
    unit = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    where = draw(st.sampled_from(["room", "inside", "face", "corner"]))
    if where == "room":
        pos = np.array([-1.0, -1.0, -0.5]) + np.array([14.0, 14.0, 4.0]) * unit
    elif where == "inside":
        pos = lo + (hi - lo) * unit
    elif where == "face":
        pos = lo + (hi - lo) * unit
        a = draw(st.integers(0, 2))
        pos[a] = draw(st.sampled_from([lo[a], hi[a]]))
    else:
        corner = np.where([draw(st.booleans()) for _ in range(3)], hi, lo)
        pos = corner + [draw(st.floats(-1e-3, 1e-3)) for _ in range(3)]
    k = intrinsics_from_fov(
        draw(st.floats(30.0, 150.0)), draw(st.integers(1, 33)), draw(st.integers(1, 33))
    )
    return Pose(draw(quaternions()), pos), k


def assert_same_frame(frame, expected):
    """frame is render's, expected the (rgb, depth, instances) of
    render_full_raster, whose depth is normalized: render's depth levels
    must be round(depth * DEPTH_LEVELS) exactly."""
    rgb, depth, instances = expected
    assert frame.depth.dtype == np.uint16
    assert np.array_equal(frame.depth, np.round(depth * DEPTH_LEVELS))
    for got, want in ((frame.rgb, rgb), (frame.instances, instances)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestCulledRender:
    """The culled renderer against the full-raster one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(render_cases())
    def test_bit_identical_to_full_raster(self, case):
        pose, k = case
        assert_same_frame(render(ROOM, pose, k), render_full_raster(ROOM, pose, k))

    @settings(max_examples=300, deadline=None)
    @given(render_cases())
    def test_footprint_holds_every_hit(self, case):
        """Each box alone: every pixel the full-raster slab test hits lies in
        the box's culled window."""
        pose, k = case
        boxes = ROOM.all_boxes()
        origin = pose.translation.astype(np.float32)
        lo = np.array([b.min_corner for b in boxes], dtype=np.float32) - origin
        hi = np.array([b.max_corner for b in boxes], dtype=np.float32) - origin
        windows = _footprints(lo, hi, pose.rotation.rotation_matrix(), k)
        for box, (v0, v1, u0, u1) in zip(boxes, windows):
            hits = box_hits_full_raster(box, pose, k)
            inside = np.zeros_like(hits)
            inside[v0:v1, u0:u1] = True
            assert not (hits & ~inside).any(), box

    @staticmethod
    def perfbench_room_calls(monkeypatch) -> list[tuple]:
        """The render arguments of every frame of two Points of the seed-7
        10 x 10 m room at 256 x 256, the room the benchmark renders."""
        params = dataset.GenerationParams(
            queries_per_point=13, scene=SceneParams(floor_width=10.0, floor_depth=10.0)
        )
        room = generate_scene(7, params.scene)
        calls = []

        def recording_render(*args):
            calls.append(args)
            return render(*args)

        monkeypatch.setattr(dataset, "render", recording_render)
        for point in generate_point_grid(room, params.grid_spacing, params.camera_height)[:2]:
            dataset.generate_point_frames(room, point, params, 7)
        assert len(calls) == 2 * (6 + 13)
        return calls

    def test_perfbench_room_frames(self, monkeypatch):
        for args in self.perfbench_room_calls(monkeypatch):
            assert_same_frame(render(*args), render_full_raster(*args))

    # sha256 of each raster kind's bytes over the frames above, in render order
    ROOM_DIGESTS = {
        "rgb": "c6cbd13d2ba22fc3edb5748f1fcfc5163db0276dd278ebe27af73089319df467",
        "depth": "e80708727ea25c02d012434bd85f85326b8b0ce19d39400746e4483778e01d50",
        "instances": "15d38e34bee92e90db3083f365173a36f3fe453566af80933962b09ded15e3ff",
    }

    def test_perfbench_room_frame_digests(self, monkeypatch):
        """Recorded from the renderer that shaded every pixel on its own."""
        digests = {name: hashlib.sha256() for name in self.ROOM_DIGESTS}
        for args in self.perfbench_room_calls(monkeypatch):
            frame = render(*args)
            for name, h in digests.items():
                h.update(getattr(frame, name).tobytes())
        assert {name: h.hexdigest() for name, h in digests.items()} == self.ROOM_DIGESTS


class TestRgbNoise:
    def make_frame(self):
        return render(generate_scene(3), camera_pose((4.0, 4.0, 1.25), 1.2), K64)

    def test_factor_zero_unchanged(self):
        frame = self.make_frame()
        assert np.array_equal(add_rgb_noise(frame, 0.0, seed=1).rgb, frame.rgb)

    def test_noise_std_matches_factor(self):
        k256 = intrinsics_from_fov(90.0, 256, 256)
        frame = render(generate_scene(3), camera_pose((4.0, 4.0, 1.25), 1.2), k256)
        noisy = add_rgb_noise(frame, 0.02, seed=7)
        diff = noisy.rgb.astype(np.float64) - frame.rgb.astype(np.float64)
        # avoid clipping bias: only pixels with headroom on both sides
        mask = (frame.rgb > 30) & (frame.rgb < 225)
        sigma = diff[mask].std()
        assert sigma == pytest.approx(255 * 0.02, rel=0.10)

    def test_seed_changes_raster(self):
        frame = self.make_frame()
        a = add_rgb_noise(frame, 0.02, seed=1)
        b = add_rgb_noise(frame, 0.02, seed=2)
        assert not np.array_equal(a.rgb, b.rgb)

    def test_seed_deterministic(self):
        frame = self.make_frame()
        a = add_rgb_noise(frame, 0.02, seed=9)
        b = add_rgb_noise(frame, 0.02, seed=9)
        assert np.array_equal(a.rgb, b.rgb)

    def test_depth_and_instances_untouched(self):
        frame = self.make_frame()
        noisy = add_rgb_noise(frame, 0.05, seed=3)
        assert np.array_equal(noisy.depth, frame.depth)
        assert np.array_equal(noisy.instances, frame.instances)

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            add_rgb_noise(self.make_frame(), -0.1, seed=0)

    def test_nan_factor_rejected(self):
        with pytest.raises(ValueError):
            add_rgb_noise(self.make_frame(), float("nan"), seed=0)

    @pytest.mark.parametrize("factor", [0.02, 1.0, 100.0])
    def test_matches_int64_formula(self, factor, rng):
        """Bit for bit the int64 sum, clamped; at factor 100 most noise values
        lie far past +-255, where the int16 path clamps them first."""
        frame = self.make_frame()
        frame = replace(frame, rgb=rng.integers(0, 256, frame.rgb.shape, dtype=np.uint8))
        normal = np.random.default_rng(4).standard_normal(frame.rgb.shape)
        noise = np.round(255.0 * factor * normal)
        want = np.clip(frame.rgb.astype(np.int64) + noise.astype(np.int64), 0, 255)
        if factor == 100.0:
            assert (np.abs(noise) > 255).mean() > 0.9
        assert np.array_equal(add_rgb_noise(frame, factor, seed=4).rgb, want.astype(np.uint8))
