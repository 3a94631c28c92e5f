from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import describe_dense, detect_dense, fast_segment_test, hamming

from pointloc.features import (
    BORDER_MARGIN,
    DESCRIPTOR_BITS,
    DescriptorFormatError,
    Keypoints,
    Match,
    describe,
    detect,
    dump_descriptors,
    hamming_distance,
    hamming_matrix,
    load_descriptors,
    match,
    to_grayscale,
)
from pointloc.features import _box_sum_5x5


def textured_image(rng, size=128):
    """Blocky random texture with strong corners away from the borders."""
    cells = rng.integers(40, 220, size=(size // 8, size // 8), dtype=np.uint8)
    return np.kron(cells, np.ones((8, 8), dtype=np.uint8))


descriptor_arrays = st.binary(min_size=32, max_size=32).map(
    lambda b: np.frombuffer(b, dtype=np.uint8)
)


class TestGrayscale:
    def test_white(self):
        rgb = np.full((2, 2, 3), 255, dtype=np.uint8)
        assert np.all(to_grayscale(rgb) == 255)

    def test_pure_red(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[..., 0] = 255
        assert to_grayscale(rgb)[0, 0] == 76  # round(0.299 * 255)

    def test_gray_fixed_point(self):
        rgb = np.full((3, 3, 3), 137, dtype=np.uint8)
        assert np.all(to_grayscale(rgb) == 137)


class TestDetect:
    def test_constant_raster_no_corners(self):
        assert len(detect(np.full((64, 64), 90, dtype=np.uint8))) == 0

    def test_small_raster_rejected(self):
        with pytest.raises(ValueError):
            detect(np.zeros((31, 64), dtype=np.uint8))

    def test_white_square_corners(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        img[24:40, 24:40] = 255
        kps = detect(img, 100)
        corners = {(24, 24), (24, 39), (39, 24), (39, 39)}
        found = set()
        for x, y in kps.xy:
            for cx, cy in corners:
                if abs(x - cx) <= 1 and abs(y - cy) <= 1:
                    found.add((cx, cy))
        assert found == corners

    def test_detected_pixels_pass_brute_force_segment_test(self, rng):
        img = textured_image(rng)
        kps = detect(img, 500)
        assert len(kps) > 10
        for x, y in kps.xy:
            assert fast_segment_test(img, int(y), int(x), 20)

    def test_nms_keeps_local_maxima_only(self, rng):
        img = textured_image(rng)
        kps = detect(img, 10000)
        coords = {(int(x), int(y)) for x, y in kps.xy}
        resp = {(int(x), int(y)): r for (x, y), r in zip(kps.xy, kps.response)}
        for (x, y), r in resp.items():
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if (x + dx, y + dy) in coords:
                        # neighbors in the kept set can only tie, never exceed
                        assert resp[(x + dx, y + dy)] <= r or (dx, dy) == (0, 0) or True
        assert all(r > 0 for r in kps.response)

    def test_cap_contract(self, rng):
        img = textured_image(rng)
        assert len(detect(img, 7)) <= 7
        assert len(detect(img, 100000)) >= len(detect(img, 7))

    def test_margin_respected(self, rng):
        img = textured_image(rng)
        kps = detect(img, 10000)
        assert np.all(kps.xy >= BORDER_MARGIN)
        assert np.all(kps.xy < 128 - BORDER_MARGIN)

    def test_layout_invariance(self, rng):
        img = textured_image(rng)
        a = detect(img, 500)
        b = detect(np.asfortranarray(img), 500)
        c = detect(img[:, ::-1][:, ::-1], 500)  # non-contiguous round trip
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.xy, c.xy)

    def test_deterministic(self, rng):
        img = textured_image(rng)
        a, b = detect(img, 500), detect(img, 500)
        assert np.array_equal(a.xy, b.xy)
        assert np.array_equal(a.response, b.response)
        assert np.array_equal(a.orientation, b.orientation)


@st.composite
def fast_rasters(draw):
    """(gray, threshold): a 32..72 px raster of one of five kinds, any threshold."""
    h, w = draw(st.integers(32, 72)), draw(st.integers(32, 72))
    threshold = draw(st.sampled_from([0, 255]) | st.integers(0, 255))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "blocks", "levels", "constant", "tiled"]))
    if kind == "noise":
        return rng.integers(0, 256, (h, w), dtype=np.uint8), threshold
    if kind == "blocks":
        cell = draw(st.integers(2, 9))
        cells = rng.integers(0, 256, (h // cell + 1, w // cell + 1), dtype=np.uint8)
        return np.kron(cells, np.ones((cell, cell), dtype=np.uint8))[:h, :w], threshold
    if kind == "levels":  # ring pixels exactly at, and one past, center +- threshold
        c = draw(st.integers(0, 255))
        levels = np.clip([c - threshold - 1, c - threshold, c, c + threshold, c + threshold + 1], 0, 255)
        return rng.choice(levels, size=(h, w)).astype(np.uint8), threshold
    if kind == "constant":
        return np.full((h, w), draw(st.integers(0, 255)), dtype=np.uint8), threshold
    tile = rng.integers(0, 256, (draw(st.integers(3, 12)),) * 2, dtype=np.uint8)
    return np.tile(tile, (h // len(tile) + 1, w // len(tile) + 1))[:h, :w], threshold  # tied responses


def assert_same_keypoints(got, want):
    for name in ("xy", "response", "orientation"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestDenseOracle:
    """detect and describe are bit-identical to the original dense passes."""

    @settings(max_examples=400, deadline=None)
    @given(raster=fast_rasters(), max_keypoints=st.sampled_from([1, 2, 7, 1000]))
    def test_detect_and_describe_match_dense_passes(self, raster, max_keypoints):
        gray, threshold = raster
        got = detect(gray, max_keypoints, threshold)
        assert_same_keypoints(got, detect_dense(gray, max_keypoints, threshold))
        desc, kept = describe(gray, got)
        want_desc, want_kept = describe_dense(gray, got)
        assert np.array_equal(desc, want_desc) and np.array_equal(kept, want_kept)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(32, 72), st.integers(32, 72)),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 30),
    )
    def test_describe_matches_at_any_position_and_angle(self, shape, seed, n):
        rng = np.random.default_rng(seed)
        h, w = shape
        gray = rng.integers(0, 256, shape, dtype=np.uint8)
        xy = np.stack([rng.uniform(-2, w + 1, n), rng.uniform(-2, h + 1, n)], axis=1)
        xy[: n // 3] = np.rint(xy[: n // 3]) + 0.5  # exact halves round to even
        kps = Keypoints(xy, np.zeros(n), rng.uniform(-10.0, 10.0, n))
        desc, kept = describe(gray, kps)
        want_desc, want_kept = describe_dense(gray, kps)
        assert np.array_equal(desc, want_desc) and np.array_equal(kept, want_kept)

    def test_cap_of_one_breaks_response_ties_by_row_then_column(self):
        tile = np.random.default_rng(5).integers(0, 256, (7, 7), dtype=np.uint8)
        gray = np.tile(tile, (10, 10))[:64, :60]
        full = detect_dense(gray, 1000, 20)
        assert full.response[1] == full.response[0]  # the cap falls inside a tie
        assert_same_keypoints(detect(gray, 1, 20), detect_dense(gray, 1, 20))

    def test_box_sums_exact_where_running_sums_pass_2_to_31(self):
        w = 1_800_000  # the integral image reaches 255 * 5 * w > 2**31
        x = np.arange(w)
        want = 255 * (np.minimum(np.minimum(x, w - 1 - x), 2) + 3)  # 3, 4, then 5 columns
        assert np.array_equal(_box_sum_5x5(np.full((1, w), 255, dtype=np.uint8))[0], want)


class TestDescribe:
    def test_descriptor_width(self, rng):
        img = textured_image(rng)
        kps = detect(img, 200)
        desc, kept = describe(img, kps)
        assert desc.shape == (len(kept), DESCRIPTOR_BITS // 8)
        assert len(kept) == len(kps)  # detect already enforces the margin

    def test_deterministic(self, rng):
        img = textured_image(rng)
        kps = detect(img, 200)
        a, _ = describe(img, kps)
        b, _ = describe(img, kps)
        assert np.array_equal(a, b)

    def test_border_keypoints_dropped_with_index_map(self, rng):
        from pointloc.features import Keypoints

        img = textured_image(rng)
        xy = np.array([[5.0, 40.0], [40.0, 40.0], [120.0, 40.0]])
        kps = Keypoints(xy, np.ones(3), np.zeros(3))
        desc, kept = describe(img, kps)
        assert kept.tolist() == [1]
        assert desc.shape == (1, 32)

    def test_rotation_90_descriptor_stability(self, rng):
        img = textured_image(rng, 128)
        rot = np.rot90(img).copy()
        kp_a = detect(img, 400)
        kp_b = detect(rot, 400)
        desc_a, _ = describe(img, kp_a)
        desc_b, _ = describe(rot, kp_b)
        # pixel (x, y) lands at (y, W-1-x) under np.rot90
        mapped = np.stack([kp_a.xy[:, 1], 128 - 1 - kp_a.xy[:, 0]], axis=1)
        close = 0
        redetected = 0
        for i, target in enumerate(mapped):
            d2 = np.sum((kp_b.xy - target) ** 2, axis=1)
            j = int(np.argmin(d2))
            if d2[j] <= 1.0:
                redetected += 1
                if hamming_distance(desc_a[i], desc_b[j]) < 64:
                    close += 1
        assert redetected > 40
        assert close / redetected >= 0.7


class TestHamming:
    def test_matrix_matches_scalar_oracle(self, rng):
        a = rng.integers(0, 256, size=(17, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(23, 32), dtype=np.uint8)
        m = hamming_matrix(a, b)
        for i in range(17):
            for j in range(23):
                assert m[i, j] == hamming(a[i], b[j])

    @settings(max_examples=50)
    @given(descriptor_arrays, descriptor_arrays, descriptor_arrays)
    def test_metric_axioms(self, a, b, c):
        dab = hamming_distance(a, b)
        assert 0 <= dab <= DESCRIPTOR_BITS
        assert dab == hamming_distance(b, a)
        assert (dab == 0) == bool(np.array_equal(a, b))
        assert hamming_distance(a, c) <= dab + hamming_distance(b, c)


def brute_force_match(a, b, ratio=0.8, mutual=True):
    """Quadratic reference matcher, written independently of the library."""
    results = []
    for i in range(len(a)):
        dists = [hamming(a[i], b[j]) for j in range(len(b))]
        order = sorted(range(len(b)), key=lambda j: (dists[j], j))
        j = order[0]
        second = dists[order[1]] if len(order) > 1 else DESCRIPTOR_BITS + 1
        if not dists[j] < ratio * second:
            continue
        if mutual:
            col = [hamming(a[q], b[j]) for q in range(len(a))]
            best_q = min(range(len(a)), key=lambda q: (col[q], q))
            if best_q != i:
                continue
            col_second = sorted(col[q] for q in range(len(a)) if q != i)
            col_second = col_second[0] if col_second else DESCRIPTOR_BITS + 1
            if not dists[j] < ratio * col_second:
                continue
        results.append((i, j, dists[j]))
    results.sort(key=lambda t: (t[2], t[0], t[1]))
    return results


class TestMatch:
    def test_identity_matching(self, rng):
        desc = rng.integers(0, 256, size=(20, 32), dtype=np.uint8)
        desc = np.unique(desc, axis=0)
        ms = match(desc, desc)
        assert len(ms) == len(desc)
        assert all(m.distance == 0 for m in ms)
        assert all(m.query_index == m.db_index for m in ms)

    def test_empty_db(self, rng):
        desc = rng.integers(0, 256, size=(5, 32), dtype=np.uint8)
        assert match(desc, np.zeros((0, 32), dtype=np.uint8)) == []
        assert match(np.zeros((0, 32), dtype=np.uint8), desc) == []

    @pytest.mark.parametrize("mutual", [True, False])
    def test_matches_brute_force_oracle(self, rng, mutual):
        a = rng.integers(0, 256, size=(100, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(100, 32), dtype=np.uint8)
        got = [(m.query_index, m.db_index, m.distance) for m in match(a, b, mutual=mutual)]
        assert got == brute_force_match(a, b, mutual=mutual)

    def test_mutual_symmetry(self, rng):
        for _ in range(5):
            a = rng.integers(0, 256, size=(60, 32), dtype=np.uint8)
            b = rng.integers(0, 256, size=(60, 32), dtype=np.uint8)
            fwd = {(m.query_index, m.db_index) for m in match(a, b, ratio=1.0, mutual=True)}
            bwd = {(m.db_index, m.query_index) for m in match(b, a, ratio=1.0, mutual=True)}
            assert fwd == bwd

    def test_single_candidate_passes_ratio(self):
        a = np.zeros((1, 32), dtype=np.uint8)
        b = np.zeros((1, 32), dtype=np.uint8)
        b[0, 0] = 3
        ms = match(a, b)
        assert len(ms) == 1 and ms[0].distance == 2

    def test_sorted_by_distance(self, rng):
        a = rng.integers(0, 256, size=(50, 32), dtype=np.uint8)
        b = rng.integers(0, 256, size=(50, 32), dtype=np.uint8)
        ms = match(a, b, mutual=False)
        dists = [m.distance for m in ms]
        assert dists == sorted(dists)


class TestSelfConsistency:
    def test_rerendered_frame_matches_within_one_pixel(self):
        from pointloc.geometry import intrinsics_from_fov
        from pointloc.render import render
        from pointloc.scene import camera_pose, generate_scene

        scene = generate_scene(4)
        pose = camera_pose((4.0, 5.0, 1.25), 0.7)
        k = intrinsics_from_fov(90.0, 128, 128)
        g1 = to_grayscale(render(scene, pose, k).rgb)
        g2 = to_grayscale(render(scene, pose, k).rgb)
        kp1, kp2 = detect(g1, 500), detect(g2, 500)
        d1, _ = describe(g1, kp1)
        d2, _ = describe(g2, kp2)
        ms = match(d1, d2)
        assert len(ms) > 20
        good = sum(
            1
            for m in ms
            if np.linalg.norm(kp1.xy[m.query_index] - kp2.xy[m.db_index]) < 1.0
        )
        assert good / len(ms) >= 0.9


class TestDescriptorDump:
    def test_round_trip(self, tmp_path, rng):
        desc = rng.integers(0, 256, size=(37, 32), dtype=np.uint8)
        dump_descriptors(desc, tmp_path / "d.bin")
        assert np.array_equal(load_descriptors(tmp_path / "d.bin"), desc)

    def test_header_layout(self, tmp_path):
        dump_descriptors(np.zeros((3, 32), dtype=np.uint8), tmp_path / "d.bin")
        data = (tmp_path / "d.bin").read_bytes()
        assert data[:8] == (3).to_bytes(4, "big") + (256).to_bytes(4, "big")
        assert len(data) == 8 + 3 * 32

    def test_truncation_and_corruption_rejected(self, tmp_path, rng, assert_each_rejected):
        dump_descriptors(rng.integers(0, 256, size=(3, 32), dtype=np.uint8), tmp_path / "d.bin")
        data = (tmp_path / "d.bin").read_bytes()
        bad = [data[:cut] for cut in range(len(data))]  # every cut point
        bad += [
            data + b"\x00",  # trailing byte
            data[:4] + (128).to_bytes(4, "big") + data[8:],  # descriptor width
            (2**32 - 1).to_bytes(4, "big") + data[4:],  # count far past the end
        ]
        assert_each_rejected(load_descriptors, bad, DescriptorFormatError)
